package bpred

// TAGE (TAgged GEometric history length) predictor after Seznec & Michaud,
// "A case for (partially) TAgged GEometric history length branch
// prediction". A bimodal base predictor is backed by several tagged tables
// indexed with geometrically increasing global-history lengths; the longest
// matching table provides the prediction, and entries are allocated on
// mispredictions. This is the predictor class BOOM adopted after Gshare,
// which the paper's SPEC2017 case study evaluates (§IV-B, Fig. 6).
//
// History folding uses the standard circular-shifted-register construction
// so every operation is O(1) in the history length.

// TageConfig sizes the predictor.
type TageConfig struct {
	// BaseBits sizes the bimodal base table (2^BaseBits entries).
	BaseBits uint
	// TableBits sizes each tagged table (2^TableBits entries).
	TableBits uint
	// TagBits is the partial tag width.
	TagBits uint
	// HistLengths are the geometric history lengths, shortest first.
	HistLengths []uint
}

// DefaultTageConfig returns a 4-table configuration comparable in storage
// budget to the gshare predictor it is benchmarked against.
func DefaultTageConfig() TageConfig {
	return TageConfig{
		BaseBits:    12,
		TableBits:   10,
		TagBits:     10,
		HistLengths: []uint{5, 15, 44, 130},
	}
}

// tageEntry is 8 bytes (tag first, so the two byte fields share its
// padding): the four default tables fit in 32 KiB.
type tageEntry struct {
	tag    uint32
	ctr    int8  // 3-bit signed counter, -4..3; >=0 predicts taken
	useful uint8 // 2-bit usefulness
}

// folded is an incrementally maintained folded-history register. The
// rotate amount and mask are fixed by the lengths, so newFolded computes
// them once, and update needs no division. oldBit is 0 or 1, so -oldBit
// selects out without a variable shift.
type folded struct {
	value uint64
	width uint   // folded width in bits
	out   uint64 // 1 << (origLen % width): where the outgoing bit lands
	mask  uint64 // 1<<width - 1
}

// newFolded returns a register folding origLen history bits into width.
func newFolded(origLen, width uint) folded {
	f := folded{width: width, mask: 1<<width - 1}
	if width > 0 {
		f.out = 1 << (origLen % width)
	}
	return f
}

func (f *folded) update(newBit, oldBit uint64) {
	v := f.value<<1 | newBit
	v ^= f.out & -oldBit
	v ^= v >> f.width
	f.value = v & f.mask
}

type tageTable struct {
	entries []tageEntry
	histLen uint
	idxBits uint
	idxMask uint64
	tagMask uint64
	fIdx    folded
	fTag1   folded
	fTag2   folded
	// lastIdx/lastTag hold this table's slot and tag for the branch
	// between Predict and Update.
	lastIdx uint64
	lastTag uint32
}

// Tage is the predictor state.
type Tage struct {
	cfg    TageConfig
	base   *Bimodal
	tables []tageTable

	// Global history as a circular bit buffer (most recent at head-1).
	hist    []uint8
	head    int
	histLen int

	allocFailures int

	// prediction bookkeeping between Predict and Update
	lastPC       uint64
	lastValid    bool
	lastProvider int // providing table index, -1 = base
	lastAltPred  bool
	lastPred     bool
}

// NewTage constructs a TAGE predictor.
func NewTage(cfg TageConfig) *Tage {
	t := &Tage{cfg: cfg}
	t.Reset()
	return t
}

// Name implements Predictor.
func (t *Tage) Name() string { return "tage" }

// Reset implements Predictor.
func (t *Tage) Reset() {
	t.base = NewBimodal(t.cfg.BaseBits)
	t.tables = nil
	for _, hl := range t.cfg.HistLengths {
		tb := tageTable{
			entries: make([]tageEntry, 1<<t.cfg.TableBits),
			histLen: hl,
			idxBits: t.cfg.TableBits,
			idxMask: 1<<t.cfg.TableBits - 1,
			tagMask: 1<<t.cfg.TagBits - 1,
		}
		tb.fIdx = newFolded(hl, tb.idxBits)
		tb.fTag1 = newFolded(hl, t.cfg.TagBits)
		tb.fTag2 = newFolded(hl, t.cfg.TagBits-1)
		t.tables = append(t.tables, tb)
	}
	maxLen := int(t.cfg.HistLengths[len(t.cfg.HistLengths)-1])
	t.hist = make([]uint8, maxLen+1)
	t.head = 0
	t.histLen = maxLen + 1
	t.allocFailures = 0
	t.lastValid = false
}

// histBit returns the history bit `age` branches ago (age >= 1). Every
// table's age is below histLen, so the wrap loop adds histLen at most
// once: a compare and an add instead of a division.
func (t *Tage) histBit(age uint) uint64 {
	i := t.head - int(age)
	for i < 0 {
		i += t.histLen
	}
	return uint64(t.hist[i])
}

func (t *Tage) pushHistory(taken bool) {
	var b uint8
	if taken {
		b = 1
	}
	newBit := uint64(b)
	for i := range t.tables {
		tb := &t.tables[i]
		oldBit := t.histBit(tb.histLen) // bit falling out of this table's window
		tb.fIdx.update(newBit, oldBit)
		tb.fTag1.update(newBit, oldBit)
		tb.fTag2.update(newBit, oldBit)
	}
	t.hist[t.head] = b
	if t.head++; t.head == t.histLen {
		t.head = 0
	}
}

func (tb *tageTable) indexAndTag(pc uint64) (uint64, uint32) {
	idx := ((pc >> 2) ^ (pc >> (2 + tb.idxBits)) ^ tb.fIdx.value) & tb.idxMask
	tag := uint32(((pc >> 2) ^ tb.fTag1.value ^ (tb.fTag2.value << 1)) & tb.tagMask)
	return idx, tag
}

// Predict implements Predictor.
func (t *Tage) Predict(pc uint64) bool {
	t.lastPC = pc
	t.lastValid = true
	t.lastProvider = -1
	basePred := t.base.Predict(pc)
	t.lastAltPred = basePred
	pred := basePred

	altFound := false
	for ti := len(t.tables) - 1; ti >= 0; ti-- {
		tb := &t.tables[ti]
		idx, tag := tb.indexAndTag(pc)
		tb.lastIdx, tb.lastTag = idx, tag
		e := &tb.entries[idx]
		if e.tag == tag {
			if t.lastProvider == -1 {
				t.lastProvider = ti
				pred = e.ctr >= 0
			} else if !altFound {
				t.lastAltPred = e.ctr >= 0
				altFound = true
			}
		}
	}
	t.lastPred = pred
	return pred
}

// Update implements Predictor. It must be called once per branch after
// Predict; calling it standalone recomputes the prediction context first.
func (t *Tage) Update(pc uint64, taken bool) {
	if !t.lastValid || t.lastPC != pc {
		t.Predict(pc)
	}
	t.lastValid = false

	correct := t.lastPred == taken
	if t.lastProvider >= 0 {
		tb := &t.tables[t.lastProvider]
		e := &tb.entries[tb.lastIdx]
		if (e.ctr >= 0) == taken && t.lastAltPred != taken {
			if e.useful < 3 {
				e.useful++
			}
		}
		if (e.ctr >= 0) != taken && t.lastAltPred == taken && e.useful > 0 {
			e.useful--
		}
		e.ctr = satUpdate3(e.ctr, taken)
	} else {
		t.base.Update(pc, taken)
	}

	// On a misprediction, allocate an entry in a longer-history table.
	if !correct && t.lastProvider < len(t.tables)-1 {
		allocated := false
		for ti := t.lastProvider + 1; ti < len(t.tables); ti++ {
			tb := &t.tables[ti]
			e := &tb.entries[tb.lastIdx]
			if e.useful == 0 {
				e.tag = tb.lastTag
				if taken {
					e.ctr = 0
				} else {
					e.ctr = -1
				}
				allocated = true
				break
			}
		}
		if !allocated {
			t.allocFailures++
			// Periodically age usefulness so the predictor can adapt.
			if t.allocFailures >= 32 {
				t.allocFailures = 0
				for ti := range t.tables {
					tb := &t.tables[ti]
					for i := range tb.entries {
						if tb.entries[i].useful > 0 {
							tb.entries[i].useful--
						}
					}
				}
			}
		}
	}

	t.pushHistory(taken)
}

func satUpdate3(c int8, taken bool) int8 {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > -4 {
		return c - 1
	}
	return c
}
