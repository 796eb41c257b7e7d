package bpred

// A frozen copy of the TAGE predictor as it stood before the folded
// registers precomputed their rotate amounts and masks. It is the oracle
// TestTageMatchesReference replays streams against: the optimized Tage
// must make every prediction, and end in exactly the Save bytes, this
// copy does. Do not optimize or fix this file; it exists to stay still.

type refTageEntry struct {
	ctr    int8 // 3-bit signed counter, -4..3; >=0 predicts taken
	tag    uint32
	useful uint8 // 2-bit usefulness
}

// refFolded is an incrementally maintained refFolded-history register.
type refFolded struct {
	value   uint64
	origLen uint // history length being refFolded
	width   uint // refFolded width in bits
}

func (f *refFolded) update(newBit, oldBit uint64) {
	f.value = (f.value << 1) | newBit
	f.value ^= oldBit << (f.origLen % f.width)
	f.value ^= f.value >> f.width
	f.value &= 1<<f.width - 1
}

type refTageTable struct {
	entries []refTageEntry
	histLen uint
	idxBits uint
	tagBits uint
	fIdx    refFolded
	fTag1   refFolded
	fTag2   refFolded
}

// refTage is the predictor state.
type refTage struct {
	cfg    TageConfig
	base   *Bimodal
	tables []*refTageTable

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
	lastIndices  []uint64
	lastTags     []uint32
}

// newRefTage constructs a TAGE predictor.
func newRefTage(cfg TageConfig) *refTage {
	t := &refTage{cfg: cfg}
	t.Reset()
	return t
}

// Name implements Predictor.
func (t *refTage) Name() string { return "tage" }

// Reset implements Predictor.
func (t *refTage) Reset() {
	t.base = NewBimodal(t.cfg.BaseBits)
	t.tables = nil
	for _, hl := range t.cfg.HistLengths {
		tb := &refTageTable{
			entries: make([]refTageEntry, 1<<t.cfg.TableBits),
			histLen: hl,
			idxBits: t.cfg.TableBits,
			tagBits: t.cfg.TagBits,
		}
		tb.fIdx = refFolded{origLen: hl, width: tb.idxBits}
		tb.fTag1 = refFolded{origLen: hl, width: tb.tagBits}
		tb.fTag2 = refFolded{origLen: hl, width: tb.tagBits - 1}
		t.tables = append(t.tables, tb)
	}
	maxLen := int(t.cfg.HistLengths[len(t.cfg.HistLengths)-1])
	t.hist = make([]uint8, maxLen+1)
	t.head = 0
	t.histLen = maxLen + 1
	t.allocFailures = 0
	t.lastIndices = make([]uint64, len(t.tables))
	t.lastTags = make([]uint32, len(t.tables))
	t.lastValid = false
}

// histBit returns the history bit `age` branches ago (age >= 1).
func (t *refTage) histBit(age uint) uint64 {
	i := (t.head - int(age) + t.histLen*2) % t.histLen
	return uint64(t.hist[i])
}

func (t *refTage) pushHistory(taken bool) {
	var b uint8
	if taken {
		b = 1
	}
	newBit := uint64(b)
	for _, tb := range t.tables {
		oldBit := t.histBit(tb.histLen) // bit falling out of this table's window
		tb.fIdx.update(newBit, oldBit)
		tb.fTag1.update(newBit, oldBit)
		tb.fTag2.update(newBit, oldBit)
	}
	t.hist[t.head] = b
	t.head = (t.head + 1) % t.histLen
}

func (tb *refTageTable) indexAndTag(pc uint64) (uint64, uint32) {
	idx := ((pc >> 2) ^ (pc >> (2 + tb.idxBits)) ^ tb.fIdx.value) & (1<<tb.idxBits - 1)
	tag := uint32(((pc >> 2) ^ tb.fTag1.value ^ (tb.fTag2.value << 1)) & (1<<tb.tagBits - 1))
	return idx, tag
}

// Predict implements Predictor.
func (t *refTage) Predict(pc uint64) bool {
	t.lastPC = pc
	t.lastValid = true
	t.lastProvider = -1
	basePred := t.base.Predict(pc)
	t.lastAltPred = basePred
	pred := basePred

	altFound := false
	for ti := len(t.tables) - 1; ti >= 0; ti-- {
		idx, tag := t.tables[ti].indexAndTag(pc)
		t.lastIndices[ti], t.lastTags[ti] = idx, tag
		e := &t.tables[ti].entries[idx]
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
func (t *refTage) Update(pc uint64, taken bool) {
	if !t.lastValid || t.lastPC != pc {
		t.Predict(pc)
	}
	t.lastValid = false

	correct := t.lastPred == taken
	if t.lastProvider >= 0 {
		tb := t.tables[t.lastProvider]
		e := &tb.entries[t.lastIndices[t.lastProvider]]
		if (e.ctr >= 0) == taken && t.lastAltPred != taken {
			if e.useful < 3 {
				e.useful++
			}
		}
		if (e.ctr >= 0) != taken && t.lastAltPred == taken && e.useful > 0 {
			e.useful--
		}
		e.ctr = refSatUpdate3(e.ctr, taken)
	} else {
		t.base.Update(pc, taken)
	}

	// On a misprediction, allocate an entry in a longer-history table.
	if !correct && t.lastProvider < len(t.tables)-1 {
		allocated := false
		for ti := t.lastProvider + 1; ti < len(t.tables); ti++ {
			e := &t.tables[ti].entries[t.lastIndices[ti]]
			if e.useful == 0 {
				e.tag = t.lastTags[ti]
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
				for _, tb := range t.tables {
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

func refSatUpdate3(c int8, taken bool) int8 {
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

// Save serializes the reference predictor in the Tage checkpoint format.
func (t *refTage) Save() ([]byte, error) {
	st := tageState{
		Hist:          append([]uint8(nil), t.hist...),
		Head:          t.head,
		AllocFailures: t.allocFailures,
	}
	baseBytes, err := t.base.Save()
	if err != nil {
		return nil, err
	}
	st.Base = baseBytes
	for _, tb := range t.tables {
		ts := tageTableState{
			Entries: make([]tageEntryState, len(tb.entries)),
			FIdx:    tb.fIdx.value,
			FTag1:   tb.fTag1.value,
			FTag2:   tb.fTag2.value,
		}
		for i, e := range tb.entries {
			ts.Entries[i] = tageEntryState{Ctr: e.ctr, Tag: e.tag, Useful: e.useful}
		}
		st.Tables = append(st.Tables, ts)
	}
	return gobEncode(&st)
}
