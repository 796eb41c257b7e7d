package bpred

// Checkpoint serialization for the predictors. A resumed cycle-exact
// simulation only reproduces bit-identical cycle counts if the branch
// predictor resumes with exactly the tables and history it had at the
// snapshot, so Save captures everything Predict/Update read: counter
// tables, global history (including the folded-history registers TAGE
// maintains incrementally), and the usefulness-aging counter. The
// Predict→Update bookkeeping (lastPC et al.) is deliberately excluded:
// checkpoints fire between retired instructions, and every Predict is
// consumed by its Update within a single instruction's charge, so that
// state is always dead at a snapshot; Restore just invalidates it.

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// Save implements Predictor. StaticTaken has no state.
func (StaticTaken) Save() ([]byte, error) { return nil, nil }

// Restore implements Predictor.
func (StaticTaken) Restore(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("bpred: static predictor restore with %d bytes of state", len(data))
	}
	return nil
}

type bimodalState struct {
	Table []uint8
}

// Save implements Predictor.
func (b *Bimodal) Save() ([]byte, error) {
	st := bimodalState{Table: make([]uint8, len(b.table))}
	for i, c := range b.table {
		st.Table[i] = uint8(c)
	}
	return gobEncode(&st)
}

// Restore implements Predictor.
func (b *Bimodal) Restore(data []byte) error {
	var st bimodalState
	if err := gobDecode(data, &st); err != nil {
		return fmt.Errorf("bpred: bimodal restore: %w", err)
	}
	if len(st.Table) != len(b.table) {
		return fmt.Errorf("bpred: bimodal restore: %d entries, want %d", len(st.Table), len(b.table))
	}
	if err := checkCounters(st.Table); err != nil {
		return fmt.Errorf("bpred: bimodal restore: %w", err)
	}
	for i, v := range st.Table {
		b.table[i] = counter(v)
	}
	return nil
}

// checkCounters rejects 2-bit counter tables holding values above 3.
func checkCounters(table []uint8) error {
	for i, v := range table {
		if v > 3 {
			return fmt.Errorf("counter %d holds %d, want 0..3", i, v)
		}
	}
	return nil
}

type gshareState struct {
	Table   []uint8
	History uint64
}

// Save implements Predictor.
func (g *Gshare) Save() ([]byte, error) {
	st := gshareState{Table: make([]uint8, len(g.table)), History: g.history}
	for i, c := range g.table {
		st.Table[i] = uint8(c)
	}
	return gobEncode(&st)
}

// Restore implements Predictor.
func (g *Gshare) Restore(data []byte) error {
	var st gshareState
	if err := gobDecode(data, &st); err != nil {
		return fmt.Errorf("bpred: gshare restore: %w", err)
	}
	if len(st.Table) != len(g.table) {
		return fmt.Errorf("bpred: gshare restore: %d entries, want %d", len(st.Table), len(g.table))
	}
	if err := checkCounters(st.Table); err != nil {
		return fmt.Errorf("bpred: gshare restore: %w", err)
	}
	if st.History > 1<<g.bits-1 {
		return fmt.Errorf("bpred: gshare restore: history %#x wider than %d bits", st.History, g.bits)
	}
	for i, v := range st.Table {
		g.table[i] = counter(v)
	}
	g.history = st.History
	return nil
}

type tageEntryState struct {
	Ctr    int8
	Tag    uint32
	Useful uint8
}

type tageTableState struct {
	Entries []tageEntryState
	FIdx    uint64
	FTag1   uint64
	FTag2   uint64
}

type tageState struct {
	Base          []uint8
	Tables        []tageTableState
	Hist          []uint8
	Head          int
	AllocFailures int
}

// Save implements Predictor.
func (t *Tage) Save() ([]byte, error) {
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
	for i := range t.tables {
		tb := &t.tables[i]
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

// Restore implements Predictor. The snapshot is checked in full before
// anything is installed: a history head or bit outside the buffer, a
// folded register wider than its fold, or a counter outside its range is
// rejected, so a corrupt snapshot errors here instead of panicking (or
// silently mis-predicting) later, and leaves the predictor as it was.
func (t *Tage) Restore(data []byte) error {
	var st tageState
	if err := gobDecode(data, &st); err != nil {
		return fmt.Errorf("bpred: tage restore: %w", err)
	}
	if err := t.checkState(&st); err != nil {
		return fmt.Errorf("bpred: tage restore: %w", err)
	}
	if err := t.base.Restore(st.Base); err != nil {
		return err
	}
	for ti, ts := range st.Tables {
		tb := &t.tables[ti]
		for i, e := range ts.Entries {
			tb.entries[i] = tageEntry{ctr: e.Ctr, tag: e.Tag, useful: e.Useful}
		}
		tb.fIdx.value = ts.FIdx
		tb.fTag1.value = ts.FTag1
		tb.fTag2.value = ts.FTag2
	}
	copy(t.hist, st.Hist)
	t.head = st.Head
	t.allocFailures = st.AllocFailures
	t.lastValid = false
	return nil
}

// checkState validates a decoded snapshot against this predictor's shape
// and value ranges.
func (t *Tage) checkState(st *tageState) error {
	if len(st.Tables) != len(t.tables) {
		return fmt.Errorf("%d tables, want %d", len(st.Tables), len(t.tables))
	}
	if len(st.Hist) != len(t.hist) {
		return fmt.Errorf("history length %d, want %d", len(st.Hist), len(t.hist))
	}
	if st.Head < 0 || st.Head >= len(t.hist) {
		return fmt.Errorf("history head %d outside [0, %d)", st.Head, len(t.hist))
	}
	for i, b := range st.Hist {
		if b > 1 {
			return fmt.Errorf("history bit %d holds %d", i, b)
		}
	}
	if st.AllocFailures < 0 || st.AllocFailures >= 32 {
		return fmt.Errorf("allocation-failure count %d outside [0, 32)", st.AllocFailures)
	}
	var base bimodalState
	if err := gobDecode(st.Base, &base); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	if len(base.Table) != len(t.base.table) {
		return fmt.Errorf("base: %d entries, want %d", len(base.Table), len(t.base.table))
	}
	if err := checkCounters(base.Table); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	for ti, ts := range st.Tables {
		tb := &t.tables[ti]
		if len(ts.Entries) != len(tb.entries) {
			return fmt.Errorf("table %d has %d entries, want %d", ti, len(ts.Entries), len(tb.entries))
		}
		if ts.FIdx > tb.fIdx.mask || ts.FTag1 > tb.fTag1.mask || ts.FTag2 > tb.fTag2.mask {
			return fmt.Errorf("table %d: folded history wider than its fold", ti)
		}
		for i, e := range ts.Entries {
			if e.Ctr < -4 || e.Ctr > 3 || e.Useful > 3 || uint64(e.Tag) > tb.tagMask {
				return fmt.Errorf("table %d entry %d out of range: %+v", ti, i, e)
			}
		}
	}
	return nil
}
