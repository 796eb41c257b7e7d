package bpred

import (
	"bytes"
	"math/rand"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/sim"
	"firemarshal/internal/workgen"
)

// refTageConfigs covers the default predictor, a small one whose tables
// alias heavily, and one whose history lengths are not multiples of any
// fold width.
var refTageConfigs = []TageConfig{
	DefaultTageConfig(),
	{BaseBits: 6, TableBits: 5, TagBits: 7, HistLengths: []uint{3, 9, 27}},
	{BaseBits: 8, TableBits: 7, TagBits: 9, HistLengths: []uint{7, 23, 61, 97, 201}},
}

// replayTage runs a branch stream through the optimized Tage and the
// frozen reference side by side: every prediction must agree, and both
// must end in the same Save bytes.
func replayTage(t *testing.T, cfg TageConfig, stream []branch) {
	t.Helper()
	opt, ref := NewTage(cfg), newRefTage(cfg)
	for i, br := range stream {
		if got, want := opt.Predict(br.pc), ref.Predict(br.pc); got != want {
			t.Fatalf("%v branch %d (pc %#x): predicts %v, reference %v", cfg.HistLengths, i, br.pc, got, want)
		}
		opt.Update(br.pc, br.taken)
		ref.Update(br.pc, br.taken)
	}
	got, err := opt.Save()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v: Save bytes differ from the reference's", cfg.HistLengths)
	}
}

func randomBranches(seed int64, n int) []branch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]branch, n)
	for i := range out {
		out[i] = branch{pc: uint64(rng.Intn(1<<14)) &^ 3, taken: rng.Intn(3) != 0}
	}
	return out
}

// intspeedBranches records one intspeed benchmark's conditional-branch
// stream (test dataset) on the reference stepper.
func intspeedBranches(t testing.TB, b workgen.Benchmark) []branch {
	t.Helper()
	exe, err := asm.Assemble(b.Source("test"), asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := sim.NewMachine()
	m.Devices = []sim.Device{&sim.UART{}}
	m.SyscallFn = sim.BareSyscalls()
	m.MaxInstrs = 50_000_000
	m.LoadExecutable(exe, sim.DefaultStackTop)
	var out []branch
	evs := make([]sim.Event, 4096)
	for !m.Halted {
		if _, err := m.RunBatch(evs, func(ev *sim.Event) uint64 {
			if ev.Instr.Op.IsBranch() {
				out = append(out, branch{pc: ev.PC, taken: ev.Taken})
			}
			return 1
		}); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestTageMatchesReference holds the optimized TAGE to the frozen
// reference on random and recorded branch streams.
func TestTageMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		stream := randomBranches(seed, 40_000)
		for _, cfg := range refTageConfigs {
			replayTage(t, cfg, stream)
		}
	}
	for _, b := range workgen.IntSpeedSuite() {
		t.Run(b.Name, func(t *testing.T) {
			stream := intspeedBranches(t, b)
			for _, cfg := range refTageConfigs {
				replayTage(t, cfg, stream)
			}
		})
	}
}

// TestRestoreRejectsCorruptState pins the decoder checks: each corrupted
// field of a valid snapshot must be refused, and the refusal must leave
// the predictor's prior state in place.
func TestRestoreRejectsCorruptState(t *testing.T) {
	warm := NewTage(DefaultTageConfig())
	for _, br := range randomBranches(4, 2000) {
		warm.Predict(br.pc)
		warm.Update(br.pc, br.taken)
	}
	good, err := warm.Save()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := map[string]func(st *tageState){
		"head-negative":  func(st *tageState) { st.Head = -1 },
		"head-past-end":  func(st *tageState) { st.Head = len(st.Hist) },
		"hist-bit":       func(st *tageState) { st.Hist[3] = 2 },
		"folded-idx":     func(st *tageState) { st.Tables[0].FIdx = 1 << 10 },
		"folded-tag2":    func(st *tageState) { st.Tables[2].FTag2 = 1 << 9 },
		"ctr":            func(st *tageState) { st.Tables[1].Entries[5].Ctr = 4 },
		"useful":         func(st *tageState) { st.Tables[1].Entries[5].Useful = 4 },
		"tag":            func(st *tageState) { st.Tables[3].Entries[0].Tag = 1 << 10 },
		"alloc-failures": func(st *tageState) { st.AllocFailures = 32 },
	}
	for name, mutate := range corrupt {
		t.Run(name, func(t *testing.T) {
			var st tageState
			if err := gobDecode(good, &st); err != nil {
				t.Fatal(err)
			}
			mutate(&st)
			bad, err := gobEncode(&st)
			if err != nil {
				t.Fatal(err)
			}
			p := NewTage(DefaultTageConfig())
			if err := p.Restore(good); err != nil {
				t.Fatal(err)
			}
			if err := p.Restore(bad); err == nil {
				t.Fatal("corrupt snapshot restored without error")
			}
			after, err := p.Save()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, good) {
				t.Fatal("rejected restore changed the predictor's state")
			}
		})
	}

	g := NewGshare(12)
	data, err := gobEncode(&gshareState{Table: make([]uint8, 1<<12), History: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Restore(data); err == nil {
		t.Error("gshare restored a history wider than its table index")
	}
}

// FuzzTageRestore feeds arbitrary bytes to the TAGE and Gshare decoders:
// each must either reject them or leave a predictor that runs 1k random
// branches without panic.
func FuzzTageRestore(f *testing.F) {
	cfg := refTageConfigs[1]
	warm := NewTage(cfg)
	warmG := NewGshare(6)
	for _, br := range randomBranches(1, 3000) {
		warm.Predict(br.pc)
		warm.Update(br.pc, br.taken)
		warmG.Predict(br.pc)
		warmG.Update(br.pc, br.taken)
	}
	for _, p := range []Predictor{warm, warmG, NewTage(DefaultTageConfig())} {
		b, err := p.Save()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add([]byte{})
	run := randomBranches(2, 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range []Predictor{NewTage(cfg), NewGshare(6)} {
			if p.Restore(data) != nil {
				continue
			}
			for _, br := range run {
				p.Predict(br.pc)
				p.Update(br.pc, br.taken)
			}
		}
	})
}

// BenchmarkTageReplay replays the intspeed suite's recorded branch
// streams through the frozen reference and the optimized TAGE, one
// Predict+Update per branch, so the two are measured in one process on
// the same stream. ns/op is per branch.
func BenchmarkTageReplay(b *testing.B) {
	var stream []branch
	for _, bm := range workgen.IntSpeedSuite() {
		stream = append(stream, intspeedBranches(b, bm)...)
	}
	cfg := DefaultTageConfig()
	run := func(b *testing.B, p Predictor) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			br := stream[i%len(stream)]
			p.Predict(br.pc)
			p.Update(br.pc, br.taken)
		}
	}
	b.Run("reference", func(b *testing.B) { run(b, refPredictor{newRefTage(cfg)}) })
	b.Run("optimized", func(b *testing.B) { run(b, NewTage(cfg)) })
}

// refPredictor gives the frozen reference the Predictor interface, so
// both sides of BenchmarkTageReplay pay the same dispatch.
type refPredictor struct{ *refTage }

func (refPredictor) Restore([]byte) error { return nil }
