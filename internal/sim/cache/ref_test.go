package cache

import (
	"bytes"
	"math/rand"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/sim"
	"firemarshal/internal/workgen"
)

// refConfigs spans the geometries the optimized lookup must get right:
// the default L1s, a direct-mapped cache, a single fully associative set,
// and a small 2-way cache that thrashes.
var refConfigs = []Config{
	DefaultL1I(),
	{SizeBytes: 4 << 10, LineBytes: 32, Ways: 1},
	{SizeBytes: 1 << 10, LineBytes: 64, Ways: 16},
	{SizeBytes: 1 << 10, LineBytes: 16, Ways: 2},
}

// replayBoth feeds addrs through the optimized cache and the frozen
// reference side by side, failing on the first differing hit/miss, and
// then requires identical statistics and identical Save bytes.
func replayBoth(t *testing.T, cfg Config, addrs []uint64) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefCache(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range addrs {
		if got, want := c.Access(a), ref.Access(a); got != want {
			t.Fatalf("%+v access %d (%#x): hit=%v, reference hit=%v", cfg, i, a, got, want)
		}
		if i == len(addrs)/2 {
			c.Reset()
			ref.Reset()
		}
	}
	if c.Hits != ref.Hits || c.Misses != ref.Misses {
		t.Fatalf("%+v stats %d/%d, reference %d/%d", cfg, c.Hits, c.Misses, ref.Hits, ref.Misses)
	}
	got, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v Save bytes differ from the reference's", cfg)
	}
}

// randomAddrs mixes runs of one line (the memo's case), strided walks and
// scattered addresses.
func randomAddrs(seed int64, n int) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, 0, n)
	for len(out) < n {
		base := uint64(rng.Intn(64 << 10))
		switch rng.Intn(3) {
		case 0:
			for k := rng.Intn(8); k >= 0; k-- {
				out = append(out, base+uint64(rng.Intn(64)))
			}
		case 1:
			for k := uint64(0); k < 16; k++ {
				out = append(out, base+k*uint64(8<<rng.Intn(6)))
			}
		default:
			out = append(out, base)
		}
	}
	return out[:n]
}

// intspeedAddrs records the instruction-fetch and data-address streams of
// one intspeed benchmark (test dataset) on the reference stepper.
func intspeedAddrs(t *testing.T, b workgen.Benchmark) (fetch, data []uint64) {
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
	evs := make([]sim.Event, 4096)
	for !m.Halted {
		if _, err := m.RunBatch(evs, func(ev *sim.Event) uint64 {
			fetch = append(fetch, ev.PC)
			if (ev.Instr.Op.IsLoad() || ev.Instr.Op.IsStore()) && !ev.MMIO {
				data = append(data, ev.MemAddr)
			}
			return 1
		}); err != nil {
			t.Fatal(err)
		}
	}
	return fetch, data
}

// TestCacheMatchesReference holds the optimized cache to the frozen
// reference on random and recorded streams: same hits and misses, same
// statistics, same checkpoint bytes.
func TestCacheMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		addrs := randomAddrs(seed, 50_000)
		for _, cfg := range refConfigs {
			replayBoth(t, cfg, addrs)
		}
	}
	for _, b := range workgen.IntSpeedSuite() {
		t.Run(b.Name, func(t *testing.T) {
			fetch, data := intspeedAddrs(t, b)
			replayBoth(t, DefaultL1I(), fetch)
			replayBoth(t, DefaultL1D(), data)
			replayBoth(t, refConfigs[3], data)
		})
	}
}

// TestRestoreDropsMemo pins that a restore forgets the most-recent-line
// memo: the next access to the memoized line must search the restored
// state, where that line is absent.
func TestRestoreDropsMemo(t *testing.T) {
	c, err := New(DefaultL1D())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := c.Save()
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0x1000)
	if err := c.Restore(cold); err != nil {
		t.Fatal(err)
	}
	if c.Access(0x1000) {
		t.Fatal("access after restoring a cold cache hit a line the snapshot never held")
	}
}

// FuzzCacheRestore feeds arbitrary bytes to Restore: it must either
// reject them or leave a cache that serves 1k accesses without panic.
func FuzzCacheRestore(f *testing.F) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2}
	warm, err := New(cfg)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range randomAddrs(1, 2000) {
		warm.Access(a)
	}
	saved, err := warm.Save()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved)
	f.Add(saved[:len(saved)/2])
	f.Add([]byte{})
	other, err := New(DefaultL1D())
	if err != nil {
		f.Fatal(err)
	}
	if b, err := other.Save(); err == nil {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if c.Restore(data) != nil {
			return
		}
		for _, a := range randomAddrs(2, 1000) {
			c.Access(a)
		}
	})
}
