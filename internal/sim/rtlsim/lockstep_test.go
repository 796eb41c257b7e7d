package rtlsim

import (
	"bytes"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
	"firemarshal/internal/workgen"
)

// The timing lockstep: the production path (the predecoded fast loop
// writing retire records, charged in batches by chargeRun) against the
// timing reference (RunBatch stepping StepInto and charging every Event).
// The reference's Now after every retired instruction is kept; every time
// the production path brings Now up to date — a full record buffer, a
// flush before a slow-path instruction, a slow-path charge, a checkpoint —
// its Now must equal the reference's at the same retired count. Final
// statistics, exit code, console and Exec's own result must match too.

// lockstepCase is one platform configuration for the lockstep.
type lockstepCase struct {
	name string
	cfg  Config
	// setup installs devices or hooks on a fresh platform.
	setup func(p *Platform)
	// ckptEvery arms a checkpoint callback every that many instructions
	// on both machines; the timing-model state must match at each.
	ckptEvery uint64
	// fallback is set when the configuration must leave the fast loop
	// (hooks, fault injection): no record batch may ever be charged.
	fallback bool
}

// boundary is a point where a run's Now is up to date.
type boundary struct{ instret, now uint64 }

// ckptSnap is what a checkpoint would capture of the timing model.
type ckptSnap struct {
	instret, now uint64
	extra        []byte
}

type lockstepRun struct {
	m       *sim.Machine
	p       *Platform
	console bytes.Buffer
	err     error
	snaps   []ckptSnap
}

func newLockstepRun(t testing.TB, c lockstepCase, exe *isa.Executable) *lockstepRun {
	t.Helper()
	p, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.setup != nil {
		c.setup(p)
	}
	r := &lockstepRun{p: p}
	r.m = p.newMachine(exe, &r.console, nil)
	if c.ckptEvery != 0 {
		r.m.CkptEvery = c.ckptEvery
		r.m.CkptFn = func(m *sim.Machine) error {
			extra, err := p.saveExtra()
			if err != nil {
				return err
			}
			r.snaps = append(r.snaps, ckptSnap{m.Instret, m.Now, extra["rtlsim"]})
			return nil
		}
	}
	return r
}

func lockstep(t testing.TB, c lockstepCase, src string) {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}

	// Reference: RunBatch + charge, Now recorded after every instruction.
	ref := newLockstepRun(t, c, exe)
	var nowAt []uint64 // nowAt[i] = Now once i+1 instructions retired
	evs := make([]sim.Event, 4096)
	for !ref.m.Halted {
		if _, ref.err = ref.m.RunBatch(evs, func(ev *sim.Event) uint64 {
			cost := ref.p.charge(ev)
			nowAt = append(nowAt, ref.m.Now+cost)
			return cost
		}); ref.err != nil {
			break
		}
	}

	// Production: RunTimed, with both charges wrapped to log boundaries.
	prod := newLockstepRun(t, c, exe)
	var bounds []boundary
	batches := 0
	chargeRun := func(rs []sim.Retire) uint64 {
		cost := prod.p.chargeRun(rs)
		batches++
		bounds = append(bounds, boundary{prod.m.Instret, prod.m.Now + cost})
		return cost
	}
	charge := func(ev *sim.Event) uint64 {
		cost := prod.p.charge(ev)
		bounds = append(bounds, boundary{prod.m.Instret, prod.m.Now + cost})
		return cost
	}
	prod.err = prod.m.RunTimed(make([]sim.Retire, recordBatch), chargeRun, charge)

	if c.fallback && batches != 0 {
		t.Fatalf("%s: %d record batches charged, want the reference fallback", c.name, batches)
	}
	if !c.fallback && batches == 0 {
		t.Fatalf("%s: no record batch charged; the fast loop never ran", c.name)
	}
	for _, b := range bounds {
		if b.instret == 0 {
			continue
		}
		if b.instret > uint64(len(nowAt)) {
			t.Fatalf("%s: production boundary at instruction %d, past the reference's %d", c.name, b.instret, len(nowAt))
		}
		if want := nowAt[b.instret-1]; b.now != want {
			t.Fatalf("%s: at instruction %d production Now = %d, reference %d", c.name, b.instret, b.now, want)
		}
	}
	if (ref.err == nil) != (prod.err == nil) || (ref.err != nil && ref.err.Error() != prod.err.Error()) {
		t.Fatalf("%s: error divergence: reference %v, production %v", c.name, ref.err, prod.err)
	}
	if ref.m.Now != prod.m.Now || ref.m.Instret != prod.m.Instret {
		t.Fatalf("%s: final Now/Instret %d/%d, reference %d/%d", c.name, prod.m.Now, prod.m.Instret, ref.m.Now, ref.m.Instret)
	}
	if ref.p.stats != prod.p.stats {
		t.Fatalf("%s: stats diverge:\nproduction %+v\nreference  %+v", c.name, prod.p.stats, ref.p.stats)
	}
	if ref.m.ExitCode != prod.m.ExitCode || ref.m.Snap() != prod.m.Snap() {
		t.Fatalf("%s: architectural divergence: exit %d vs %d", c.name, prod.m.ExitCode, ref.m.ExitCode)
	}
	if !bytes.Equal(ref.console.Bytes(), prod.console.Bytes()) {
		t.Fatalf("%s: console %q, reference %q", c.name, prod.console.String(), ref.console.String())
	}
	if len(ref.snaps) != len(prod.snaps) {
		t.Fatalf("%s: %d checkpoints, reference %d", c.name, len(prod.snaps), len(ref.snaps))
	}
	for i, s := range ref.snaps {
		ps := prod.snaps[i]
		if ps.instret != s.instret || ps.now != s.now || !bytes.Equal(ps.extra, s.extra) {
			t.Fatalf("%s: checkpoint %d at %d/%d differs from the reference's at %d/%d (timing state equal: %v)",
				c.name, i, ps.instret, ps.now, s.instret, s.now, bytes.Equal(ps.extra, s.extra))
		}
	}

	// Exec itself, end to end, must land on the reference's numbers.
	if c.ckptEvery != 0 {
		return // Exec checkpoints only through a checkpoint.Runtime
	}
	p, err := New(c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.setup != nil {
		c.setup(p)
	}
	var out bytes.Buffer
	res, err := p.Exec(exe, &out)
	if ref.err != nil {
		if err == nil || err.Error() != "rtlsim: "+ref.err.Error() {
			t.Fatalf("%s: Exec error %v, reference %v", c.name, err, ref.err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: Exec: %v", c.name, err)
	}
	if res.Cycles != ref.m.Now || res.Instrs != ref.m.Instret || res.Exit != ref.m.ExitCode {
		t.Fatalf("%s: Exec %+v, reference cycles %d instrs %d exit %d", c.name, *res, ref.m.Now, ref.m.Instret, ref.m.ExitCode)
	}
	want := ref.p.stats
	want.Instrs, want.Cycles = ref.m.Instret, ref.m.Now
	if p.Stats() != want {
		t.Fatalf("%s: Exec stats %+v, reference %+v", c.name, p.Stats(), want)
	}
	if !bytes.Equal(out.Bytes(), ref.console.Bytes()) {
		t.Fatalf("%s: Exec console %q, reference %q", c.name, out.String(), ref.console.String())
	}
}

func predictorCase(pred string) lockstepCase {
	cfg := DefaultConfig()
	cfg.Predictor = pred
	return lockstepCase{name: pred, cfg: cfg}
}

// stallHook charges extra cycles on every data access, so the hooked run
// exercises Event.Extra on the reference fallback.
type stallHook struct{}

func (stallHook) BeforeAccess(_ *sim.Machine, addr uint64, store bool) (uint64, error) {
	if store {
		return addr & 7, nil
	}
	return 1, nil
}

// TestCycleExactLockstepIntSpeed runs every intspeed benchmark (test
// dataset) on both predictors through both paths.
func TestCycleExactLockstepIntSpeed(t *testing.T) {
	for _, b := range workgen.IntSpeedSuite() {
		t.Run(b.Name, func(t *testing.T) {
			src := b.Source("test")
			lockstep(t, predictorCase("gshare"), src)
			lockstep(t, predictorCase("tage"), src)
		})
	}
}

// TestCycleExactLockstepRandom covers workgen's random programs.
func TestCycleExactLockstepRandom(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		src := workgen.RandomSource(seed)
		lockstep(t, predictorCase("gshare"), src)
		lockstep(t, predictorCase("tage"), src)
	}
}

// TestCycleExactLockstepConfigs covers the configurations that change
// how the loop runs: checkpoint boundaries, a tight instruction limit,
// a stall device, and the two that must fall back to the reference —
// a stuck-at fault and a memory hook.
func TestCycleExactLockstepConfigs(t *testing.T) {
	src := workgen.IntSpeedSuite()[0].Source("test")
	ckpt := predictorCase("tage")
	ckpt.name, ckpt.ckptEvery = "checkpoint", 777
	limit := predictorCase("gshare")
	limit.name, limit.cfg.MaxInstrs = "instr-limit", 5000
	fault := predictorCase("tage")
	fault.name, fault.cfg.FaultMask, fault.fallback = "fault-mask", 0x10, true
	hooked := predictorCase("gshare")
	hooked.name, hooked.fallback = "hooked", true
	hooked.setup = func(p *Platform) { p.AddHook(stallHook{}) }
	for _, c := range []lockstepCase{ckpt, limit, fault, hooked} {
		t.Run(c.name, func(t *testing.T) { lockstep(t, c, src) })
	}

	stall := predictorCase("tage")
	stall.name = "stall-device"
	stall.setup = func(p *Platform) { p.AddDevice(&stallDevice{stall: 50}) }
	t.Run(stall.name, func(t *testing.T) {
		lockstep(t, stall, `
_start:
    li s0, 300
    li t0, 0x60000000
loop:
    ld t1, 0(t0)
    rdcycle t2
    add a0, a0, t2
    addi s0, s0, -1
    bnez s0, loop
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`)
	})
}

// FuzzCycleExactVsReference is the timing lockstep's fuzz target, seeded
// like FuzzFastVsReference: seeds index workgen's random-program
// generator, and the property is the lockstep above on both predictors.
func FuzzCycleExactVsReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1337, 0xdead, 1 << 40, 0x77ace, 0xbeef, 99, 1 << 33} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := workgen.RandomSource(seed)
		lockstep(t, predictorCase("gshare"), src)
		lockstep(t, predictorCase("tage"), src)
	})
}
