// Package rtlsim implements the cycle-exact simulation platform — the role
// FireSim plays in FireMarshal's workflow (§II-A.3): slow, deterministic,
// cycle-accurate execution of the exact same artifacts that ran in
// functional simulation. The timing model is a scalar in-order core with L1
// instruction/data caches, a configurable branch predictor (Gshare or TAGE,
// §IV-B), multiplier/divider latencies, and MMIO device timing; multi-node
// workloads share a netsim fabric.
//
// Cycle counts are bit-identical across repeated runs of the same workload
// — the determinism the education case study (§IV-C) relies on: "repeatable
// results down to an exact cycle-count".
package rtlsim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/bpred"
	"firemarshal/internal/sim/cache"
)

// Config parameterizes the timing model. The zero value is not usable; call
// DefaultConfig and override.
type Config struct {
	// Predictor selects the branch predictor: "bimodal", "gshare", "tage",
	// or "static".
	Predictor string
	// ICache / DCache configure the L1 caches.
	ICache cache.Config
	DCache cache.Config
	// Penalties and latencies, in cycles.
	BranchMissPenalty uint64
	JalrPenalty       uint64
	ICacheMissPenalty uint64
	DCacheMissPenalty uint64
	MMIOLatency       uint64
	MulLatency        uint64
	DivLatency        uint64
	SyscallPenalty    uint64
	// FreqMHz converts cycles to wall-clock time in reports.
	FreqMHz uint64
	// MaxInstrs bounds each Exec (default 500M).
	MaxInstrs uint64
	// FaultMask, when nonzero, injects a deterministic stuck-at fault:
	// results of FaultOp instructions have these bits forced high —
	// modelling defective silicon for post-tapeout bring-up triage (§VI).
	FaultMask uint64
	// FaultOp selects the instruction class the fault affects
	// (default OpMUL when FaultMask is set).
	FaultOp isa.Op
	// Stop is the cooperative kill switch threaded into each machine (see
	// sim.Machine.Stop); polled between instruction batches and after
	// slow-path instructions, so a killed job stops within recordBatch
	// retired instructions (4096 on the reference fallback).
	Stop <-chan struct{}
	// Ckpt, when set, records completed Execs and snapshots machine plus
	// timing-model state (predictor tables, cache tags, statistics) at
	// deterministic instruction boundaries, so an interrupted simulation
	// resumes with bit-identical cycle counts (see internal/checkpoint).
	Ckpt *checkpoint.Runtime
	// Obs is the registry sim_rtlsim_* metrics report into; nil resolves
	// to the process-wide obs.Default.
	Obs *obs.Registry
}

// DefaultConfig models a BOOM-like core at 1 GHz with 16KiB L1 caches.
func DefaultConfig() Config {
	return Config{
		Predictor:         "tage",
		ICache:            cache.DefaultL1I(),
		DCache:            cache.DefaultL1D(),
		BranchMissPenalty: 8,
		JalrPenalty:       2,
		ICacheMissPenalty: 20,
		DCacheMissPenalty: 30,
		MMIOLatency:       10,
		MulLatency:        4,
		DivLatency:        20,
		SyscallPenalty:    30,
		FreqMHz:           1000,
		MaxInstrs:         500_000_000,
	}
}

// recordBatch is the length of the retire-record buffer: how many
// instructions the fast loop retires before the timing model charges
// them in one call. A power of two small enough that the buffer stays in
// L1 between the write and the charge.
const recordBatch = 1024

// Stats accumulates timing statistics across a platform's executions.
type Stats struct {
	Cycles       uint64
	Instrs       uint64
	Branches     uint64
	Mispredicts  uint64
	ICacheHits   uint64
	ICacheMisses uint64
	DCacheHits   uint64
	DCacheMisses uint64
	MMIOAccesses uint64
	Syscalls     uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instrs) / float64(s.Cycles)
}

// MispredictRate returns mispredicted branches / branches.
func (s Stats) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// Platform is one cycle-exact simulation node.
type Platform struct {
	cfg       Config
	pred      bpred.Predictor
	icache    *cache.Cache
	dcache    *cache.Cache
	cycles    uint64
	devices   []sim.Device
	hooks     []sim.MemHook
	fallbacks []sim.SyscallFallback

	// NodeName identifies this node on the network fabric.
	NodeName string

	stats Stats
	// opCost is each opcode's fixed cycle cost under cfg (opCosts).
	opCost [256]uint64
	// recs is the retire-record buffer, reused across Execs.
	recs []sim.Retire
}

var _ sim.Platform = (*Platform)(nil)

// New builds a cycle-exact platform.
func New(cfg Config) (*Platform, error) {
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 500_000_000
	}
	// charge() bills multiply/divide ops as latency-1 on top of the base
	// cycle; a user config with a zero latency would wrap uint64. Clamp to
	// the 1-cycle minimum a real pipeline pays.
	if cfg.MulLatency == 0 {
		cfg.MulLatency = 1
	}
	if cfg.DivLatency == 0 {
		cfg.DivLatency = 1
	}
	pred, err := bpred.New(cfg.Predictor)
	if err != nil {
		return nil, err
	}
	ic, err := cache.New(cfg.ICache)
	if err != nil {
		return nil, fmt.Errorf("rtlsim: icache: %w", err)
	}
	dc, err := cache.New(cfg.DCache)
	if err != nil {
		return nil, fmt.Errorf("rtlsim: dcache: %w", err)
	}
	p := &Platform{cfg: cfg, pred: pred, icache: ic, dcache: dc}
	p.opCost = opCosts(&p.cfg)
	p.devices = []sim.Device{&sim.UART{}}
	if cfg.Ckpt != nil {
		cfg.Ckpt.SaveExtra = p.saveExtra
		cfg.Ckpt.RestoreExtra = p.restoreExtra
	}
	return p, nil
}

// Name implements sim.Platform.
func (p *Platform) Name() string { return "firesim" }

// CycleExact implements sim.Platform.
func (p *Platform) CycleExact() bool { return true }

// Cycles implements sim.Platform.
func (p *Platform) Cycles() uint64 { return p.cycles }

// Charge implements sim.Platform.
func (p *Platform) Charge(n uint64) { p.cycles += n }

// AddDevice implements sim.Platform.
func (p *Platform) AddDevice(d sim.Device) { p.devices = append(p.devices, d) }

// AddHook implements sim.Platform.
func (p *Platform) AddHook(h sim.MemHook) { p.hooks = append(p.hooks, h) }

// AddSyscall implements sim.Platform.
func (p *Platform) AddSyscall(fb sim.SyscallFallback) { p.fallbacks = append(p.fallbacks, fb) }

// Stats returns accumulated statistics.
func (p *Platform) Stats() Stats { return p.stats }

// Config returns the platform's timing configuration.
func (p *Platform) Config() Config { return p.cfg }

// extraState is the timing-model state a checkpoint carries beyond the
// machine's architectural state: everything charge() reads or writes.
type extraState struct {
	Pred   []byte
	ICache []byte
	DCache []byte
	Stats  Stats
}

// saveExtra serializes the timing model for a snapshot. Snapshots fire at
// batch boundaries, after every retired event has been charged, so the
// predictor is between branches (its Save precondition).
func (p *Platform) saveExtra() (map[string][]byte, error) {
	var st extraState
	var err error
	if st.Pred, err = p.pred.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: predictor: %w", err)
	}
	if st.ICache, err = p.icache.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: icache: %w", err)
	}
	if st.DCache, err = p.dcache.Save(); err != nil {
		return nil, fmt.Errorf("rtlsim: dcache: %w", err)
	}
	st.Stats = p.stats
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&st); err != nil {
		return nil, err
	}
	return map[string][]byte{"rtlsim": buf.Bytes()}, nil
}

// restoreExtra installs a snapshot's timing-model state wholesale. The
// platform must be configured identically to the one that saved.
func (p *Platform) restoreExtra(extra map[string][]byte) error {
	data, ok := extra["rtlsim"]
	if !ok {
		return fmt.Errorf("rtlsim: checkpoint carries no timing-model state")
	}
	var st extraState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("rtlsim: decoding timing-model state: %w", err)
	}
	if err := p.pred.Restore(st.Pred); err != nil {
		return fmt.Errorf("rtlsim: predictor: %w", err)
	}
	if err := p.icache.Restore(st.ICache); err != nil {
		return fmt.Errorf("rtlsim: icache: %w", err)
	}
	if err := p.dcache.Restore(st.DCache); err != nil {
		return fmt.Errorf("rtlsim: dcache: %w", err)
	}
	p.stats = st.Stats
	return nil
}

// newMachine builds the machine one Exec runs: the platform's devices,
// hooks and syscall fallbacks, the instruction limit, the configured
// stuck-at fault, and the executable loaded with its argv. A nil console
// discards guest output.
func (p *Platform) newMachine(exe *isa.Executable, console io.Writer, args []string) *sim.Machine {
	m := sim.NewMachine()
	if console != nil {
		m.Console = console
	}
	m.Devices = p.devices
	m.Hooks = p.hooks
	fbs := make([]func(*sim.Machine, uint64) (bool, error), len(p.fallbacks))
	for i, fb := range p.fallbacks {
		fbs[i] = fb
	}
	m.SyscallFn = sim.BareSyscalls(fbs...)
	m.MaxInstrs = p.cfg.MaxInstrs
	if p.cfg.FaultMask != 0 {
		faultOp := p.cfg.FaultOp
		if faultOp == isa.OpInvalid {
			faultOp = isa.OpMUL
		}
		mask := p.cfg.FaultMask
		m.TamperFn = func(pc uint64, op isa.Op, rd uint64) uint64 {
			if op == faultOp {
				return rd | mask
			}
			return rd
		}
	}
	m.LoadExecutable(exe, sim.DefaultStackTop)
	sim.SetupArgv(m, args)
	return m
}

// Exec implements sim.Platform: run the executable cycle-exactly. With
// checkpointing enabled, execs a crashed attempt already completed replay
// from their records (charging the recorded cycles), and the crashed
// attempt's in-flight exec restores machine and timing-model state from
// its latest snapshot — the resumed run's cycle counts are bit-identical
// to an uninterrupted run's.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	ck := p.cfg.Ckpt
	var sig string
	if ck != nil {
		if len(p.hooks) > 0 {
			return nil, fmt.Errorf("rtlsim: checkpointing is incompatible with memory hooks")
		}
		sig = checkpoint.ExecSig(exe.Entry, args)
		if rec, out, ok, err := ck.ReplayNext(sig); err != nil {
			return nil, fmt.Errorf("rtlsim: %w", err)
		} else if ok {
			if console != nil {
				if _, err := console.Write(out); err != nil {
					return nil, err
				}
			}
			// Statistics are not re-derived here: the in-flight restore
			// that always follows replay installs them wholesale.
			p.cycles += rec.Cycles
			return &sim.ExecResult{Exit: rec.Exit, Instrs: rec.Instrs, Cycles: rec.Cycles}, nil
		}
	}

	m := p.newMachine(exe, console, args)

	// Baselines predate BeginExec: a restore advances Instret and Now to
	// the snapshot boundary, and the deltas below must span the whole exec.
	startCycles := p.cycles
	startInstrs := m.Instret
	m.Now = p.cycles
	m.Stop = p.cfg.Stop
	if ck != nil {
		w, _, err := ck.BeginExec(sig, m, console)
		if err != nil {
			return nil, fmt.Errorf("rtlsim: %w", err)
		}
		m.Console = w
	}
	// Metric shards attach after any restore, so a resumed exec reports
	// only instructions it actually simulates; the run loops flush them at
	// batch boundaries.
	m.AttachObs(p.cfg.Obs.Counter("sim_rtlsim_instrs_total").Shard(),
		p.cfg.Obs.Counter("sim_rtlsim_cycles_total").Shard())
	wallStart := time.Now()
	// The predecoded fast loop retires instructions into retire records
	// and chargeRun bills each full buffer; anything that can observe
	// time first flushes the pending charge and then steps and charges
	// on the reference path (see sim.Machine.RunTimed). Charge order is
	// retirement order either way, so cycle counts are bit-identical to
	// per-instruction charging.
	if p.recs == nil {
		p.recs = make([]sim.Retire, recordBatch)
	}
	if err := m.RunTimed(p.recs, p.chargeRun, p.charge); err != nil {
		p.cycles = m.Now
		return nil, fmt.Errorf("rtlsim: %w", err)
	}
	p.cycles = m.Now
	instrs := m.Instret - startInstrs
	cycles := p.cycles - startCycles
	// A 0-duration exec produces +Inf here; Gauge.Set clamps it to 0.
	p.cfg.Obs.Gauge("sim_rtlsim_mips").Set(float64(instrs) / time.Since(wallStart).Seconds() / 1e6)
	p.stats.Instrs += instrs
	p.stats.Cycles += cycles
	if ck != nil {
		if err := ck.FinishExec(m.ExitCode, instrs, cycles); err != nil {
			return nil, fmt.Errorf("rtlsim: %w", err)
		}
	}
	return &sim.ExecResult{Exit: m.ExitCode, Instrs: instrs, Cycles: cycles}, nil
}

// Instruction kinds that consult a timing structure beyond the I-cache,
// indexed by opcode (opKind).
const (
	kindOther uint8 = iota
	kindBranch
	kindMem
)

var opKind = func() (t [256]uint8) {
	for i := range t {
		switch op := isa.Op(i); {
		case op.IsBranch():
			t[i] = kindBranch
		case op.IsLoad() || op.IsStore():
			t[i] = kindMem
		}
	}
	return t
}()

// opCosts returns each opcode's fixed cycle cost: the base cycle plus
// the JALR penalty or the multiplier/divider latency beyond it.
func opCosts(cfg *Config) (t [256]uint64) {
	for i := range t {
		t[i] = 1
		switch op := isa.Op(i); {
		case op == isa.OpJALR:
			t[i] += cfg.JalrPenalty
		case op.IsMul():
			t[i] += cfg.MulLatency - 1
		case op.IsMulDiv():
			t[i] += cfg.DivLatency - 1
		}
	}
	return t
}

// chargeRun is the timing model: it returns the cycle cost of a run of
// retired instructions, charged in retirement order, and accumulates
// their statistics. Syscall and device/hook stall cycles are not in a
// Retire; charge adds them for the instructions that have them.
func (p *Platform) chargeRun(rs []sim.Retire) uint64 {
	ic, dc, pred := p.icache, p.dcache, p.pred
	cfg, opCost := &p.cfg, &p.opCost
	var cycles, imiss, branches, mispred, mmio, dhit, dmiss uint64
	for i := range rs {
		r := &rs[i]
		cost := opCost[r.Op]
		// Instruction fetch.
		if !ic.Access(r.PC) {
			imiss++
			cost += cfg.ICacheMissPenalty
		}
		if k := opKind[r.Op]; k == kindBranch {
			branches++
			if pred.Predict(r.PC) != r.Taken {
				mispred++
				cost += cfg.BranchMissPenalty
			}
			pred.Update(r.PC, r.Taken)
		} else if k == kindMem {
			if r.MMIO {
				mmio++
				cost += cfg.MMIOLatency
			} else if dc.Access(r.Addr) {
				dhit++
			} else {
				dmiss++
				cost += cfg.DCacheMissPenalty
			}
		}
		cycles += cost
	}
	st := &p.stats
	st.ICacheHits += uint64(len(rs)) - imiss
	st.ICacheMisses += imiss
	st.Branches += branches
	st.Mispredicts += mispred
	st.MMIOAccesses += mmio
	st.DCacheHits += dhit
	st.DCacheMisses += dmiss
	return cycles
}

// charge computes the cycle cost of one instruction retired on the
// reference path: chargeRun's cost for its record plus the syscall and
// stall cycles only an Event carries.
func (p *Platform) charge(ev *sim.Event) uint64 {
	r := [1]sim.Retire{sim.RetireOf(ev)}
	cost := p.chargeRun(r[:])
	if ev.Syscall {
		p.stats.Syscalls++
		cost += p.cfg.SyscallPenalty
	}
	// Device/hook-imposed stall cycles (e.g. a remote page fetch).
	return cost + ev.Extra
}

// SecondsAt converts cycles to seconds at the configured frequency.
func (p *Platform) SecondsAt(cycles uint64) float64 {
	return float64(cycles) / (float64(p.cfg.FreqMHz) * 1e6)
}

// SetPredictor swaps the branch predictor, supporting ablation studies
// that sweep predictor configurations beyond the named presets.
func (p *Platform) SetPredictor(pred bpred.Predictor) { p.pred = pred }
