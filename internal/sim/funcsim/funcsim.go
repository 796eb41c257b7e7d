// Package funcsim implements the functional simulation platform — the role
// QEMU and Spike play in FireMarshal's workflow (§II-A.3): fast,
// ISA-faithful execution with no timing model, used for software
// development, guest-init execution during builds, and reference-output
// generation. Time advances one cycle per instruction, which keeps rdcycle
// monotonic for guest code without claiming timing fidelity.
//
// The platform supports the "spike" variant: the same engine with
// golden-model devices attached (§IV-A used a modified Spike carrying the
// PFA golden model).
package funcsim

import (
	"fmt"
	"io"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
)

// Config controls the functional platform.
type Config struct {
	// Variant names the simulator ("qemu" or "spike"); informational.
	Variant string
	// MaxInstrs bounds each Exec to catch runaway guests (default 500M).
	MaxInstrs uint64
	// ExtraArgs carries the workload's qemu-args/spike-args; recorded for
	// reproducibility and surfaced in run logs.
	ExtraArgs []string
	// Trace receives a per-instruction execution trace (spike -l role).
	Trace io.Writer
	// Reference forces the reference StepInto loop even when the fast
	// loop is eligible — the knob differential tests and debugging use.
	Reference bool
	// Stop is the cooperative kill switch threaded into each machine (see
	// sim.Machine.Stop): the parallel launcher passes a job context's
	// Done channel so timeouts and Ctrl-C abort the simulation.
	Stop <-chan struct{}
	// Ckpt, when set, records completed Execs and snapshots the machine at
	// deterministic instruction boundaries so an interrupted run resumes
	// bit-identically (see internal/checkpoint). Incompatible with memory
	// hooks and tracing, whose state snapshots do not capture.
	Ckpt *checkpoint.Runtime
	// Obs is the registry sim_funcsim_* metrics report into; nil resolves
	// to the process-wide obs.Default.
	Obs *obs.Registry
}

// Platform is a functional simulation node.
type Platform struct {
	cfg       Config
	cycles    uint64
	devices   []sim.Device
	hooks     []sim.MemHook
	fallbacks []sim.SyscallFallback
}

var _ sim.Platform = (*Platform)(nil)

// New creates a functional platform.
func New(cfg Config) *Platform {
	if cfg.Variant == "" {
		cfg.Variant = "qemu"
	}
	if cfg.MaxInstrs == 0 {
		cfg.MaxInstrs = 500_000_000
	}
	p := &Platform{cfg: cfg}
	p.devices = []sim.Device{&sim.UART{}}
	return p
}

// Name implements sim.Platform.
func (p *Platform) Name() string { return p.cfg.Variant }

// CycleExact implements sim.Platform: functional simulation has no timing
// model.
func (p *Platform) CycleExact() bool { return false }

// Cycles implements sim.Platform.
func (p *Platform) Cycles() uint64 { return p.cycles }

// Charge implements sim.Platform. Functional time is instruction-counted;
// modeled OS overhead still advances the clock so logs stay ordered.
func (p *Platform) Charge(n uint64) { p.cycles += n }

// AddDevice implements sim.Platform.
func (p *Platform) AddDevice(d sim.Device) { p.devices = append(p.devices, d) }

// AddHook implements sim.Platform.
func (p *Platform) AddHook(h sim.MemHook) { p.hooks = append(p.hooks, h) }

// AddSyscall implements sim.Platform.
func (p *Platform) AddSyscall(fb sim.SyscallFallback) { p.fallbacks = append(p.fallbacks, fb) }

// Exec implements sim.Platform: run the executable to completion,
// functionally. With checkpointing enabled, execs a crashed attempt
// already completed replay from their records, and the crashed attempt's
// in-flight exec restores from its latest snapshot.
func (p *Platform) Exec(exe *isa.Executable, console io.Writer, args ...string) (*sim.ExecResult, error) {
	ck := p.cfg.Ckpt
	var sig string
	if ck != nil {
		if len(p.hooks) > 0 || p.cfg.Trace != nil {
			return nil, fmt.Errorf("funcsim(%s): checkpointing is incompatible with memory hooks and tracing", p.cfg.Variant)
		}
		sig = checkpoint.ExecSig(exe.Entry, args)
		if rec, out, ok, err := ck.ReplayNext(sig); err != nil {
			return nil, fmt.Errorf("funcsim(%s): %w", p.cfg.Variant, err)
		} else if ok {
			if console != nil {
				if _, err := console.Write(out); err != nil {
					return nil, err
				}
			}
			p.cycles += rec.Cycles
			return &sim.ExecResult{Exit: rec.Exit, Instrs: rec.Instrs, Cycles: rec.Cycles}, nil
		}
	}

	m := sim.NewMachine()
	if console != nil { // nil discards guest output (NewMachine's default)
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
	m.Trace = p.cfg.Trace
	m.Stop = p.cfg.Stop
	m.Now = p.cycles
	m.LoadExecutable(exe, sim.DefaultStackTop)
	sim.SetupArgv(m, args)

	// Baselines predate BeginExec: a restore advances Instret and Now to
	// the snapshot boundary, and the deltas below must span the whole exec.
	start := p.cycles
	startInstrs := m.Instret
	if ck != nil {
		w, _, err := ck.BeginExec(sig, m, console)
		if err != nil {
			return nil, fmt.Errorf("funcsim(%s): %w", p.cfg.Variant, err)
		}
		m.Console = w
	}
	// Metric shards attach after any restore, so a resumed exec reports
	// only instructions it actually simulates; the run loops flush them at
	// fast-loop chunk boundaries.
	m.AttachObs(p.cfg.Obs.Counter("sim_funcsim_instrs_total").Shard(),
		p.cfg.Obs.Counter("sim_funcsim_cycles_total").Shard())
	m.AttachTraceObs(p.cfg.Obs)
	wallStart := time.Now()

	var err error
	if p.cfg.Reference {
		_, err = sim.RunReference(m)
	} else {
		_, err = sim.RunFunctional(m)
	}
	p.cycles = m.Now
	if err != nil {
		return nil, fmt.Errorf("funcsim(%s): %w", p.cfg.Variant, err)
	}
	instrs := m.Instret - startInstrs
	cycles := p.cycles - start
	// A 0-duration exec produces +Inf here; Gauge.Set clamps it to 0.
	p.cfg.Obs.Gauge("sim_funcsim_mips").Set(float64(instrs) / time.Since(wallStart).Seconds() / 1e6)
	if ck != nil {
		if err := ck.FinishExec(m.ExitCode, instrs, cycles); err != nil {
			return nil, fmt.Errorf("funcsim(%s): %w", p.cfg.Variant, err)
		}
	}
	return &sim.ExecResult{Exit: m.ExitCode, Instrs: instrs, Cycles: cycles}, nil
}
