// Lockstep co-simulation: run one workload on every execution tier and
// compare the complete observable outcome — retired instructions, cycle
// count, exit status, final registers/PC, and console transcript. The
// reference interpreter (StepInto) is the oracle; the predecoded fast
// loop and the trace-compiled loop are the suspects. rtlsim rides along
// as a spot-check of the platform plumbing; it runs the fast loop in its
// recording mode, whose timing the rtlsim lockstep tests hold to the
// stepped reference.
package verify

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"

	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
)

// Tier names. The fast tier runs the predecoded loop with the trace
// compiler disabled (sim.Machine.TraceOff); the traced tier runs it with
// superblock dispatch on.
const (
	TierReference = "reference"
	TierFast      = "fast"
	TierTraced    = "traced"
	TierRTL       = "rtl"
)

// Fault deterministically corrupts one tier mid-run: the moment the
// tier's machine reaches exactly Instr retired instructions, register
// Reg is XORed with Xor, and execution continues. It models the class of
// bug the farm exists to catch — a fast path computing one wrong value —
// while staying reproducible at any replay granularity, which is what
// lets the seeded-fault self-test assert the bisector lands on Instr
// exactly.
type Fault struct {
	Tier  string `json:"tier"`
	Instr uint64 `json:"instr"`
	Reg   int    `json:"reg"`
	Xor   uint64 `json:"xor"`
}

func (f *Fault) String() string {
	if f == nil {
		return "none"
	}
	return fmt.Sprintf("%s:%d:x%d:%#x", f.Tier, f.Instr, f.Reg, f.Xor)
}

// ParseFault parses the -inject-fault CLI form "tier:instr:reg:xor",
// e.g. "fast:5000:27:0x1".
func ParseFault(s string) (*Fault, error) {
	var f Fault
	parts := strings.Split(s, ":")
	if len(parts) != 4 {
		return nil, fmt.Errorf("verify: fault %q: want tier:instr:reg:xor", s)
	}
	f.Tier = parts[0]
	if f.Tier != TierFast && f.Tier != TierTraced {
		return nil, fmt.Errorf("verify: fault tier %q: want %s or %s", f.Tier, TierFast, TierTraced)
	}
	instr, err := strconv.ParseUint(parts[1], 0, 64)
	if err != nil || instr == 0 {
		return nil, fmt.Errorf("verify: fault instr %q: want positive integer", parts[1])
	}
	f.Instr = instr
	reg, err := strconv.Atoi(strings.TrimPrefix(parts[2], "x"))
	if err != nil || reg < 1 || reg > 31 {
		return nil, fmt.Errorf("verify: fault reg %q: want x1..x31", parts[2])
	}
	f.Reg = reg
	xor, err := strconv.ParseUint(parts[3], 0, 64)
	if err != nil || xor == 0 {
		return nil, fmt.Errorf("verify: fault xor %q: want nonzero integer", parts[3])
	}
	f.Xor = xor
	return &f, nil
}

// maxInstrsDefault bounds each corpus entry; generated workloads retire
// well under a million instructions, so this is a runaway guard.
const maxInstrsDefault = 50_000_000

// tierRun drives one machine down one tier with optional fault
// injection, in hops of exact retired-instruction counts. Hopping works
// because the instruction-limit trap leaves the machine at precisely
// MaxInstrs retirements with all state published, and raising the limit
// resumes it — the same property checkpointing is built on.
type tierRun struct {
	tier    string
	m       *sim.Machine
	console *bytes.Buffer
	fault   *Fault
	limit   uint64 // overall instruction budget
	applied bool   // fault already injected
	// onEvent, when set on the reference tier, receives every retired
	// instruction's event — the farm's coverage feed. (m.Trace is the
	// spike-style text log, not an event hook, so coverage drives
	// StepInto directly.)
	onEvent func(*sim.Event)
}

// newTierRun builds a machine for one tier over an assembled executable.
// The setup mirrors the differential suite's harness: bare syscalls, a
// UART device, DefaultStackTop.
func newTierRun(tier string, exe *isa.Executable, fault *Fault, limit uint64) *tierRun {
	if limit == 0 {
		limit = maxInstrsDefault
	}
	tr := &tierRun{tier: tier, limit: limit, console: &bytes.Buffer{}}
	if fault != nil && fault.Tier == tier {
		tr.fault = fault
	}
	m := sim.NewMachine()
	m.Console = tr.console
	m.SyscallFn = sim.BareSyscalls()
	m.Devices = []sim.Device{&sim.UART{}}
	m.TraceOff = tier != TierTraced
	m.LoadExecutable(exe, sim.DefaultStackTop)
	tr.m = m
	return tr
}

// isLimitTrap reports whether err is the instruction-limit trap hopping
// deliberately provokes.
func isLimitTrap(err error) bool {
	t, ok := err.(*sim.ErrTrap)
	return ok && strings.HasPrefix(t.Msg, "instruction limit")
}

// step advances the machine to exactly k retired instructions (or to
// halt, whichever first), injecting the fault at its boundary when the
// hop crosses it. Errors other than the expected limit trap propagate —
// a trap divergence is itself a finding, reported by the caller.
func (tr *tierRun) step(k uint64) error {
	if k > tr.limit {
		k = tr.limit
	}
	for !tr.m.Halted && tr.m.Instret < k {
		target := k
		if f := tr.fault; f != nil && !tr.applied && tr.m.Instret < f.Instr && f.Instr < target {
			target = f.Instr
		}
		tr.m.MaxInstrs = target
		var err error
		switch {
		case tr.onEvent != nil:
			err = tr.stepEvents()
		case tr.tier == TierReference:
			_, err = sim.RunReference(tr.m)
		default:
			_, err = sim.RunFunctional(tr.m)
		}
		if err != nil && !isLimitTrap(err) {
			return err
		}
		if !tr.m.Halted && tr.m.Instret != target {
			return fmt.Errorf("verify: %s tier stopped at %d, want %d", tr.tier, tr.m.Instret, target)
		}
		if f := tr.fault; f != nil && !tr.applied && tr.m.Instret >= f.Instr {
			tr.m.Regs[f.Reg] ^= f.Xor
			tr.applied = true
		}
	}
	return nil
}

// stepEvents mirrors sim.RunReference's loop (StepInto + one cycle per
// retirement) while feeding each event to onEvent. Architectural state
// evolves identically to RunReference; only observation differs.
func (tr *tierRun) stepEvents() error {
	var ev sim.Event
	for !tr.m.Halted {
		if err := tr.m.StepInto(&ev); err != nil {
			return err
		}
		tr.m.Now++
		tr.onEvent(&ev)
	}
	return nil
}

// run executes the workload to completion (within the budget).
func (tr *tierRun) run() error { return tr.step(tr.limit) }

// Outcome is one tier's complete observable result.
type Outcome struct {
	Tier    string
	Instret uint64
	Now     uint64
	Exit    int64
	Halted  bool
	Regs    [32]uint64
	PC      uint64
	Console []byte
	Err     string // non-trap-limit simulation error, if any
}

func (tr *tierRun) outcome() Outcome {
	return Outcome{
		Tier:    tr.tier,
		Instret: tr.m.Instret,
		Now:     tr.m.Now,
		Exit:    tr.m.ExitCode,
		Halted:  tr.m.Halted,
		Regs:    tr.m.Regs,
		PC:      tr.m.PC,
		Console: tr.console.Bytes(),
	}
}

// diffOutcomes names the first difference between a suspect tier's
// outcome and the reference's: kind is the observable that differs
// without its values (the dedup axis — "exit", "reg:x27", "console", ...)
// and detail carries the values. Both are "" when the outcomes agree.
func diffOutcomes(ref, got Outcome) (kind, detail string) {
	switch {
	case ref.Err != got.Err:
		return "error", fmt.Sprintf("error %q vs reference %q", got.Err, ref.Err)
	case ref.Halted != got.Halted:
		return "halted", fmt.Sprintf("halted=%v vs reference %v", got.Halted, ref.Halted)
	case ref.Exit != got.Exit:
		return "exit", fmt.Sprintf("exit %d vs reference %d", got.Exit, ref.Exit)
	case ref.Instret != got.Instret:
		return "instret", fmt.Sprintf("instret %d vs reference %d", got.Instret, ref.Instret)
	case ref.Now != got.Now:
		return "cycles", fmt.Sprintf("cycles %d vs reference %d", got.Now, ref.Now)
	case ref.PC != got.PC:
		return "pc", fmt.Sprintf("pc %#x vs reference %#x", got.PC, ref.PC)
	case ref.Regs != got.Regs:
		for i := range ref.Regs {
			if ref.Regs[i] != got.Regs[i] {
				return fmt.Sprintf("reg:x%d", i),
					fmt.Sprintf("x%d=%#x vs reference %#x", i, got.Regs[i], ref.Regs[i])
			}
		}
	case !bytes.Equal(ref.Console, got.Console):
		return "console", fmt.Sprintf("console %q vs reference %q", clip(got.Console), clip(ref.Console))
	}
	return "", ""
}

func clip(b []byte) string {
	const max = 80
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
