package funcsim

import (
	"bytes"
	"io"
	"testing"

	"firemarshal/internal/asm"
	"firemarshal/internal/isa"
	"firemarshal/internal/sim"
)

func build(t *testing.T, src string) *isa.Executable {
	t.Helper()
	exe, err := asm.Assemble(src, asm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

func TestDefaults(t *testing.T) {
	p := New(Config{})
	if p.Name() != "qemu" {
		t.Errorf("default variant = %q", p.Name())
	}
	if p.CycleExact() {
		t.Error("functional sim must not claim cycle exactness")
	}
	p2 := New(Config{Variant: "spike"})
	if p2.Name() != "spike" {
		t.Errorf("variant = %q", p2.Name())
	}
}

func TestExecCountsInstrsAsCycles(t *testing.T) {
	p := New(Config{})
	res, err := p.Exec(build(t, `
_start:
    nop
    nop
    nop
    li a0, 0
    li a7, 93
    ecall
`), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instrs != res.Cycles {
		t.Errorf("functional time must be instruction-counted: %d vs %d", res.Instrs, res.Cycles)
	}
	if p.Cycles() != res.Cycles {
		t.Errorf("platform clock %d != exec cycles %d", p.Cycles(), res.Cycles)
	}
}

func TestClockAccumulatesAcrossExecs(t *testing.T) {
	p := New(Config{})
	exe := build(t, "_start:\n    li a0, 0\n    li a7, 93\n    ecall\n")
	p.Exec(exe, io.Discard)
	first := p.Cycles()
	p.Charge(100)
	p.Exec(exe, io.Discard)
	if p.Cycles() != 2*first+100 {
		t.Errorf("clock = %d, want %d", p.Cycles(), 2*first+100)
	}
}

func TestArgvPassing(t *testing.T) {
	p := New(Config{})
	var out bytes.Buffer
	_, err := p.Exec(build(t, `
_start:
    # print argc
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`), &out, "prog", "arg1", "arg2")
	if err != nil {
		t.Fatal(err)
	}
	// a0 = argc = 3 at entry; the program prints it before clobbering.
	if out.String() != "3" {
		t.Errorf("argc = %q", out.String())
	}
}

func TestInstrLimitEnforced(t *testing.T) {
	p := New(Config{MaxInstrs: 100})
	_, err := p.Exec(build(t, "_start:\n    j _start\n"), io.Discard)
	if err == nil {
		t.Error("expected instruction-limit trap")
	}
}

type testSyscall struct{ called bool }

func TestSyscallFallbacks(t *testing.T) {
	p := New(Config{})
	ts := &testSyscall{}
	p.AddSyscall(func(m *sim.Machine, num uint64) (bool, error) {
		if num == 0x999 {
			ts.called = true
			m.Regs[sim.RegA0] = 0x42
			return true, nil
		}
		return false, nil
	})
	var out bytes.Buffer
	_, err := p.Exec(build(t, `
_start:
    li a7, 0x999
    ecall
    li a7, 0x101
    ecall
    li a0, 0
    li a7, 93
    ecall
`), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !ts.called || out.String() != "66" {
		t.Errorf("fallback: called=%v out=%q", ts.called, out.String())
	}
}

func TestUnknownSyscallStillTraps(t *testing.T) {
	p := New(Config{})
	if _, err := p.Exec(build(t, "_start:\n    li a7, 0x777\n    ecall\n"), io.Discard); err == nil {
		t.Error("unhandled syscall should trap")
	}
}

// chattyProgram writes to the console every way a guest can: the putint
// and putchar calls, and a store to the UART data register.
const chattyProgram = `
_start:
    li a0, 42
    li a7, 0x101
    ecall
    li a0, 10
    li a7, 0x102
    ecall
    li t0, 0x54000000
    li t1, 33
    sb t1, 0(t0)
    li a0, 5
    li a7, 93
    ecall
`

// TestNilConsoleDiscards pins that a nil console discards guest output
// instead of panicking on the first write.
func TestNilConsoleDiscards(t *testing.T) {
	res, err := New(Config{}).Exec(build(t, chattyProgram), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exit != 5 {
		t.Errorf("exit = %d, want 5", res.Exit)
	}
}
