package main

import (
	"fmt"
	"strings"

	"firemarshal/internal/sim/rtlsim"
)

// The checks compare the program's outputs against independent
// computations (bare simulator runs of the same binaries) or against
// properties every correct output has. Each returns nil or an error that
// names the job and the mismatch. checks_test.go plants a fault for each.

// csvFields splits an intspeed result line "<bench>,<cycles>,<checksum>".
func csvFields(line string) ([]string, error) {
	f := strings.Split(strings.TrimSpace(line), ",")
	if len(f) != 3 {
		return nil, fmt.Errorf("malformed result line %q", line)
	}
	return f, nil
}

// checkResultsLine: a cycle-exact job's results.csv must be exactly the
// line a bare rtlsim run of the same binary prints.
func checkResultsLine(job, got, bare string) error {
	if got != bare {
		return fmt.Errorf("%s: results.csv %q, bare rtlsim prints %q", job, got, bare)
	}
	return nil
}

// checkFunctional: the checksum a cycle-exact job printed and the
// instructions it retired must equal a bare funcsim run of its binary.
func checkFunctional(job, line string, instrs uint64, funcLine string, funcInstrs uint64) error {
	f, err := csvFields(line)
	if err != nil {
		return fmt.Errorf("%s: %w", job, err)
	}
	ff, err := csvFields(funcLine)
	if err != nil {
		return fmt.Errorf("%s: funcsim: %w", job, err)
	}
	if f[2] != ff[2] {
		return fmt.Errorf("%s: checksum %s, funcsim computes %s", job, f[2], ff[2])
	}
	if instrs != funcInstrs {
		return fmt.Errorf("%s: retired %d instructions, funcsim retires %d", job, instrs, funcInstrs)
	}
	return nil
}

// checkPenaltyBound: every instruction costs at least one cycle and every
// counted miss at least its configured penalty, so cycles can never fall
// below their sum.
func checkPenaltyBound(job string, s rtlsim.Stats, cfg rtlsim.Config) error {
	floor := s.Instrs + cfg.ICacheMissPenalty*s.ICacheMisses +
		cfg.BranchMissPenalty*s.Mispredicts + cfg.DCacheMissPenalty*s.DCacheMisses
	if s.Cycles < floor {
		return fmt.Errorf("%s: %d cycles, below the penalty lower bound %d", job, s.Cycles, floor)
	}
	return nil
}

// checkTageWins: Fig. 6's result — TAGE takes fewer cycles than Gshare on
// at least 7 of the 10 benchmarks and mispredicts less in total.
func checkTageWins(gshare, tage map[string]rtlsim.Stats) error {
	wins := 0
	var gMiss, tMiss uint64
	for name, g := range gshare {
		t, ok := tage[name]
		if !ok {
			return fmt.Errorf("no TAGE result for %s", name)
		}
		if t.Cycles < g.Cycles {
			wins++
		}
		gMiss += g.Mispredicts
		tMiss += t.Mispredicts
	}
	if wins < 7 {
		return fmt.Errorf("TAGE beats Gshare on %d of %d benchmarks, want at least 7", wins, len(gshare))
	}
	if tMiss >= gMiss {
		return fmt.Errorf("TAGE mispredicts %d times, Gshare %d", tMiss, gMiss)
	}
	return nil
}

// checkFleetJob: a fleet job must finish ok, print the checksum a bare
// funcsim run of its binary computes, and take the cycles a local launch
// of the same job takes.
func checkFleetJob(job, status, line string, cycles uint64, funcLine string, localCycles uint64) error {
	if status != "ok" {
		return fmt.Errorf("%s: status %s", job, status)
	}
	f, err := csvFields(line)
	if err != nil {
		return fmt.Errorf("%s: %w", job, err)
	}
	ff, err := csvFields(funcLine)
	if err != nil {
		return fmt.Errorf("%s: funcsim: %w", job, err)
	}
	if f[0] != ff[0] || f[2] != ff[2] {
		return fmt.Errorf("%s: printed %s checksum %s, funcsim computes %s checksum %s", job, f[0], f[2], ff[0], ff[2])
	}
	if cycles != localCycles {
		return fmt.Errorf("%s: %d cycles on the fleet, %d in a local launch", job, cycles, localCycles)
	}
	return nil
}

// resultLine finds the intspeed result line of bench in a console log.
func resultLine(console, bench string) string {
	for _, l := range strings.Split(console, "\n") {
		if strings.HasPrefix(l, bench+",") {
			return strings.TrimRight(l, "\r")
		}
	}
	return ""
}
