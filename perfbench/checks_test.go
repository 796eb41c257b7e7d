package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"firemarshal/internal/obs"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/workgen"
)

// bareLine runs a test-dataset intspeed binary on bare rtlsim and funcsim
// and returns their console lines and the rtlsim statistics.
func bareLine(t *testing.T, bench, pred string) (rtlLine string, st rtlsim.Stats, funcLine string, funcInstrs uint64) {
	t.Helper()
	b, err := benchByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	exe, err := assembleExe(b.Source("test"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := rtlsim.DefaultConfig()
	cfg.Predictor = pred
	cfg.Obs = obs.NewRegistry()
	p, err := rtlsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := p.Exec(exe, &out); err != nil {
		t.Fatal(err)
	}
	var fout bytes.Buffer
	res, err := funcsim.New(funcsim.Config{Obs: obs.NewRegistry()}).Exec(exe, &fout)
	if err != nil {
		t.Fatal(err)
	}
	return out.String(), p.Stats(), fout.String(), res.Instrs
}

// TestChecksRejectPlantedFaults: every output check passes on correct
// outputs and rejects a planted fault.
func TestChecksRejectPlantedFaults(t *testing.T) {
	const bench = "631.deepsjeng_s"
	line, st, fline, finstrs := bareLine(t, bench, "tage")
	cfg := rtlsim.DefaultConfig()

	t.Run("results.csv line", func(t *testing.T) {
		if err := checkResultsLine(bench, line, line); err != nil {
			t.Fatal(err)
		}
		f, _ := csvFields(line)
		tampered := f[0] + "," + f[1] + "1," + f[2] + "\n"
		if checkResultsLine(bench, tampered, line) == nil {
			t.Fatalf("tampered line %q accepted", tampered)
		}
	})
	t.Run("functional checksum and instructions", func(t *testing.T) {
		if err := checkFunctional(bench, line, st.Instrs, fline, finstrs); err != nil {
			t.Fatal(err)
		}
		f, _ := csvFields(line)
		if checkFunctional(bench, f[0]+","+f[1]+",7\n", st.Instrs, fline, finstrs) == nil {
			t.Fatal("wrong checksum accepted")
		}
		if checkFunctional(bench, line, st.Instrs-1, fline, finstrs) == nil {
			t.Fatal("wrong instruction count accepted")
		}
	})
	t.Run("penalty lower bound", func(t *testing.T) {
		if err := checkPenaltyBound(bench, st, cfg); err != nil {
			t.Fatal(err)
		}
		low := st
		low.Cycles = st.Instrs + cfg.BranchMissPenalty*st.Mispredicts // misses' penalties dropped
		if checkPenaltyBound(bench, low, cfg) == nil {
			t.Fatalf("%d cycles accepted below the bound", low.Cycles)
		}
	})
	t.Run("TAGE beats Gshare", func(t *testing.T) {
		gsh, tage := map[string]rtlsim.Stats{}, map[string]rtlsim.Stats{}
		for _, b := range workgen.IntSpeedSuite() {
			_, g, _, _ := bareLine(t, b.Name, "gshare")
			_, tg, _, _ := bareLine(t, b.Name, "tage")
			gsh[b.Name], tage[b.Name] = g, tg
		}
		if err := checkTageWins(gsh, tage); err != nil {
			t.Fatal(err)
		}
		if checkTageWins(tage, gsh) == nil {
			t.Fatal("swapped predictors accepted")
		}
	})

	t.Run("fleet job", func(t *testing.T) {
		fl := strings.TrimSpace(fline)
		if err := checkFleetJob("job", "ok", fl, 100, fl, 100); err != nil {
			t.Fatal(err)
		}
		f, _ := csvFields(fl)
		if checkFleetJob("job", "ok", f[0]+","+f[1]+","+f[2]+"0", 100, fl, 100) == nil {
			t.Fatal("a fleet job with a differing checksum accepted")
		}
		if checkFleetJob("job", "ok", fl, 101, fl, 100) == nil {
			t.Fatal("a fleet job with differing cycles accepted")
		}
		if checkFleetJob("job", "failed", fl, 100, fl, 100) == nil {
			t.Fatal("a failed fleet job accepted")
		}
	})
}

// TestSeededInputs: a seed reproduces its inputs, and every seed gives
// the fleet the same binaries, so seeds differ in the inputs but not in
// the work.
func TestSeededInputs(t *testing.T) {
	a, err := writeFleetWorkload(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := writeFleetWorkload(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a, b) {
		t.Fatalf("seed 3 generated two job mixes: %v and %v", a, b)
	}
	differs := false
	for seed := int64(1); seed <= 5; seed++ {
		jobs, err := writeFleetWorkload(t.TempDir(), seed)
		if err != nil {
			t.Fatal(err)
		}
		benches := map[string]bool{}
		for i, j := range jobs {
			benches[j.bench] = true
			if !slices.Contains(fleetHalves[i%2], j.bench) {
				t.Fatalf("seed %d puts %s in job %d, outside its half", seed, j.bench, i)
			}
		}
		for _, b := range workgen.IntSpeedSuite()[:fleetJobs] {
			if !benches[b.Name] {
				t.Fatalf("seed %d fleet leaves out %s: %v", seed, b.Name, jobs)
			}
		}
		differs = differs || !slices.Equal(jobs, a)
	}
	if !differs {
		t.Fatal("no seed changed the fleet's job mix")
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with the metrics the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []spec                  `json:"end_to_end"`
		PerLayer  []spec                  `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []spec, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	listed := map[string]bool{}
	for _, w := range doc.Workloads {
		listed[w.Name] = true
	}
	for name := range workloads {
		if !listed[name] {
			t.Errorf("workload %s is not listed in BENCHMARK.json", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", name)
	}
}

// TestWorkloadsPassTheirChecks runs one op of every workload, end to end
// and traced, and requires the real outputs to pass every check.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for name, runWorkload := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				r := &run{workload: name, seed: 7, seconds: 0.01, trace: trace,
					dir: t.TempDir(), metrics: map[string]metric{}, varies: map[string]bool{}}
				if err := runWorkload(r); err != nil {
					t.Fatal(err)
				}
				if len(r.problems) > 0 || r.failed > 0 || r.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, failed checks %v", r.attempted, r.failed, r.problems)
				}
			})
		}
	}
}
