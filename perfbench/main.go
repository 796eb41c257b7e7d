// Command perfbench is FireMarshal's end-to-end benchmark. It runs one
// workload per invocation in its own process, checks the program's
// outputs, and prints one JSON result as the last line of standard
// output. Run it through run.sh, which builds it from source:
//
//	bash perfbench/run.sh --workload fig6-firesim --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// workloads are the benchmark's workloads, the ones BENCHMARK.json lists.
// Each run func sets up, runs the timed ops, checks their outputs and
// sets the metrics of its run.
var workloads = map[string]func(*run) error{
	"fig6-firesim": runFig6,
	"fleet-launch": runFleet,
}

// metricSpec names a reported metric. BENCHMARK.json lists the same
// metrics; checks_test.go keeps the two in step.
type metricSpec struct{ name, unit, better string }

// endToEnd are the metrics a --trace 0 run reports.
var endToEnd = []metricSpec{
	{"op_s", "s", "lower"},
	{"cpu_s_per_op", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a --trace 1 run reports. A layer the run's
// workload does not exercise reads 0. Counts (unit count or bytes)
// repeat exactly on every traced run of the same source tree and seed,
// unless the workload marks them as depending on scheduling.
var perLayer = []metricSpec{
	{"trace.op_s", "s", "lower"},
	{"trace.untraced_op_s", "s", "lower"},
	{"trace.overhead_s", "s", "lower"},
	// fig6-firesim: the op
	{"rtlsim.exec_s", "s", "lower"},
	{"rtlsim.ns_per_instr", "ns", "lower"},
	{"sim.step_ns_per_instr", "ns", "lower"},
	{"bpred.tage_ns_per_branch", "ns", "lower"},
	{"bpred.gshare_ns_per_branch", "ns", "lower"},
	{"cache.icache_ns_per_access", "ns", "lower"},
	{"cache.dcache_ns_per_access", "ns", "lower"},
	{"fsrun.overhead_s", "s", "lower"},
	{"rtlsim.alloc_kb_per_exec", "KB", "lower"},
	{"rtlsim.instrs", "count", "lower"},
	{"rtlsim.cycles.tage", "count", "lower"},
	{"rtlsim.cycles.gshare", "count", "lower"},
	{"rtlsim.mispredicts.tage", "count", "lower"},
	{"rtlsim.mispredicts.gshare", "count", "lower"},
	{"rtlsim.icache_misses", "count", "lower"},
	{"rtlsim.dcache_misses", "count", "lower"},
	// fig6-firesim: the build and install of its set-up
	{"spec.load_s", "s", "lower"},
	{"dag.hash_s", "s", "lower"},
	{"kernel.build_s", "s", "lower"},
	{"firmware.build_s", "s", "lower"},
	{"fsimg.encode_s", "s", "lower"},
	// fleet-launch
	{"core.build_s", "s", "lower"},
	{"cas.publish_s", "s", "lower"},
	{"cas.put_s", "s", "lower"},
	{"cas.restore_s", "s", "lower"},
	{"remote.get_s", "s", "lower"},
	{"remote.put_s", "s", "lower"},
	{"remote.requests", "count", "lower"},
	{"remote.bytes_served", "bytes", "lower"},
	{"remote.bytes_stored", "bytes", "lower"},
	{"funcsim.ns_per_instr", "ns", "lower"},
	{"funcsim.instrs", "count", "lower"},
	{"launcher.worker_run_s", "s", "lower"},
	{"launcher.coord_idle_s", "s", "lower"},
	{"launcher.queue_wait_s", "s", "lower"},
	{"launcher.worker_requests", "count", "lower"},
	{"checkpoint.snapshots", "count", "lower"},
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	workload := flag.String("workload", "", "workload to run: fig6-firesim or fleet-launch")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "how long the timed ops run")
	trace := flag.Int("trace", 0, "1 runs the traced run that reports per-layer metrics")
	scratch := flag.String("scratch", ".bench_build/scratch", "directory for work dirs, cache stores and server stores")
	results := flag.String("results", ".bench_build/results", "directory the results and the host fingerprint are written to")
	flag.Parse()
	runWorkload, ok := workloads[*workload]
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		flag.Usage()
		return 2
	}

	dir, err := filepath.Abs(filepath.Join(*scratch, fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: scratch dir: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	fp := fingerprint(dir, spreadDirs(dir))
	fmt.Fprintf(os.Stderr, "perfbench: host %s\n", fp)

	r := &run{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		dir: dir, metrics: map[string]metric{}, varies: map[string]bool{}}
	if err := runWorkload(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}

	specs := endToEnd
	if r.trace {
		specs = perLayer
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		m, ok := r.metrics[s.name]
		if !ok {
			m = metric{Value: 0, Unit: s.unit}
		}
		res.Metrics[s.name] = m
	}
	if err := r.record(*results, fp, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing results: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// record writes the run's result and host fingerprint to the results
// directory: <workload>.json for an end-to-end run, <workload>.trace.json
// for a traced run, next to each other. A traced run first compares its
// exact counts with the previous traced run of the same source tree and
// seed, and flags every count that moved.
func (r *run) record(dir string, fp host, res result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := r.workload + ".json"
	if r.trace {
		name = r.workload + ".trace.json"
	}
	path := filepath.Join(dir, name)
	type entry struct {
		Host    host      `json:"host"`
		Seed    int64     `json:"seed"`
		Seconds float64   `json:"seconds"`
		Result  result    `json:"result"`
		OpS     []float64 `json:"op_wall_s"`
		SetupS  []float64 `json:"setup_wall_s"`
		Flagged []string  `json:"flagged,omitempty"`
		Checks  []string  `json:"failed_checks,omitempty"`
	}
	e := entry{Host: fp, Seed: r.seed, Seconds: r.seconds, Result: res, OpS: r.opWall, SetupS: r.setupSecs, Checks: r.problems}
	if r.trace {
		var prev entry
		if data, err := os.ReadFile(path); err == nil && json.Unmarshal(data, &prev) == nil &&
			prev.Host.Tree == fp.Tree && prev.Seed == r.seed {
			e.Flagged = movedCounts(prev.Result.Metrics, res.Metrics, r.varies)
			for _, f := range e.Flagged {
				fmt.Fprintf(os.Stderr, "perfbench: FLAG %s\n", f)
			}
		}
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// movedCounts lists the exact counts that differ between two traced runs.
func movedCounts(prev, cur map[string]metric, varies map[string]bool) []string {
	var moved []string
	for name, c := range cur {
		if (c.Unit != "count" && c.Unit != "bytes") || varies[name] {
			continue
		}
		if p, ok := prev[name]; ok && p.Value != c.Value {
			moved = append(moved, fmt.Sprintf("%s: %v before, %v now", name, p.Value, c.Value))
		}
	}
	sort.Strings(moved)
	return moved
}
