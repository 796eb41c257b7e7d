package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Each workload sets itself up setupSamples times in a run, each time
// into a fresh directory, and reports the median as setup_s. setupBefore
// of the set-ups run before the timed ops, the last of them being the one
// the ops run against; the rest run between ops, spread evenly over the
// timed window, so that setup_s sees the same stretch of the host as the
// ops do rather than only its first moments.
const (
	setupSamples = 21
	setupBefore  = 3
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is the state of one benchmark invocation: its arguments, the
// figures measured so far and the check failures found.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// dir is this run's private scratch directory.
	dir string

	metrics   map[string]metric
	problems  []string
	attempted int
	failed    int
	// untraced holds the per-op wall times of the ops a traced run
	// measured with its probes off, for the tracing overhead.
	untraced []float64
	// varies names exact-looking counts that depend on scheduling in this
	// workload, so a traced run does not flag them when they move.
	varies map[string]bool
	// opWall is every op's wall time in run order, for the results file.
	opWall []float64
	// setupSecs is every set-up's wall time in run order; setupAgain sets
	// the workload up once more, times it and releases it.
	setupSecs  []float64
	setupAgain func() error
}

func (r *run) set(name, unit string, v float64) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed output check. The run goes on, so every failed
// check of a run is reported, not only the first.
func (r *run) check(err error) {
	if err != nil {
		r.problems = append(r.problems, err.Error())
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

// setupDir returns a new directory for set-up rep under the run's
// scratch dir.
func (r *run) setupDir(rep int) (string, error) {
	p := filepath.Join(r.dir, fmt.Sprintf("setup%d", rep))
	return p, os.MkdirAll(p, 0o755)
}

// timeSetups sets a workload up setupBefore times, releasing every
// set-up but the last, which it returns for the timed ops to run against.
// The timed loop takes the remaining samples through r.setupAgain.
func timeSetups[T any](r *run, setup func(rep int) (T, error), release func(T)) (T, error) {
	rep := 0
	once := func() (T, error) {
		// A set-up runs on one P: with two, the garbage collector's
		// background marking takes the second vCPU when the host leaves it
		// free, and set-up time would follow the neighbours' load.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		start := time.Now()
		v, err := setup(rep)
		rep++
		if err != nil {
			return v, fmt.Errorf("setup: %w", err)
		}
		r.setupSecs = append(r.setupSecs, time.Since(start).Seconds())
		return v, nil
	}
	var last T
	for i := 0; i < setupBefore; i++ {
		if i > 0 {
			release(last)
		}
		v, err := once()
		if err != nil {
			return v, err
		}
		last = v
	}
	// Between ops, a set-up starts from a collected heap, so that its
	// allocations do not pile on the last op's garbage (which once raised
	// the process's peak RSS from 19 MB to 28 MB), and its own garbage is
	// collected before the next op rather than inside it.
	r.setupAgain = func() error {
		runtime.GC()
		v, err := once()
		if err != nil {
			return err
		}
		release(v)
		runtime.GC()
		return nil
	}
	return last, nil
}

// opStats is what the timed loop measured.
type opStats struct {
	wall   []float64 // per-op host wall seconds
	cpu    []float64 // per-op process user+system CPU seconds
	allocs uint64    // Go heap bytes allocated inside ops
}

// loop runs op until --seconds have passed, timing each one. Every op
// is one whole round of the workload, so the share of failed ops does
// not depend on the run length. prepare and after run before and after
// each op, outside the timed window: per-op set-up and cleanup that are
// not part of the flow being measured. Between ops, outside the timed
// window, the loop takes the workload's set-up samples that are due, and
// after the last op the ones still missing. With trace set, op(i, probes)
// alternates probes off and on: ops with probes off feed r.untraced, the
// others the reported figures; a traced run makes at least one of each.
func (r *run) loop(prepare func(i int) error, op func(i int, probes bool) error, after func(i int)) (opStats, error) {
	var st opStats
	minOps := 1
	if r.trace {
		minOps = 2
	}
	runtime.GC()
	begin := time.Now()
	window := time.Duration(r.seconds * float64(time.Second))
	deadline := begin.Add(window)
	// setupsDue is how many set-up samples should have been taken by now.
	setupsDue := func() int {
		share := min(float64(time.Since(begin))/float64(window), 1)
		return setupBefore + int(share*float64(setupSamples-setupBefore))
	}
	var ms runtime.MemStats
	for i := 0; i < minOps || time.Now().Before(deadline); i++ {
		if prepare != nil {
			if err := prepare(i); err != nil {
				return st, fmt.Errorf("preparing op %d: %w", i, err)
			}
		}
		probes := r.trace && i%2 == 1
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		cpu0 := cpuSeconds()
		start := time.Now()
		err := op(i, probes)
		wall := time.Since(start).Seconds()
		cpu := cpuSeconds() - cpu0
		runtime.ReadMemStats(&ms)
		r.attempted++
		r.opWall = append(r.opWall, wall)
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", i, err)
		}
		if r.trace && !probes {
			r.untraced = append(r.untraced, wall)
		} else {
			st.wall = append(st.wall, wall)
			st.cpu = append(st.cpu, cpu)
			st.allocs += ms.TotalAlloc - alloc0
		}
		if err == nil && after != nil {
			after(i)
		}
		for r.setupAgain != nil && len(r.setupSecs) < setupsDue() {
			if err := r.setupAgain(); err != nil {
				return st, err
			}
		}
	}
	for r.setupAgain != nil && len(r.setupSecs) < setupSamples {
		if err := r.setupAgain(); err != nil {
			return st, err
		}
	}
	r.set("setup_s", "s", median(r.setupSecs))
	return st, nil
}

// report sets the end-to-end figures of a timed loop. A traced run
// reports its figures under trace.* instead, with the overhead its probes
// cost against the ops that ran without them.
func (r *run) report(st opStats) {
	n := float64(len(st.wall))
	if r.trace {
		traced, plain := median(st.wall), median(r.untraced)
		r.set("trace.op_s", "s", traced)
		r.set("trace.untraced_op_s", "s", plain)
		r.set("trace.overhead_s", "s", traced-plain)
		return
	}
	r.set("op_s", "s", median(st.wall))
	r.set("cpu_s_per_op", "s", median(st.cpu))
	r.set("alloc_mb_per_op", "MB", float64(st.allocs)/n/1e6)
	r.set("peak_rss_mb", "MB", peakRSSMB())
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set in MB (10^6 bytes);
// Linux reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// timeMedian calls f reps times and returns the median wall seconds.
func timeMedian(reps int, f func() error) (float64, error) {
	var secs []float64
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return median(secs), nil
}
