package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"firemarshal/internal/core"
	"firemarshal/internal/fsrun"
	"firemarshal/internal/install"
	"firemarshal/internal/isa"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim"
	"firemarshal/internal/sim/bpred"
	"firemarshal/internal/sim/cache"
	"firemarshal/internal/sim/funcsim"
	"firemarshal/internal/sim/rtlsim"
	"firemarshal/internal/workgen"
)

// predictors are the two Fig. 6 configurations, in run order.
var predictors = []string{"gshare", "tage"}

// suiteJob is one cycle-exact job's outcome in a fig6 op.
type suiteJob struct {
	pred, bench string
	line        string // results.csv
	stats       rtlsim.Stats
}

// fig6: one op runs the ten intspeed jobs (ref dataset) through the
// firesim runner once per predictor, one job at a time.
func runFig6(r *run) error {
	// The generated inputs are written once; every set-up installs them
	// into a work dir of its own.
	files, err := suiteWorkload()
	if err != nil {
		return err
	}
	wl := filepath.Join(r.dir, "workloads")
	if err := writeFiles(wl, files); err != nil {
		return err
	}
	type setup struct {
		dir string
		cfg *install.Config
	}
	st, err := timeSetups(r, func(rep int) (setup, error) {
		dir, err := r.setupDir(rep)
		if err != nil {
			return setup{}, err
		}
		m, err := core.New(filepath.Join(dir, "work"), wl)
		if err != nil {
			return setup{}, err
		}
		idir, err := m.Install("intspeed", core.InstallOpts{})
		if err != nil {
			return setup{}, err
		}
		cfg, err := install.Load(idir)
		return setup{dir, cfg}, err
	}, func(s setup) { os.RemoveAll(s.dir) })
	if err != nil {
		return err
	}

	// The binaries of the independent references: bare rtlsim and funcsim
	// runs, outside the timed window.
	suite := workgen.IntSpeedSuite()
	exes := make([]*isa.Executable, len(suite))
	for k, b := range suite {
		if exes[k], err = assembleExe(b.Source("ref")); err != nil {
			return err
		}
	}

	var ops [][]suiteJob
	var last []*fsrun.Result
	var lastProbed bool
	// A traced run makes the bare runs right after each probed op, so
	// that fsrun.overhead_s is taken between an op and bare runs of the
	// same stretch of the host.
	var paired []*bareResults
	var overhead []float64
	op := func(i int, probes bool) error {
		last, lastProbed = nil, probes
		for _, pred := range predictors {
			rtl := rtlsim.DefaultConfig()
			rtl.Predictor = pred
			res, err := fsrun.Run(st.cfg, fsrun.Options{
				RTL:       rtl,
				Jobs:      1,
				OutputDir: filepath.Join(r.dir, "op", pred),
				Obs:       obs.NewRegistry(),
			})
			if err != nil {
				return err
			}
			last = append(last, res)
		}
		return nil
	}
	after := func(i int) {
		var jobs []suiteJob
		for p, res := range last {
			if len(res.Jobs) != len(suite) {
				r.check(fmt.Errorf("%s run produced %d jobs, want %d", predictors[p], len(res.Jobs), len(suite)))
				continue
			}
			for k, j := range res.Jobs {
				data, err := os.ReadFile(filepath.Join(j.OutputDir, "output", "results.csv"))
				r.check(err)
				jobs = append(jobs, suiteJob{pred: predictors[p], bench: suite[k].Name, line: string(data), stats: j.Stats})
			}
		}
		ops = append(ops, jobs)
		r.check(os.RemoveAll(filepath.Join(r.dir, "op")))
		if lastProbed {
			b, err := bareSuite(exes)
			r.check(err)
			if err == nil {
				paired = append(paired, b)
				overhead = append(overhead, r.opWall[len(r.opWall)-1]-b.execS)
			}
		}
	}
	stats, err := r.loop(nil, op, after)
	if err != nil {
		return err
	}
	r.report(stats)

	var bare *bareResults
	if len(paired) > 0 {
		bare = paired[0]
	} else if bare, err = bareSuite(exes); err != nil {
		return err
	}
	cfg := rtlsim.DefaultConfig()
	for _, jobs := range ops {
		byPred := map[string]map[string]rtlsim.Stats{"gshare": {}, "tage": {}}
		for _, j := range jobs {
			k := benchIndex(suite, j.bench)
			ref := bare.runs[j.pred][k]
			r.check(checkResultsLine(j.pred+"/"+j.bench, j.line, ref.line))
			r.check(checkFunctional(j.pred+"/"+j.bench, j.line, j.stats.Instrs, bare.funcLines[k], bare.funcInstrs[k]))
			r.check(checkPenaltyBound(j.pred+"/"+j.bench, j.stats, cfg))
			byPred[j.pred][j.bench] = j.stats
		}
		r.check(checkTageWins(byPred["gshare"], byPred["tage"]))
	}

	if r.trace {
		if len(paired) == 0 {
			return fmt.Errorf("no probed op succeeded")
		}
		if err := fig6Layers(r, exes, paired, overhead); err != nil {
			return err
		}
		// The build and install the set-up runs: they move setup_s.
		return buildLayers(r, wl, "intspeed", filepath.Join(st.dir, "work", "images"))
	}
	return nil
}

func benchIndex(suite []workgen.Benchmark, name string) int {
	for k, b := range suite {
		if b.Name == name {
			return k
		}
	}
	return -1
}

func assembleExe(src string) (*isa.Executable, error) {
	bin, err := assemble(src)
	if err != nil {
		return nil, err
	}
	return isa.DecodeExecutable(bin)
}

// bareRun is one bare rtlsim.New+Exec run of a suite binary.
type bareRun struct {
	line  string
	stats rtlsim.Stats
}

// bareResults holds the bare runs of the suite: per predictor, one
// rtlsim run per benchmark, and one funcsim run per benchmark.
type bareResults struct {
	runs       map[string][]bareRun
	execS      float64 // wall seconds of the 20 rtlsim runs
	allocBytes uint64  // Go heap bytes the 20 rtlsim runs allocated
	funcLines  []string
	funcInstrs []uint64
}

func bareSuite(exes []*isa.Executable) (*bareResults, error) {
	b := &bareResults{runs: map[string][]bareRun{}}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for _, pred := range predictors {
		for _, exe := range exes {
			cfg := rtlsim.DefaultConfig()
			cfg.Predictor = pred
			cfg.Obs = obs.NewRegistry()
			p, err := rtlsim.New(cfg)
			if err != nil {
				return nil, err
			}
			var out bytes.Buffer
			if _, err := p.Exec(exe, &out); err != nil {
				return nil, err
			}
			b.runs[pred] = append(b.runs[pred], bareRun{out.String(), p.Stats()})
		}
	}
	b.execS = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	b.allocBytes = ms.TotalAlloc - alloc0
	for _, exe := range exes {
		var out bytes.Buffer
		res, err := funcsim.New(funcsim.Config{Obs: obs.NewRegistry()}).Exec(exe, &out)
		if err != nil {
			return nil, err
		}
		b.funcLines = append(b.funcLines, out.String())
		b.funcInstrs = append(b.funcInstrs, res.Instrs)
	}
	return b, nil
}

// fig6Layers measures the cycle-exact tier's layers from outside: the
// bare rtlsim runs, the machine's stepping alone, and replays of the
// recorded branch, fetch and data streams into fresh predictors and
// caches. paired holds the bare runs made right after each probed op,
// and overhead each probed op's wall time minus its bare runs'.
func fig6Layers(r *run, exes []*isa.Executable, paired []*bareResults, overhead []float64) error {
	var execS, allocs []float64
	for _, b := range paired {
		execS = append(execS, b.execS)
		allocs = append(allocs, float64(b.allocBytes))
	}
	first := paired[0]
	var instrs, icm, dcm uint64
	cycles, miss := map[string]uint64{}, map[string]uint64{}
	for _, pred := range predictors {
		for _, run := range first.runs[pred] {
			instrs += run.stats.Instrs
			icm += run.stats.ICacheMisses
			dcm += run.stats.DCacheMisses
			cycles[pred] += run.stats.Cycles
			miss[pred] += run.stats.Mispredicts
		}
	}
	n := float64(len(predictors) * len(exes))
	r.set("rtlsim.exec_s", "s", median(execS))
	r.set("rtlsim.ns_per_instr", "ns", median(execS)/float64(instrs)*1e9)
	r.set("rtlsim.alloc_kb_per_exec", "KB", median(allocs)/n/1e3)
	r.set("fsrun.overhead_s", "s", median(overhead))
	r.set("rtlsim.instrs", "count", float64(instrs))
	r.set("rtlsim.cycles.tage", "count", float64(cycles["tage"]))
	r.set("rtlsim.cycles.gshare", "count", float64(cycles["gshare"]))
	r.set("rtlsim.mispredicts.tage", "count", float64(miss["tage"]))
	r.set("rtlsim.mispredicts.gshare", "count", float64(miss["gshare"]))
	r.set("rtlsim.icache_misses", "count", float64(icm))
	r.set("rtlsim.dcache_misses", "count", float64(dcm))

	// Stepping, stream recording and replays, one binary at a time so
	// only one binary's streams are held in memory.
	var stepNS, stepInstrs float64
	var predNS = map[string]float64{}
	var branches, fetches, dataAccesses float64
	var icNS, dcNS float64
	replayMiss := map[string]uint64{}
	var replayIcm, replayDcm uint64
	for _, exe := range exes {
		var n uint64
		d, err := stepMachine(exe, func(*sim.Event) uint64 { n++; return 1 })
		if err != nil {
			return err
		}
		stepNS += float64(d.Nanoseconds())
		stepInstrs += float64(n)

		var s streams
		if _, err := stepMachine(exe, s.record); err != nil {
			return err
		}
		for _, pred := range predictors {
			ns, m, err := replayBranches(pred, s.branchPC, s.taken)
			if err != nil {
				return err
			}
			predNS[pred] += ns
			replayMiss[pred] += m
		}
		ns, m, err := replayCache(cache.DefaultL1I(), s.fetchPC)
		if err != nil {
			return err
		}
		icNS += ns
		replayIcm += m
		if ns, m, err = replayCache(cache.DefaultL1D(), s.dataAddr); err != nil {
			return err
		}
		dcNS += ns
		replayDcm += m
		branches += float64(len(s.branchPC))
		fetches += float64(len(s.fetchPC))
		dataAccesses += float64(len(s.dataAddr))
	}
	r.set("sim.step_ns_per_instr", "ns", stepNS/stepInstrs)
	r.set("bpred.tage_ns_per_branch", "ns", predNS["tage"]/branches)
	r.set("bpred.gshare_ns_per_branch", "ns", predNS["gshare"]/branches)
	r.set("cache.icache_ns_per_access", "ns", icNS/fetches)
	r.set("cache.dcache_ns_per_access", "ns", dcNS/dataAccesses)

	// The replays see the streams rtlsim charged, so their miss counts
	// must equal the bare runs' (each run is counted once per predictor).
	for _, pred := range predictors {
		if replayMiss[pred] != miss[pred] {
			r.check(fmt.Errorf("%s replay mispredicts %d, rtlsim counted %d", pred, replayMiss[pred], miss[pred]))
		}
	}
	if 2*replayIcm != icm || 2*replayDcm != dcm {
		r.check(fmt.Errorf("cache replays miss %d/%d times, rtlsim counted %d/%d over both predictors", replayIcm, replayDcm, icm, dcm))
	}
	return nil
}

// stepMachine runs exe on a bare machine set up as rtlsim.Exec sets up
// its own, stepping through Machine.RunBatch with the given charge
// callback, and returns the stepping wall time.
func stepMachine(exe *isa.Executable, charge func(*sim.Event) uint64) (time.Duration, error) {
	m := sim.NewMachine()
	m.Console = io.Discard
	m.Devices = []sim.Device{&sim.UART{}}
	m.SyscallFn = sim.BareSyscalls()
	m.MaxInstrs = rtlsim.DefaultConfig().MaxInstrs
	m.LoadExecutable(exe, sim.DefaultStackTop)
	sim.SetupArgv(m, nil)
	evs := make([]sim.Event, 4096)
	start := time.Now()
	for !m.Halted {
		if _, err := m.RunBatch(evs, charge); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// streams are the timing-relevant event streams of one run, recorded as
// rtlsim's charge sees them.
type streams struct {
	branchPC []uint64
	taken    []bool
	fetchPC  []uint64
	dataAddr []uint64
}

func (s *streams) record(ev *sim.Event) uint64 {
	s.fetchPC = append(s.fetchPC, ev.PC)
	op := ev.Instr.Op
	switch {
	case op.IsBranch():
		s.branchPC = append(s.branchPC, ev.PC)
		s.taken = append(s.taken, ev.Taken)
	case (op.IsLoad() || op.IsStore()) && !ev.MMIO:
		s.dataAddr = append(s.dataAddr, ev.MemAddr)
	}
	return 1
}

// replayBranches feeds a recorded branch stream into a fresh predictor
// and returns the nanoseconds it took and the mispredicts it made.
func replayBranches(name string, pcs []uint64, taken []bool) (float64, uint64, error) {
	p, err := bpred.New(name)
	if err != nil {
		return 0, 0, err
	}
	var miss uint64
	start := time.Now()
	for i, pc := range pcs {
		if p.Predict(pc) != taken[i] {
			miss++
		}
		p.Update(pc, taken[i])
	}
	return float64(time.Since(start).Nanoseconds()), miss, nil
}

// replayCache feeds an address stream into a fresh cache and returns the
// nanoseconds it took and the misses it counted.
func replayCache(cfg cache.Config, addrs []uint64) (float64, uint64, error) {
	c, err := cache.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	var miss uint64
	start := time.Now()
	for _, a := range addrs {
		if !c.Access(a) {
			miss++
		}
	}
	return float64(time.Since(start).Nanoseconds()), miss, nil
}
