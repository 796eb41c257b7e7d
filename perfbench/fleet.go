package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"firemarshal/internal/asm"
	"firemarshal/internal/cas"
	casremote "firemarshal/internal/cas/remote"
	"firemarshal/internal/core"
	lremote "firemarshal/internal/launcher/remote"
	"firemarshal/internal/obs"
	"firemarshal/internal/sim/funcsim"
)

// fleetCkptEvery is the fleet's checkpoint interval in retired
// instructions: every ref-dataset job (0.6M to 2M instructions) takes at
// least one snapshot.
const fleetCkptEvery = 500_000

// fleetWorkers is the loopback fleet: two worker daemons with one slot
// each.
const fleetWorkers = 2

// fleetSetup is a running fleet: a shared cache server, the worker
// daemons, and a coordinator checkout whose workload is already built.
type fleetSetup struct {
	dir     string
	jobs    []fleetJob
	cache   *server
	probe   *serverProbe
	workers []*lremote.Worker
	wsrvs   []*server
	runners []*runnerProbe
	addrs   []string
	m       *core.Marshal
}

func (s *fleetSetup) close() {
	for i := range s.wsrvs {
		s.wsrvs[i].Close()
		s.workers[i].Close()
	}
	s.cache.Close()
	os.RemoveAll(s.dir)
}

// fleetOp is what one fleet op measured.
type fleetOp struct {
	probed    bool
	launchAt  time.Time
	status    map[string]string // target -> launcher status
	lines     map[string]string // target -> printed result line
	cycles    map[string]uint64
	server    probeTotals
	workerReq int64
	runS      float64
	queueS    float64 // mean wait from launch to a worker starting the job
	snapshots float64
}

// outcome renders what the op's jobs produced, in job order, so equal
// outcomes of different ops compare equal.
func (o *fleetOp) outcome(jobs []fleetJob) string {
	var b strings.Builder
	for _, j := range jobs {
		t := j.target()
		fmt.Fprintf(&b, "%s %s %q %d\n", t, o.status[t], o.lines[t], o.cycles[t])
	}
	return b.String()
}

// fleet: one op launches the 8-job workload on the two-worker loopback
// fleet with checkpointing on and the protocol's default poll and lease
// intervals.
func runFleet(r *run) error {
	// The generated workload is written once; every set-up builds it
	// into a work dir of its own.
	wl := filepath.Join(r.dir, "workloads")
	jobs, err := writeFleetWorkload(wl, r.seed)
	if err != nil {
		return err
	}
	st, err := timeSetups(r, func(rep int) (*fleetSetup, error) { return setupFleet(r, rep, wl, jobs) }, (*fleetSetup).close)
	if err != nil {
		return err
	}
	defer st.close()
	// Which worker fetches which artifacts, and how often the coordinator
	// polls, depend on scheduling.
	r.varies["remote.bytes_served"] = true
	r.varies["remote.bytes_stored"] = true
	r.varies["remote.requests"] = true
	r.varies["launcher.worker_requests"] = true

	transport := &countingTransport{inner: http.DefaultTransport}
	metricsPath := filepath.Join(r.dir, "metrics.json")
	// Ops with the same outcome are checked once: outcomes keeps one op per
	// distinct outcome, and probed the figures of a traced run's probed
	// ops, so memory does not grow with the op count.
	outcomes := map[string]fleetOp{}
	var probed []fleetOp
	var cur fleetOp
	prepare := func(i int) error {
		st.m.Obs = obs.NewRegistry()
		transport.n.Store(0)
		return nil
	}
	op := func(i int, probes bool) error {
		cur = fleetOp{probed: probes}
		opts := core.LaunchOpts{Workers: st.addrs, CkptEvery: fleetCkptEvery}
		for _, p := range st.runners {
			p.reset(probes)
		}
		st.probe.on.Store(probes)
		before := st.probe.totals()
		if probes {
			opts.WorkerTransport = transport
			opts.MetricsPath = metricsPath
		}
		cur.launchAt = time.Now()
		res, err := st.m.Launch("parjobs", opts)
		if err != nil {
			return err
		}
		cur.server = st.probe.totals().minus(before)
		cur.status, cur.lines, cur.cycles = map[string]string{}, map[string]string{}, map[string]uint64{}
		for _, j := range st.m.LastLaunch.Jobs {
			cur.status[j.Name] = string(j.Status)
		}
		for _, rr := range res {
			cur.cycles[rr.Target] = rr.Cycles
		}
		return nil
	}
	after := func(i int) {
		for _, j := range st.jobs {
			log, err := os.ReadFile(filepath.Join(st.m.RunDir(j.target()), "uartlog"))
			r.check(err)
			cur.lines[j.target()] = resultLine(string(log), j.bench)
		}
		if cur.probed {
			cur.workerReq = transport.n.Load()
			var starts float64
			for _, p := range st.runners {
				cur.runS += float64(p.runNS.Load()) / 1e9
				p.mu.Lock()
				for _, t := range p.starts {
					starts += t.Sub(cur.launchAt).Seconds()
				}
				p.mu.Unlock()
			}
			cur.queueS = starts / float64(len(st.jobs))
			var snap obs.Snapshot
			data, err := os.ReadFile(metricsPath)
			if err == nil {
				err = json.Unmarshal(data, &snap)
			}
			r.check(err)
			cur.snapshots = float64(snap.Counters["remote_checkpoints_total"])
			probed = append(probed, fleetOp{runS: cur.runS, queueS: cur.queueS, workerReq: cur.workerReq,
				server: cur.server, snapshots: cur.snapshots})
		}
		if key := cur.outcome(st.jobs); outcomes[key].status == nil {
			outcomes[key] = cur
		}
	}
	stats, err := r.loop(prepare, op, after)
	if err != nil {
		return err
	}
	r.report(stats)

	// References, outside the timed window: a bare funcsim run of each
	// job's binary, and a local launch of the same workload.
	funcLines := map[string]string{}
	var instrs uint64
	var funcS float64
	for _, j := range st.jobs {
		b, err := benchByName(j.bench)
		if err != nil {
			return err
		}
		exe, err := asm.Assemble(b.Source("ref"), asm.Options{})
		if err != nil {
			return err
		}
		var out bytes.Buffer
		start := time.Now()
		res, err := funcsim.New(funcsim.Config{Obs: obs.NewRegistry()}).Exec(exe, &out)
		if err != nil {
			return err
		}
		funcS += time.Since(start).Seconds()
		funcLines[j.target()] = strings.TrimSpace(out.String())
		instrs += res.Instrs
	}
	local, err := core.New(filepath.Join(st.dir, "local-work"), wl)
	if err != nil {
		return err
	}
	local.Obs = obs.NewRegistry()
	lres, err := local.Launch("parjobs", core.LaunchOpts{Jobs: 1})
	if err != nil {
		return err
	}
	localCycles := map[string]uint64{}
	for _, rr := range lres {
		localCycles[rr.Target] = rr.Cycles
	}
	for _, o := range outcomes {
		for _, j := range st.jobs {
			t := j.target()
			r.check(checkFleetJob(t, o.status[t], o.lines[t], o.cycles[t], funcLines[t], localCycles[t]))
		}
	}

	if r.trace {
		var run, queue, reqs, cacheReqs, get, put, served, stored, snaps []float64
		for _, o := range probed {
			run = append(run, o.runS)
			queue = append(queue, o.queueS)
			reqs = append(reqs, float64(o.workerReq))
			get = append(get, o.server.getS)
			put = append(put, o.server.putS)
			cacheReqs = append(cacheReqs, float64(o.server.reqs))
			served = append(served, float64(o.server.served))
			stored = append(stored, float64(o.server.stored))
			snaps = append(snaps, o.snapshots)
		}
		r.set("launcher.worker_run_s", "s", median(run))
		r.set("launcher.coord_idle_s", "s", median(stats.wall)-median(run)/fleetWorkers)
		r.set("launcher.queue_wait_s", "s", median(queue))
		r.set("launcher.worker_requests", "count", median(reqs))
		r.set("remote.get_s", "s", median(get))
		r.set("remote.put_s", "s", median(put))
		r.set("remote.bytes_served", "bytes", median(served))
		r.set("remote.bytes_stored", "bytes", median(stored))
		r.set("remote.requests", "count", median(cacheReqs))
		r.set("checkpoint.snapshots", "count", median(snaps))
		r.set("funcsim.instrs", "count", float64(instrs))
		r.set("funcsim.ns_per_instr", "ns", funcS/float64(instrs)*1e9)
		return fleetLayers(r, st)
	}
	return nil
}

// fleetLayers times, from outside, the coordinator-side layers every
// fleet launch goes through before it leases a job: the up-to-date build
// check, and publishing the jobs' artifacts to the cache.
func fleetLayers(r *run, st *fleetSetup) error {
	sec, err := timeMedian(layerReps, func() error {
		_, err := st.m.Build("parjobs", core.BuildOpts{})
		return err
	})
	if err != nil {
		return err
	}
	r.set("core.build_s", "s", sec)
	arts, err := filepath.Glob(filepath.Join(st.m.WorkDir, "images", "*"))
	if err != nil {
		return err
	}
	sort.Strings(arts)
	return casLayers(r, arts)
}

// setupFleet starts the cache server and the worker daemons and builds
// the fleet workload in wl into a fresh coordinator work dir.
func setupFleet(r *run, rep int, wl string, jobs []fleetJob) (*fleetSetup, error) {
	dir, err := r.setupDir(rep)
	if err != nil {
		return nil, err
	}
	s := &fleetSetup{dir: dir, jobs: jobs}
	store, err := cas.Open(filepath.Join(dir, "cache-server"))
	if err != nil {
		return nil, err
	}
	s.probe = &serverProbe{inner: casremote.NewServer(store)}
	if s.cache, err = serve(s.probe); err != nil {
		return nil, err
	}
	for i := 0; i < fleetWorkers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		wstore, err := cas.Open(filepath.Join(wdir, "store"))
		if err != nil {
			s.close()
			return nil, err
		}
		p := &runnerProbe{inner: &lremote.ArtifactRunner{
			Store:   wstore,
			Remote:  casremote.NewClient(s.cache.URL, 0),
			CkptDir: filepath.Join(wdir, "ckpt"),
			Obs:     obs.NewRegistry(),
		}}
		p.reset(false)
		w := lremote.NewWorker(lremote.WorkerConfig{Runner: p, Slots: 1, Obs: obs.NewRegistry()})
		srv, err := serve(w)
		if err != nil {
			w.Close()
			s.close()
			return nil, err
		}
		s.workers = append(s.workers, w)
		s.wsrvs = append(s.wsrvs, srv)
		s.runners = append(s.runners, p)
		s.addrs = append(s.addrs, srv.Addr)
	}
	if s.m, err = core.New(filepath.Join(dir, "work"), wl); err != nil {
		s.close()
		return nil, err
	}
	s.m.RemoteCache = s.cache.URL
	s.m.Obs = obs.NewRegistry()
	if _, err := s.m.Build("parjobs", core.BuildOpts{}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}
