package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"firemarshal/internal/checkpoint"
	"firemarshal/internal/launcher"
	"firemarshal/internal/obs"
)

// CoordOptions parameterizes a coordinated (fleet) launch.
type CoordOptions struct {
	// Workers lists worker addresses ("host:port"). At least one must
	// answer the initial status probe.
	Workers []string
	// Journal, when set, receives a start record per attempt and a done
	// record per terminal job, exactly as a local launch journals — the
	// coordinator's journal/manifest stays the single source of truth,
	// and `-resume` after a coordinator crash works unchanged.
	Journal *launcher.Journal
	// LeaseTTL is how long a worker may go unreachable before its leases
	// are forfeited and re-assigned (default 10s).
	LeaseTTL time.Duration
	// Poll is the event-poll (= heartbeat) interval (default 100ms).
	Poll time.Duration
	// RequestTimeout bounds each control request (default DefaultTimeout).
	RequestTimeout time.Duration
	// NoSteal disables work-stealing (for deterministic tests).
	NoSteal bool
	// HedgeAfter, when positive, duplicates a started-but-silent job onto
	// an idle healthy worker once its lease is this old — the straggler
	// and the hedge race, the first terminal event wins, and determinism
	// makes the race benign (both copies compute identical results). Zero
	// disables hedging.
	HedgeAfter time.Duration
	// Transport, when set, wraps every worker client's HTTP transport
	// (chaos fault injection).
	Transport http.RoundTripper
	// OnCheckpoint runs for each checkpoint a worker announces; the core
	// integration persists the pointer into the run's checkpoint
	// directory so a coordinator crash resumes from it.
	OnCheckpoint func(ptr *checkpoint.Pointer)
	// OnDone runs for each terminal job (once), with its done event; the
	// core integration materializes the console and outputs from the
	// remote cache into the job's run directory. Errors are logged, never
	// fatal — the journal already holds the authoritative record.
	OnDone func(ev Event) error
	// Obs is the registry remote_* fleet metrics report into.
	Obs *obs.Registry
	// Log receives scheduling decisions and fleet-health messages.
	Log io.Writer
}

// Worker health scoring: a leaky fault counter per worker. Poll and
// submit failures add, successful polls drain, and crossing the
// threshold quarantines the worker — it keeps its running leases (the
// TTL remains the only forfeit path) but receives no new ones for the
// rest of the run. Quarantine is sticky: a worker flaky enough to cross
// the threshold once doesn't get to poison tail latency again.
const (
	faultPoll           = 1
	faultSubmit         = 2
	quarantineThreshold = 6
	// reconcileEvery is the successful-poll cadence of the reconcile
	// pass: a Status fetch that re-derives lease truth from the worker
	// (a job we think it owns but it doesn't hold was lost in transit —
	// e.g. a steal whose response dropped — and must be re-leased).
	reconcileEvery = 8
	// maxRefusals bounds how many full assignment sweeps a job survives
	// without any worker accepting it before it fails terminally.
	maxRefusals = 50
)

// cjob is the coordinator's view of one job.
type cjob struct {
	spec      JobSpec // current lease's spec (Prior/Ckpt evolve across leases)
	origPrior int     // Prior at entry, for the summary's prior/fresh split
	worker    int     // owning worker index, -1 when unowned
	hedge     int     // hedge worker index, -1 when not hedged
	leased    time.Time
	// firstLeased is the job's first lease; wait runs from it to the
	// first start event seen from an owner (the summary's queue wait,
	// observed at poll granularity).
	firstLeased time.Time
	wait        time.Duration
	started     bool // a start event arrived from the current worker
	maxAtt      int  // highest absolute attempt observed
	refusals    int  // failed assignment sweeps (liveness bound)
	ckpt        *checkpoint.Pointer
	done        bool
	rec         launcher.Record
}

// cworker is the coordinator's view of one worker.
type cworker struct {
	client      *WorkerClient
	alive       bool
	quarantined bool
	faults      int       // leaky fault counter
	polls       int       // successful polls (reconcile cadence)
	cursor      int       // event-log read position
	lastOK      time.Time // last successful poll — the lease clock
}

// coordinator drives one fleet launch.
type coordinator struct {
	opts    CoordOptions
	order   []string
	jobs    map[string]*cjob
	workers []*cworker
}

// Launch distributes specs across the worker fleet and blocks until every
// job is terminal (or ctx is cancelled). Scheduling is least-loaded with
// ties broken by worker order; stragglers are rebalanced by stealing
// still-queued jobs onto idle workers and by hedging started-but-slow
// jobs onto healthy ones; a worker unreachable past the lease TTL
// forfeits its jobs, which re-lease — restoring from the latest
// replicated checkpoint — onto live workers; an error-prone worker is
// quarantined from new leases. The returned summary carries each job's
// verbatim worker record, so manifests compacted from it match
// single-machine runs (wall-clock fields aside).
func Launch(ctx context.Context, specs []JobSpec, opts CoordOptions) (*launcher.Summary, error) {
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("remote: no workers configured")
	}
	if len(specs) == 0 {
		return &launcher.Summary{}, nil
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Poll <= 0 {
		opts.Poll = 100 * time.Millisecond
	}
	if opts.Log == nil {
		opts.Log = io.Discard
	}
	if ctx == nil {
		ctx = context.Background()
	}

	c := &coordinator{opts: opts, jobs: map[string]*cjob{}}
	for _, spec := range specs {
		if _, dup := c.jobs[spec.Name]; dup {
			return nil, fmt.Errorf("remote: duplicate job name %q", spec.Name)
		}
		c.order = append(c.order, spec.Name)
		c.jobs[spec.Name] = &cjob{spec: spec, origPrior: spec.Prior, worker: -1, hedge: -1}
	}

	// Registration: probe every worker once; a worker that answers is in
	// the fleet. The run needs at least one.
	now := time.Now()
	for _, addr := range opts.Workers {
		cl := NewWorkerClient(addr, opts.RequestTimeout)
		if opts.Transport != nil {
			cl.SetTransport(opts.Transport)
		}
		w := &cworker{client: cl, lastOK: now}
		if st, err := w.client.Status(ctx); err == nil {
			w.alive = true
			w.cursor = st.Seq
			c.logf("coordinator: worker %s registered (slots=%d)", addr, st.Slots)
		} else {
			c.logf("coordinator: worker %s unreachable at start: %v", addr, err)
		}
		c.workers = append(c.workers, w)
	}
	c.gauges()
	if c.aliveCount() == 0 {
		return nil, fmt.Errorf("remote: none of %d workers answered the status probe", len(opts.Workers))
	}

	start := time.Now()
	for _, name := range c.order {
		c.assign(ctx, c.jobs[name])
	}

	tick := time.NewTicker(opts.Poll)
	defer tick.Stop()
	cancelled := false
	for !c.allDone() && !cancelled {
		select {
		case <-ctx.Done():
			cancelled = true
		case <-tick.C:
			c.pollAll(ctx)
			c.reassignOrphans(ctx)
			if !opts.NoSteal {
				c.steal(ctx)
			}
			if opts.HedgeAfter > 0 {
				c.hedgeStragglers(ctx)
			}
		}
	}

	workers := 0
	for _, w := range c.workers {
		if w.alive {
			workers++
		}
	}
	sum := &launcher.Summary{Wall: time.Since(start), Workers: max(workers, 1)}
	for _, name := range c.order {
		j := c.jobs[name]
		if j.done {
			rec := j.rec
			sum.Jobs = append(sum.Jobs, launcher.Result{
				Name:      name,
				Status:    rec.Status,
				Attempts:  rec.Attempts - j.origPrior,
				Prior:     j.origPrior,
				Resumed:   rec.Resumed,
				Err:       rec.Error,
				Metrics:   launcher.Metrics{ExitCode: rec.Exit, Cycles: rec.Cycles, Instrs: rec.Instrs},
				Wall:      time.Duration(rec.WallMS * float64(time.Millisecond)),
				QueueWait: j.wait,
				Carried:   &rec,
			})
			continue
		}
		// Not terminal when the loop ended: the run was cancelled. No
		// done record is journaled, so `-resume` re-runs (or restores)
		// these jobs.
		sum.Jobs = append(sum.Jobs, launcher.Result{
			Name:     name,
			Status:   launcher.StatusCancelled,
			Attempts: j.maxAtt - j.origPrior,
			Prior:    j.origPrior,
			Resumed:  j.spec.Resumed,
			Err:      "run cancelled with job on worker fleet",
		})
	}
	return sum, nil
}

func (c *coordinator) logf(format string, args ...any) {
	fmt.Fprintf(c.opts.Log, format+"\n", args...)
}

func (c *coordinator) aliveCount() int {
	n := 0
	for _, w := range c.workers {
		if w.alive {
			n++
		}
	}
	return n
}

// gauges refreshes the fleet-health gauges: the aggregate up and
// quarantined counts and a per-worker 0/1 gauge (registry names are
// label-free, so the worker address is folded into the metric name).
func (c *coordinator) gauges() {
	quarantined := 0
	for _, w := range c.workers {
		if w.alive && w.quarantined {
			quarantined++
		}
	}
	c.opts.Obs.Gauge("remote_workers_up").Set(float64(c.aliveCount()))
	c.opts.Obs.Gauge("remote_workers_quarantined").Set(float64(quarantined))
	for _, w := range c.workers {
		up := 0.0
		if w.alive {
			up = 1.0
		}
		c.opts.Obs.Gauge("remote_worker_up_" + obs.SanitizeName(w.client.Addr)).Set(up)
	}
}

// noteFault charges a worker's leaky fault counter; crossing the
// threshold quarantines it (no new leases; running leases keep going —
// the lease TTL stays the only forfeit path).
func (c *coordinator) noteFault(wi, weight int) {
	w := c.workers[wi]
	w.faults += weight
	if w.faults >= quarantineThreshold && !w.quarantined {
		w.quarantined = true
		c.opts.Obs.Counter("remote_worker_quarantines_total").Inc()
		c.logf("coordinator: quarantining error-prone worker %s (fault score %d)", w.client.Addr, w.faults)
		c.gauges()
	}
}

// noteOK drains the fault counter on a successful poll (the leak in the
// leaky bucket; a quarantine itself is sticky).
func (c *coordinator) noteOK(wi int) {
	if w := c.workers[wi]; w.faults > 0 {
		w.faults--
	}
}

func (c *coordinator) allDone() bool {
	for _, j := range c.jobs {
		if !j.done {
			return false
		}
	}
	return true
}

// outstanding counts a worker's not-yet-terminal leases (hedge copies
// included), the scheduler's load metric.
func (c *coordinator) outstanding(wi int) int {
	n := 0
	for _, j := range c.jobs {
		if !j.done && (j.worker == wi || j.hedge == wi) {
			n++
		}
	}
	return n
}

// assign leases a job to the least-loaded live, non-quarantined worker
// (ties: lowest worker index, so schedules are deterministic given
// worker order); when every healthy worker is quarantined the job falls
// back to quarantined-but-alive ones rather than failing. A worker that
// refuses the lease is charged a fault and skipped for this sweep —
// transient refusals no longer declare it dead (the lease TTL decides
// death). A job no worker accepts stays unowned and is retried next
// tick, up to a refusal bound; it fails terminally only with zero live
// workers or the bound exhausted.
func (c *coordinator) assign(ctx context.Context, j *cjob) {
	tried := map[int]bool{}
	for ctx.Err() == nil {
		best := -1
		for pass := 0; pass < 2 && best == -1; pass++ {
			for i, w := range c.workers {
				if !w.alive || tried[i] || (pass == 0 && w.quarantined) {
					continue
				}
				if best == -1 || c.outstanding(i) < c.outstanding(best) {
					best = i
				}
			}
		}
		if best == -1 {
			if c.aliveCount() > 0 && len(tried) > 0 {
				// Every live worker refused this sweep; leave the job
				// unowned and let the next tick retry with fresh luck.
				j.refusals++
				if j.refusals <= maxRefusals {
					j.worker = -1
					return
				}
			}
			c.finishJob(j, launcher.Record{
				Job:      j.spec.Name,
				Status:   launcher.StatusFailed,
				Attempts: j.spec.Prior,
				Resumed:  j.spec.Resumed,
				Error:    "remote: no live workers to lease the job to",
			}, Event{})
			return
		}
		if err := c.workers[best].client.Submit(ctx, j.spec); err != nil && !errors.Is(err, ErrAlreadyLeased) {
			if ctx.Err() != nil {
				// The run is being cancelled, not the worker dying: leave
				// the job unowned so the summary reports it cancelled.
				return
			}
			c.logf("coordinator: worker %s refused lease for %s: %v", c.workers[best].client.Addr, j.spec.Name, err)
			c.noteFault(best, faultSubmit)
			tried[best] = true
			continue
		}
		j.worker = best
		j.started = false
		j.leased = time.Now()
		if j.firstLeased.IsZero() {
			j.firstLeased = j.leased
		}
		j.refusals = 0
		if j.hedge == best {
			j.hedge = -1
		}
		c.opts.Obs.Counter("remote_leases_total").Inc()
		c.opts.Obs.Gauge("remote_worker_queue_" + obs.SanitizeName(c.workers[best].client.Addr)).Set(float64(c.outstanding(best)))
		c.logf("coordinator: leased %s to worker %s", j.spec.Name, c.workers[best].client.Addr)
		return
	}
}

// reassignOrphans retries jobs left unowned by an all-refused sweep.
func (c *coordinator) reassignOrphans(ctx context.Context) {
	for _, name := range c.order {
		if j := c.jobs[name]; !j.done && j.worker == -1 {
			c.assign(ctx, j)
		}
	}
}

// pollAll drains every live worker's event log; the successful poll is
// the heartbeat. A worker silent past the lease TTL forfeits its leases;
// every reconcileEvery-th heartbeat cross-checks the worker's job table
// against ours.
func (c *coordinator) pollAll(ctx context.Context) {
	for wi, w := range c.workers {
		if !w.alive {
			c.revive(ctx, wi)
			continue
		}
		evs, err := w.client.Events(ctx, w.cursor)
		if err != nil {
			c.noteFault(wi, faultPoll)
			if time.Since(w.lastOK) > c.opts.LeaseTTL {
				c.expire(ctx, wi)
			}
			continue
		}
		w.lastOK = time.Now()
		w.polls++
		c.noteOK(wi)
		c.opts.Obs.Counter("remote_heartbeats_total").Inc()
		for _, ev := range evs {
			w.cursor = ev.Seq + 1
			c.handleEvent(ctx, wi, ev)
		}
		if w.polls%reconcileEvery == 0 {
			c.reconcile(ctx, wi)
		}
	}
}

// revive re-probes a dead worker each tick. A worker that failed the
// initial registration probe (or went silent past the lease TTL) is not
// gone forever: the moment it answers again it rejoins the fleet at its
// current event cursor. Its forfeited jobs already re-leased elsewhere,
// and any stale events it emits for them are ignored (handleEvent only
// honors the current owner and hedge), so rejoining is always safe.
// A quarantine survives revival — flakiness is why it went dark.
func (c *coordinator) revive(ctx context.Context, wi int) {
	w := c.workers[wi]
	st, err := w.client.Status(ctx)
	if err != nil {
		// Failed probes count against the health score: a worker that
		// repeatedly cannot answer Status is error-prone, and if it ever
		// does rejoin it should rejoin quarantined rather than poison
		// tail latency with fresh leases.
		c.noteFault(wi, faultPoll)
		return
	}
	w.alive = true
	w.cursor = st.Seq
	w.lastOK = time.Now()
	c.logf("coordinator: worker %s (re)joined the fleet (slots=%d)", w.client.Addr, st.Slots)
	c.gauges()
}

// reconcile re-derives lease truth from one worker's own job table. A
// job we believe it owns that is absent there was lost in transit — the
// canonical case is a Steal whose success response dropped, leaving the
// worker without the job while we still charge it to the victim. Workers
// keep finished jobs in their table (only a steal removes an entry), so
// absence is unambiguous: the lease is gone, re-lease it.
func (c *coordinator) reconcile(ctx context.Context, wi int) {
	st, err := c.workers[wi].client.Status(ctx)
	if err != nil {
		c.noteFault(wi, faultPoll)
		return
	}
	for _, name := range c.order {
		j := c.jobs[name]
		if j.done {
			continue
		}
		if _, held := st.Jobs[name]; held {
			continue
		}
		switch wi {
		case j.worker:
			c.logf("coordinator: worker %s no longer holds %s; re-leasing", c.workers[wi].client.Addr, name)
			c.opts.Obs.Counter("remote_reconciled_leases_total").Inc()
			c.relay(ctx, j)
		case j.hedge:
			j.hedge = -1
		}
	}
}

// handleEvent folds one worker event into the journal and run state.
// Events are honored from the job's owner and its hedge; anything else
// is stale (the job was re-leased or stolen away since the event).
func (c *coordinator) handleEvent(ctx context.Context, wi int, ev Event) {
	j, ok := c.jobs[ev.Job]
	if !ok || j.done {
		return
	}
	fromOwner := j.worker == wi
	if !fromOwner && j.hedge != wi {
		return
	}
	switch ev.Type {
	case EventStart:
		if ev.Attempt > j.maxAtt {
			j.maxAtt = ev.Attempt
		}
		if !fromOwner {
			return // the hedge's start doesn't change the owner lease state
		}
		j.started = true
		if j.wait == 0 {
			j.wait = time.Since(j.firstLeased)
		}
		if err := c.opts.Journal.Start(ev.Job, ev.Attempt); err != nil {
			c.logf("coordinator: journal write failed: %v", err)
		}
	case EventCheckpoint:
		if ev.Ckpt != nil {
			j.ckpt = ev.Ckpt
			c.opts.Obs.Counter("remote_checkpoints_total").Inc()
			if c.opts.OnCheckpoint != nil {
				c.opts.OnCheckpoint(ev.Ckpt)
			}
		}
	case EventDone:
		if ev.Record == nil {
			return
		}
		// A cancelled record from a live worker means the worker is
		// shutting down gracefully, not that the job failed: drop the
		// hedge copy, or promote the hedge when the owner forfeits, or
		// re-lease when there is no hedge.
		if ev.Record.Status == launcher.StatusCancelled && ctx.Err() == nil {
			if !fromOwner {
				j.hedge = -1
				return
			}
			if j.hedge >= 0 && c.workers[j.hedge].alive {
				c.logf("coordinator: worker %s forfeited %s; promoting hedge on %s",
					c.workers[wi].client.Addr, ev.Job, c.workers[j.hedge].client.Addr)
				j.worker, j.hedge = j.hedge, -1
				return
			}
			c.logf("coordinator: worker %s forfeited %s (shutting down); re-leasing", c.workers[wi].client.Addr, ev.Job)
			c.relay(ctx, j)
			return
		}
		if ev.Record.Attempts > j.maxAtt {
			j.maxAtt = ev.Record.Attempts
		}
		c.finishJob(j, *ev.Record, ev)
	}
}

// relay re-leases a forfeited job onto a live worker, restoring from the
// latest replicated checkpoint when one exists.
func (c *coordinator) relay(ctx context.Context, j *cjob) {
	spec := j.spec
	if j.maxAtt > spec.Prior {
		spec.Prior = j.maxAtt
	}
	spec.Ckpt = j.ckpt
	spec.Resumed = spec.Resumed || spec.Prior > 0 || spec.Ckpt != nil
	j.spec = spec
	j.worker = -1
	c.assign(ctx, j)
}

// expire declares a worker dead and re-leases everything it held — or
// promotes the hedge copy where one is already running elsewhere.
func (c *coordinator) expire(ctx context.Context, wi int) {
	w := c.workers[wi]
	w.alive = false
	c.gauges()
	var forfeited []*cjob
	for _, name := range c.order {
		j := c.jobs[name]
		if j.done {
			continue
		}
		if j.hedge == wi {
			j.hedge = -1
		}
		if j.worker == wi {
			forfeited = append(forfeited, j)
		}
	}
	c.logf("coordinator: worker %s lease expired (silent > %s); re-leasing %d job(s)",
		w.client.Addr, c.opts.LeaseTTL, len(forfeited))
	for _, j := range forfeited {
		c.opts.Obs.Counter("remote_lease_expiries_total").Inc()
		if j.hedge >= 0 && c.workers[j.hedge].alive {
			c.logf("coordinator: promoting hedge of %s on %s", j.spec.Name, c.workers[j.hedge].client.Addr)
			j.worker, j.hedge = j.hedge, -1
			j.started = true // conservative: never steal a possibly-running hedge
			continue
		}
		ckpt := ""
		if j.ckpt != nil {
			ckpt = fmt.Sprintf(" (restoring from checkpoint at instret %d)", j.ckpt.Instret)
		}
		c.logf("coordinator: re-leasing %s%s", j.spec.Name, ckpt)
		c.relay(ctx, j)
	}
}

// steal rebalances stragglers: an idle, healthy worker takes a
// still-queued job from the most-loaded worker. The owning worker
// arbitrates (409 once the job started), so a steal never duplicates a
// running simulation.
func (c *coordinator) steal(ctx context.Context) {
	for wi, w := range c.workers {
		if !w.alive || w.quarantined || c.outstanding(wi) != 0 {
			continue
		}
		// Victim: the live worker with the most outstanding leases, at
		// least two (stealing a worker's only job would just move it).
		victim := -1
		for vi, v := range c.workers {
			if vi == wi || !v.alive || c.outstanding(vi) < 2 {
				continue
			}
			if victim == -1 || c.outstanding(vi) > c.outstanding(victim) {
				victim = vi
			}
		}
		if victim == -1 {
			continue
		}
		for _, name := range c.order {
			j := c.jobs[name]
			if j.done || j.worker != victim || j.started {
				continue
			}
			ok, err := c.workers[victim].client.Steal(ctx, name)
			if err != nil || !ok {
				continue
			}
			c.opts.Obs.Counter("remote_steals_total").Inc()
			c.logf("coordinator: worker %s stole %s from %s",
				w.client.Addr, name, c.workers[victim].client.Addr)
			j.worker = -1
			c.assign(ctx, j)
			break
		}
	}
}

// hedgeStragglers duplicates started-but-slow jobs onto idle healthy
// workers. Only running jobs are hedged (queued stragglers are the steal
// pass's business), the hedge goes to a non-quarantined idle worker, and
// the first terminal event — owner's or hedge's — wins. Determinism
// makes the duplicate harmless: both copies compute bit-identical
// results, so whichever finishes first reports the same record.
func (c *coordinator) hedgeStragglers(ctx context.Context) {
	for _, name := range c.order {
		j := c.jobs[name]
		if j.done || j.worker < 0 || j.hedge >= 0 || !j.started || time.Since(j.leased) < c.opts.HedgeAfter {
			continue
		}
		for hi, h := range c.workers {
			if hi == j.worker || !h.alive || h.quarantined || c.outstanding(hi) != 0 {
				continue
			}
			spec := j.spec
			spec.Ckpt = j.ckpt
			spec.Resumed = spec.Resumed || spec.Ckpt != nil
			if err := h.client.Submit(ctx, spec); err != nil && !errors.Is(err, ErrAlreadyLeased) {
				c.noteFault(hi, faultSubmit)
				continue
			}
			j.hedge = hi
			c.opts.Obs.Counter("remote_hedges_total").Inc()
			c.logf("coordinator: hedging straggler %s (on %s) onto %s",
				name, c.workers[j.worker].client.Addr, h.client.Addr)
			break
		}
	}
}

// finishJob records a job's terminal state and runs the OnDone hook.
func (c *coordinator) finishJob(j *cjob, rec launcher.Record, ev Event) {
	j.done = true
	j.rec = rec
	if err := c.opts.Journal.Done(rec); err != nil {
		c.logf("coordinator: journal write failed: %v", err)
	}
	c.opts.Obs.Counter("remote_jobs_done_total").Inc()
	if c.opts.OnDone != nil && ev.Type == EventDone {
		if err := c.opts.OnDone(ev); err != nil {
			c.logf("coordinator: materializing %s: %v", rec.Job, err)
		}
	}
	c.logf("coordinator: job %-24s %s (attempts=%d)", rec.Job, rec.Status, rec.Attempts)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
