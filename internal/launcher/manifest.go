package launcher

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"firemarshal/internal/hostutil"
)

// Record is one line of the JSONL run manifest. Field order is fixed and
// records appear in job-declaration order, so manifests from repeated runs
// of a deterministic workload diff cleanly (only the wall-clock and
// throughput fields vary between hosts).
type Record struct {
	Job      string  `json:"job"`
	Status   Status  `json:"status"`
	Attempts int     `json:"attempts"`
	Exit     int64   `json:"exit"`
	Cycles   uint64  `json:"cycles"`
	Instrs   uint64  `json:"instrs,omitempty"`
	WallMS   float64 `json:"wall_ms"`
	SimMIPS  float64 `json:"sim_mips"`
	// Resumed marks a job whose outcome was carried over or restored
	// from a checkpoint by `-resume`; Attempts then includes the prior
	// run's attempts.
	Resumed bool   `json:"resumed,omitempty"`
	Error   string `json:"error,omitempty"`
}

// record converts one result into its manifest record. Attempts counts
// across the interruption: prior-run attempts plus this run's. A carried
// result re-emits the prior run's record verbatim.
func (r *Result) record() Record {
	if r.Carried != nil {
		return *r.Carried
	}
	return Record{
		Job:      r.Name,
		Status:   r.Status,
		Attempts: r.Prior + r.Attempts,
		Exit:     r.Metrics.ExitCode,
		Cycles:   r.Metrics.Cycles,
		Instrs:   r.Metrics.Instrs,
		WallMS:   round1(float64(r.Wall) / float64(time.Millisecond)),
		SimMIPS:  round1(r.SimMIPS()),
		Resumed:  r.Resumed,
		Error:    r.Err,
	}
}

// Records converts the summary into manifest records, in job order.
func (s *Summary) Records() []Record {
	out := make([]Record, len(s.Jobs))
	for i := range s.Jobs {
		out[i] = s.Jobs[i].record()
	}
	return out
}

// EncodeManifest renders the summary as JSONL: one Record per line.
func EncodeManifest(s *Summary) []byte {
	var b strings.Builder
	for _, rec := range s.Records() {
		line, err := json.Marshal(rec)
		if err != nil {
			// Record holds only scalars; Marshal cannot fail.
			panic(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// WriteManifest atomically writes the JSONL run manifest to path.
func WriteManifest(path string, s *Summary) error {
	return hostutil.WriteFileAtomic(path, EncodeManifest(s), 0o644)
}

// FormatTable renders the human-readable summary table printed by
// `marshal launch`: per-job status, attempts, wall-clock, queue wait,
// simulated cycles, and sim-MIPS, followed by a totals line. The att
// column is sized from the rendered strings, so resumed jobs with
// double-digit attempt counts ("12+3") keep the layout aligned.
func FormatTable(s *Summary) string {
	atts := make([]string, len(s.Jobs))
	attW := len("att")
	for i := range s.Jobs {
		r := &s.Jobs[i]
		// Resumed jobs render attempts as prior+new ("2+1") so carried
		// work is visible at a glance.
		atts[i] = fmt.Sprintf("%d", r.Attempts)
		if r.Prior > 0 {
			atts[i] = fmt.Sprintf("%d+%d", r.Prior, r.Attempts)
		}
		if len(atts[i]) > attW {
			attW = len(atts[i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %-9s %*s  %10s  %8s  %14s  %9s  %4s\n",
		"job", "status", attW, "att", "wall", "wait", "cycles", "sim-MIPS", "exit")
	for i := range s.Jobs {
		r := &s.Jobs[i]
		// Jobs that made no attempt in this run (carried from a prior
		// run, skipped, cancelled before start) never waited in its
		// queue; their wait is "-".
		wait := "-"
		if r.Attempts > 0 {
			wait = r.QueueWait.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-24s %-9s %*s  %10s  %8s  %14d  %9.1f  %4d\n",
			r.Name, r.Status, attW, atts[i], r.Wall.Round(time.Millisecond), wait,
			r.Metrics.Cycles, r.SimMIPS(), r.Metrics.ExitCode)
	}
	fmt.Fprintf(&b, "%d job(s): %s  (workers=%d, wall %s)\n",
		len(s.Jobs), s.Counts(), s.Workers, s.Wall.Round(time.Millisecond))
	return b.String()
}

// round1 rounds to one decimal place so manifest floats render compactly.
// Non-finite inputs collapse to 0: a NaN or ±Inf (e.g. a sim_mips derived
// from a zero wall) would make encoding/json fail the whole manifest
// write mid-run. Values too large to round through uint64 pass through
// unrounded rather than overflow.
func round1(f float64) float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	if f < 0 || f >= float64(1<<60) {
		return f
	}
	n := f*10 + 0.5
	return float64(uint64(n)) / 10
}
