package obs

// Collector is the always-on continuous layer: every query the server
// completes is turned into a QueryRecord, judged by the SLO watchdog
// and offered to the tail-sampling capture ring. Its policy is fixed
// (the capture* and slo* constants). It owns no exposition of its own;
// Register wires its counters into an existing Registry, and SlowLog
// feeds GET /debug/queries.

import (
	"errors"
	"sync/atomic"
	"time"

	"commdb/internal/govern"
)

// Collector glues capture and the watchdog together; the zero value is
// ready to use.
type Collector struct {
	capture  Capture
	breaches atomic.Int64
}

// Serving holds the facts about a finished query only its serving layer
// knows; everything else in a QueryRecord comes from the trace.
type Serving struct {
	QueryID  string
	Endpoint string
	K        int // 0 for COMM-all
	Results  int
	// Stop is the query's stop error (nil means clean completion) and
	// StopReason the caller's rendering of it for display.
	Stop       error
	StopReason string
	Start      time.Time
	Elapsed    time.Duration
}

// NewQueryRecord assembles the capture record for one finished query:
// identity from the trace summary, outcome from the serving facts. A
// results-budget trip is ordinary completion of a bounded stream — the
// caller asked for at most that many — so it is recorded as the stop
// reason but does not mark the record errored.
func NewQueryRecord(sum *Summary, sv Serving) *QueryRecord {
	rec := &QueryRecord{
		QueryID:     sv.QueryID,
		Fingerprint: sum.Fingerprint,
		Keywords:    sum.Keywords,
		Rmax:        sum.Rmax,
		K:           sv.K,
		Endpoint:    sv.Endpoint,
		Indexed:     sum.Indexed,
		Start:       sv.Start,
		TotalMS:     durMS(sv.Elapsed),
		Results:     sv.Results,
		Trace:       sum,
	}
	if sv.Stop != nil {
		rec.StopReason = sv.StopReason
		var be govern.ErrBudgetExhausted
		rec.Errored = !(errors.As(sv.Stop, &be) && be.Resource == govern.ResourceResults)
	}
	return rec
}

// Observe runs one completed query through the continuous layer:
// watchdog verdict, then capture decision. It returns the record's
// breach verdict.
func (c *Collector) Observe(rec *QueryRecord) (breached bool) {
	if rec.Trace != nil {
		breach, maxMS, medMS := checkSLO(rec.Trace.Emissions)
		rec.MaxEmissionDelayMS = maxMS
		rec.MedianEmissionDelayMS = medMS
		if breach {
			rec.SLOBreach = true
			c.breaches.Add(1)
		}
	}
	c.capture.Observe(rec)
	return rec.SLOBreach
}

// Breaches returns the number of SLO breaches seen.
func (c *Collector) Breaches() int64 {
	return c.breaches.Load()
}

// SlowLog snapshots the capture ring, slowest first.
func (c *Collector) SlowLog() []QueryRecord {
	return c.capture.Snapshot()
}

// CaptureStats reports (queries observed, records retained).
func (c *Collector) CaptureStats() (observed, retained int64) {
	return c.capture.Stats()
}

// Register wires the collector into a metrics registry: the global
// breach counter and the capture ring's occupancy.
func (c *Collector) Register(reg *Registry) {
	reg.CounterFunc("commdb_emission_slo_breaches_total",
		"queries whose max inter-emission gap exceeded the SLO multiple of their median",
		c.breaches.Load)
	reg.CounterFunc("commdb_capture_observed_total", "completed queries offered to the capture ring",
		func() int64 { observed, _ := c.capture.Stats(); return observed })
	reg.CounterFunc("commdb_capture_retained_total", "query records retained by the capture ring",
		func() int64 { _, retained := c.capture.Stats(); return retained })
}
