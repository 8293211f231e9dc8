package obs

// Collector is the always-on continuous layer: every query the server
// completes is turned into a QueryRecord, judged by the SLO watchdog,
// folded into the per-class rolling aggregates, and offered to the
// tail-sampling capture ring. Its policy is fixed (the capture*, slo*
// and class* constants). It owns no exposition of its own; Register
// wires its state into an existing Registry, and SlowLog/Classes
// snapshots feed the JSON surfaces (GET /debug/queries, /statsz).

import (
	"errors"
	"sync/atomic"
	"time"

	"commdb/internal/govern"
)

// Collector glues capture, classes and the watchdog together.
type Collector struct {
	capture  Capture
	classes  *Classes
	breaches atomic.Int64
}

// NewCollector builds the continuous observability layer.
func NewCollector() *Collector {
	return &Collector{classes: NewClasses()}
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
		Class:       ClassKey(len(sum.Keywords), sum.Indexed),
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
// watchdog verdict, per-class aggregation, capture decision. It
// returns the record's breach verdict.
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
	c.classes.Observe(rec)
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

// Classes snapshots the per-class rolling aggregates.
func (c *Collector) Classes() []ClassSnapshot {
	return c.classes.Snapshot()
}

// CaptureStats reports (queries observed, records retained).
func (c *Collector) CaptureStats() (observed, retained int64) {
	return c.capture.Stats()
}

// Register wires the collector into a metrics registry: the global
// breach counter, capture occupancy, and the per-class families —
// cumulative counters labeled by class plus windowed gauges for rate,
// latency quantiles and emission delays. Labels render in a fixed
// order (indexed, keywords) across every family.
func (c *Collector) Register(reg *Registry) {
	reg.CounterFunc("commdb_emission_slo_breaches_total",
		"queries whose max inter-emission gap exceeded the SLO multiple of their median",
		c.breaches.Load)
	reg.CounterFunc("commdb_capture_observed_total", "completed queries offered to the capture ring",
		func() int64 { observed, _ := c.capture.Stats(); return observed })
	reg.CounterFunc("commdb_capture_retained_total", "query records retained by the capture ring",
		func() int64 { _, retained := c.capture.Stats(); return retained })

	classLabels := func(s *ClassSnapshot) []Label {
		return []Label{{Name: "indexed", Value: boolWord(s.Indexed)}, {Name: "keywords", Value: s.Keywords}}
	}
	family := func(value func(*ClassSnapshot) float64) func() []LabeledSample {
		return func() []LabeledSample {
			classes := c.classes.Snapshot()
			out := make([]LabeledSample, len(classes))
			for i := range classes {
				out[i] = LabeledSample{Labels: classLabels(&classes[i]), Value: value(&classes[i])}
			}
			return out
		}
	}
	reg.LabeledCounterFunc("commdb_class_queries_total", "completed queries per query class",
		family(func(s *ClassSnapshot) float64 { return float64(s.Total) }))
	reg.LabeledCounterFunc("commdb_class_errors_total", "errored or early-stopped queries per query class",
		family(func(s *ClassSnapshot) float64 { return float64(s.Errors) }))
	reg.LabeledCounterFunc("commdb_class_slo_breaches_total", "emission-delay SLO breaches per query class",
		family(func(s *ClassSnapshot) float64 { return float64(s.SLOBreaches) }))
	reg.LabeledGaugeFunc("commdb_class_query_rate", "sliding-window query rate per second per class",
		family(func(s *ClassSnapshot) float64 { return s.RatePerSec }))
	reg.LabeledGaugeFunc("commdb_class_latency_p50_ms", "sliding-window median latency per class",
		family(func(s *ClassSnapshot) float64 { return s.P50MS }))
	reg.LabeledGaugeFunc("commdb_class_latency_p95_ms", "sliding-window p95 latency per class",
		family(func(s *ClassSnapshot) float64 { return s.P95MS }))
	reg.LabeledGaugeFunc("commdb_class_latency_p99_ms", "sliding-window p99 latency per class",
		family(func(s *ClassSnapshot) float64 { return s.P99MS }))
	reg.LabeledGaugeFunc("commdb_class_emission_delay_max_ms", "sliding-window max inter-emission delay per class",
		family(func(s *ClassSnapshot) float64 { return s.EmissionMaxMS }))
	reg.LabeledGaugeFunc("commdb_class_emission_delay_mean_max_ms", "sliding-window mean of per-query max inter-emission delays per class",
		family(func(s *ClassSnapshot) float64 { return s.EmissionMeanMaxMS }))
}

func boolWord(b bool) string {
	if b {
		return "true"
	}
	return "false"
}
