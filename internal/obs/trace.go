// Package obs is the observability layer of the search stack: per-query
// traces and process-wide metrics, with zero dependencies beyond the
// standard library.
//
// # Traces
//
// A *Trace rides a query's context.Context (ContextWithTrace /
// FromContext) through every layer — index projection, the bounded
// Dijkstra runs of internal/sssp, the engine primitives of
// internal/core, the enumerators, and the governor — each of which
// records spans and counters into it. The paper's headline claims are
// about where time goes (polynomial delay between emitted communities,
// inverted-index projection shrinking the Dijkstra frontier, can-list
// growth in COMM-k); a Trace makes each of those directly observable
// per query.
//
// Every method is safe on a nil *Trace and does no work, so an
// untraced query pays one nil check per instrumentation point and
// allocates nothing — a property locked by tests. Instrumented hot
// loops accumulate locally and flush once per Dijkstra run (see
// DijkstraRun), keeping tracing off the per-edge critical path even
// when enabled.
//
// # Span and counter taxonomy
//
// Spans (per-stage wall-clock):
//
//   - project     — inverted-index projection (Algorithm 6)
//   - engine_init — keyword resolution and engine construction
//   - enumerate   — first Next until exhaustion
//
// Counters:
//
//   - dijkstra_runs, dijkstra_visits, dijkstra_relaxations,
//     heap_pushes, heap_pops, radius_cutoffs — shortest-path engine
//   - neighbor_runs, bestcore_scans, getcommunity_calls — core engine
//   - emitted — communities produced
//   - can_tuples, can_list_max — COMM-k can-list growth
//   - project_union_nodes, project_union_edges, project_nodes_kept,
//     project_nodes_dropped, project_edges_kept — index projection
//   - budget_* — governor resources consumed (snapshotted at Summary)
//
// A Trace is safe for concurrent use; a query that fans out work can
// share one Trace across goroutines.
package obs

import (
	"sync"
	"time"
)

// MaxStoredDelays bounds how many individual inter-emission delays a
// trace retains verbatim; aggregates (count, mean, max) cover the rest,
// so COMM-all queries with huge result sets keep bounded traces.
const MaxStoredDelays = 512

// Trace collects one query's spans, engine counters and inter-emission
// delays. The zero value is not useful; create traces with NewTrace.
// All methods are no-ops on a nil receiver.
type Trace struct {
	start   time.Time
	queryID string

	mu        sync.Mutex
	labels    map[string]string
	spans     []SpanSummary
	counters  map[string]int64
	emitCount int64
	emitSum   time.Duration
	emitMax   time.Duration
	lastEmit  time.Time
	delays    []time.Duration
	finishers []func(*Trace)
	finished  bool
}

// NewTrace starts a trace. queryID ties the trace to log lines and
// response headers; it may be empty.
func NewTrace(queryID string) *Trace {
	return &Trace{start: time.Now(), queryID: queryID}
}

// Enabled reports whether the trace records anything (i.e. is non-nil),
// for call sites that want to skip building inputs to a record call.
func (t *Trace) Enabled() bool { return t != nil }

// QueryID returns the identifier the trace was created with.
func (t *Trace) QueryID() string {
	if t == nil {
		return ""
	}
	return t.queryID
}

// Start returns the trace's creation time (the zero time on nil).
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

var noopEnd = func() {}

// StartSpan opens a named span and returns its closer. On a nil trace
// the returned closer is a shared no-op, so the disabled path does not
// allocate.
func (t *Trace) StartSpan(name string) func() {
	if t == nil {
		return noopEnd
	}
	t0 := time.Now()
	return func() { t.RecordSpan(name, t0) }
}

// RecordSpan records a span that started at start and ends now.
func (t *Trace) RecordSpan(name string, start time.Time) {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, SpanSummary{
		Name:    name,
		StartMS: durMS(start.Sub(t.start)),
		DurMS:   durMS(now.Sub(start)),
	})
	t.mu.Unlock()
}

// Add increments a named counter by n.
func (t *Trace) Add(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 16)
	}
	t.counters[name] += n
	t.mu.Unlock()
}

// SetMax raises a named counter to v if v is larger — a high-water-mark
// counter (e.g. can_list_max).
func (t *Trace) SetMax(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 16)
	}
	if v > t.counters[name] {
		t.counters[name] = v
	}
	t.mu.Unlock()
}

// SetLabel attaches a string label (e.g. algorithm=comm_k).
func (t *Trace) SetLabel(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.labels == nil {
		t.labels = make(map[string]string, 4)
	}
	t.labels[k] = v
	t.mu.Unlock()
}

// DijkstraRun is the per-run counter bundle a shortest-path workspace
// accumulates locally and flushes with AddDijkstra once per run, so the
// per-edge hot loop never touches the trace.
type DijkstraRun struct {
	// Visits counts settled nodes.
	Visits int64
	// Relaxations counts edges examined.
	Relaxations int64
	// HeapPushes and HeapPops count priority-queue operations.
	HeapPushes int64
	HeapPops   int64
	// RadiusCutoffs counts relaxations discarded because the tentative
	// distance exceeded Rmax — the work the radius bound saves.
	RadiusCutoffs int64
}

// AddDijkstra folds one bounded Dijkstra run into the trace.
func (t *Trace) AddDijkstra(r DijkstraRun) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64, 16)
	}
	t.counters["dijkstra_runs"]++
	t.counters["dijkstra_visits"] += r.Visits
	t.counters["dijkstra_relaxations"] += r.Relaxations
	t.counters["heap_pushes"] += r.HeapPushes
	t.counters["heap_pops"] += r.HeapPops
	t.counters["radius_cutoffs"] += r.RadiusCutoffs
	t.mu.Unlock()
}

// Emission records one community emission: the inter-emission delay —
// time since the previous emission, or since the trace started for the
// first — is the paper's polynomial-delay claim made observable.
func (t *Trace) Emission() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	prev := t.lastEmit
	if prev.IsZero() {
		prev = t.start
	}
	d := now.Sub(prev)
	t.lastEmit = now
	t.emitCount++
	t.emitSum += d
	if d > t.emitMax {
		t.emitMax = d
	}
	if len(t.delays) < MaxStoredDelays {
		t.delays = append(t.delays, d)
	}
	if t.counters == nil {
		t.counters = make(map[string]int64, 16)
	}
	t.counters["emitted"]++
	t.mu.Unlock()
}

// OnFinish registers a hook run once by the first Summary call —
// layers use it to snapshot state that is only final at the end of the
// query (e.g. governor budget consumption) without obs importing them.
func (t *Trace) OnFinish(f func(*Trace)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.finishers = append(t.finishers, f)
	t.mu.Unlock()
}

// Summary finalizes the trace (running OnFinish hooks exactly once)
// and returns its wire form. It may be called repeatedly; later calls
// reflect any recording that happened in between. Returns nil on a nil
// trace.
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	fins := t.finishers
	ran := t.finished
	t.finished = true
	t.mu.Unlock()
	if !ran {
		for _, f := range fins {
			f(t)
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Summary{
		QueryID: t.queryID,
		TotalMS: durMS(time.Since(t.start)),
	}
	if len(t.labels) > 0 {
		s.Labels = make(map[string]string, len(t.labels))
		for k, v := range t.labels {
			s.Labels[k] = v
		}
	}
	if len(t.spans) > 0 {
		s.Spans = append([]SpanSummary(nil), t.spans...)
	}
	if len(t.counters) > 0 {
		s.Counters = make(map[string]int64, len(t.counters))
		for k, v := range t.counters {
			s.Counters[k] = v
		}
	}
	if t.emitCount > 0 {
		e := &EmissionSummary{
			Count:       t.emitCount,
			FirstMS:     durMS(t.delays[0]),
			MeanDelayMS: durMS(t.emitSum) / float64(t.emitCount),
			MaxDelayMS:  durMS(t.emitMax),
			DelaysMS:    make([]float64, len(t.delays)),
		}
		for i, d := range t.delays {
			e.DelaysMS[i] = durMS(d)
		}
		s.Emissions = e
	}
	return s
}

// Summary is the structured, JSON-ready form of a finished trace — the
// body of EXPLAIN mode on the CLI and the server endpoints.
type Summary struct {
	QueryID string            `json:"query_id,omitempty"`
	TotalMS float64           `json:"total_ms"`
	Labels  map[string]string `json:"labels,omitempty"`
	Spans   []SpanSummary     `json:"spans,omitempty"`
	// Counters holds the engine counters; see the package comment for
	// the taxonomy.
	Counters  map[string]int64 `json:"counters,omitempty"`
	Emissions *EmissionSummary `json:"emissions,omitempty"`
}

// Counter returns a named counter's value (0 when absent or s is nil).
func (s *Summary) Counter(name string) int64 {
	if s == nil {
		return 0
	}
	return s.Counters[name]
}

// Span returns the first span with the given name.
func (s *Summary) Span(name string) (SpanSummary, bool) {
	if s != nil {
		for _, sp := range s.Spans {
			if sp.Name == name {
				return sp, true
			}
		}
	}
	return SpanSummary{}, false
}

// SpanSummary is one per-stage timing: offset from trace start plus
// duration, both in milliseconds.
type SpanSummary struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
}

// EmissionSummary aggregates the per-community inter-emission delays.
// DelaysMS holds the first MaxStoredDelays individual delays; Count,
// MeanDelayMS and MaxDelayMS cover every emission.
type EmissionSummary struct {
	Count       int64     `json:"count"`
	FirstMS     float64   `json:"first_ms"`
	MeanDelayMS float64   `json:"mean_delay_ms"`
	MaxDelayMS  float64   `json:"max_delay_ms"`
	DelaysMS    []float64 `json:"delays_ms,omitempty"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
