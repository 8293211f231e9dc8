// Package obs is the observability layer of the search stack: per-query
// traces and process-wide metrics, with zero dependencies beyond the
// standard library.
//
// A *Trace rides a query's context.Context (ContextWithTrace /
// FromContext) through every layer — index projection, the bounded
// Dijkstra runs of internal/sssp, the engine primitives of
// internal/core, the enumerators — each of which records spans and
// counters into it. The paper's headline claims are about where time
// goes (polynomial delay between emitted communities, inverted-index
// projection shrinking the Dijkstra frontier, can-list growth in
// COMM-k); a Trace makes each of those directly observable per query.
//
// A trace has a fixed shape: the typed Identity of the query, a span
// list (project, engine_init, enumerate), one int64 slot per Counter —
// counterTable is the list of names — and the inter-emission delays.
// Everything downstream is a view of it: Summary is its wire form,
// QueryRecord adds the serving facts, Totals sums finished traces into
// the /metricsz families.
//
// Every method is safe on a nil *Trace and does no work, so an
// untraced query pays one nil check per instrumentation point and
// allocates nothing — a property locked by tests. Instrumented hot
// loops accumulate locally and flush once per Dijkstra run (see
// DijkstraRun), keeping tracing off the per-edge critical path even
// when enabled. A Trace is safe for concurrent use; a query that fans
// out work shares one Trace across goroutines.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Counter names one engine counter of a trace. The enum, its wire
// names, Prometheus families and help texts live in this one table;
// adding a counter is one constant, one row and its Add site.
type Counter uint8

const (
	DijkstraRuns Counter = iota
	DijkstraVisits
	DijkstraRelaxations
	HeapPushes
	HeapPops
	RadiusCutoffs
	NeighborRuns
	BestcoreScans
	GetcommunityCalls
	Emitted
	CanTuples
	CanListMax
	ProjectUnionNodes
	ProjectUnionEdges
	ProjectNodesKept
	ProjectNodesDropped
	ProjectEdgesKept
	numCounters
)

// counterTable is indexed by Counter: the name in Summary.Counters, the
// /metricsz family that accumulates it process-wide, and that family's
// help text. max marks a high-water mark (recorded with SetMax,
// exported as a gauge) instead of a sum.
var counterTable = [numCounters]struct {
	name, family, help string
	max                bool
}{
	DijkstraRuns:        {name: "dijkstra_runs", family: "commdb_dijkstra_runs_total", help: "bounded Dijkstra runs executed"},
	DijkstraVisits:      {name: "dijkstra_visits", family: "commdb_dijkstra_visits_total", help: "nodes settled across all Dijkstra runs"},
	DijkstraRelaxations: {name: "dijkstra_relaxations", family: "commdb_dijkstra_relaxations_total", help: "edges examined across all Dijkstra runs"},
	HeapPushes:          {name: "heap_pushes", family: "commdb_heap_pushes_total", help: "priority-queue pushes across all Dijkstra runs"},
	HeapPops:            {name: "heap_pops", family: "commdb_heap_pops_total", help: "priority-queue pops across all Dijkstra runs"},
	RadiusCutoffs:       {name: "radius_cutoffs", family: "commdb_radius_cutoffs_total", help: "relaxations discarded by the Rmax radius bound"},
	NeighborRuns:        {name: "neighbor_runs", family: "commdb_neighbor_runs_total", help: "Neighbor (Algorithm 2) invocations"},
	BestcoreScans:       {name: "bestcore_scans", family: "commdb_bestcore_scans_total", help: "BestCore (Algorithm 3) table scans"},
	GetcommunityCalls:   {name: "getcommunity_calls", family: "commdb_getcommunity_calls_total", help: "GetCommunity (Algorithm 4) materializations"},
	Emitted:             {name: "emitted", family: "commdb_communities_emitted_total", help: "communities handed to the caller"},
	CanTuples:           {name: "can_tuples", family: "commdb_can_tuples_total", help: "candidate tuples enheaped by COMM-k"},
	CanListMax:          {name: "can_list_max", family: "commdb_can_list_max", help: "largest COMM-k can-list seen in any query", max: true},
	ProjectUnionNodes:   {name: "project_union_nodes", family: "commdb_project_union_nodes_total", help: "nodes gathered from inverted postings before pruning"},
	ProjectUnionEdges:   {name: "project_union_edges", family: "commdb_project_union_edges_total", help: "edges gathered from inverted postings before pruning"},
	ProjectNodesKept:    {name: "project_nodes_kept", family: "commdb_project_nodes_kept_total", help: "nodes kept by index projection"},
	ProjectNodesDropped: {name: "project_nodes_dropped", family: "commdb_project_nodes_dropped_total", help: "union nodes pruned by index projection"},
	ProjectEdgesKept:    {name: "project_edges_kept", family: "commdb_project_edges_kept_total", help: "edges kept by index projection"},
}

// Identity is a traced query's self-description, filled by the searcher
// in one call so the continuous layer (slow-query capture, the latency
// histogram's keywords label) can classify a trace without re-deriving
// the query.
type Identity struct {
	// Fingerprint is the canonical Query.Fingerprint; Keywords its
	// normalized (tokenized, sorted) keyword list.
	Fingerprint string   `json:"fingerprint,omitempty"`
	Keywords    []string `json:"keywords,omitempty"`
	Rmax        float64  `json:"rmax,omitempty"`
	// Algorithm is comm_all or comm_k.
	Algorithm string `json:"algorithm,omitempty"`
	// Indexed reports execution through the inverted-index projection.
	Indexed     bool `json:"indexed"`
	Parallelism int  `json:"parallelism,omitempty"`
}

// MaxStoredDelays bounds how many individual inter-emission delays a
// trace retains verbatim; aggregates (count, mean, max) cover the rest,
// so COMM-all queries with huge result sets keep bounded traces.
const MaxStoredDelays = 512

// Trace collects one query's identity, spans, engine counters and
// inter-emission delays. The zero value is not useful; create traces
// with NewTrace. All methods are no-ops on a nil receiver.
type Trace struct {
	start   time.Time
	queryID string

	mu       sync.Mutex
	id       Identity
	epoch    int64
	spans    []SpanSummary
	counters [numCounters]int64
	gapSum   time.Duration // gaps between consecutive emissions
	gapMax   time.Duration
	lastEmit time.Time
	delays   []time.Duration
}

// NewTrace starts a trace. queryID ties the trace to log lines and
// response headers; it may be empty.
func NewTrace(queryID string) *Trace {
	return &Trace{start: time.Now(), queryID: queryID}
}

// QueryID returns the identifier the trace was created with.
func (t *Trace) QueryID() string {
	if t == nil {
		return ""
	}
	return t.queryID
}

// SetIdentity records what the query is; the searcher calls it once
// per session.
func (t *Trace) SetIdentity(id Identity) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// SetEpoch records the snapshot epoch the query is served from (the
// serving layer's half of the identity; 0 without hot reload).
func (t *Trace) SetEpoch(epoch int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
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

// Add increments counter c by n.
func (t *Trace) Add(c Counter, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[c] += n
	t.mu.Unlock()
}

// SetMax raises counter c to v if v is larger — a high-water-mark
// counter (CanListMax).
func (t *Trace) SetMax(c Counter, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if v > t.counters[c] {
		t.counters[c] = v
	}
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
	t.counters[DijkstraRuns]++
	t.counters[DijkstraVisits] += r.Visits
	t.counters[DijkstraRelaxations] += r.Relaxations
	t.counters[HeapPushes] += r.HeapPushes
	t.counters[HeapPops] += r.HeapPops
	t.counters[RadiusCutoffs] += r.RadiusCutoffs
	t.mu.Unlock()
}

// Emission records one community handed to the caller. Its delay is the
// gap since the previous emission — the paper's polynomial-delay claim
// made observable — or, for the first, the time to the first result
// since the trace started (projection and engine init included), which
// is not a gap.
func (t *Trace) Emission() {
	if t == nil {
		return
	}
	now := time.Now()
	t.mu.Lock()
	var d time.Duration
	if t.lastEmit.IsZero() {
		d = now.Sub(t.start)
	} else {
		d = now.Sub(t.lastEmit)
		t.gapSum += d
		t.gapMax = max(t.gapMax, d)
	}
	t.lastEmit = now
	if len(t.delays) < MaxStoredDelays {
		t.delays = append(t.delays, d)
	}
	t.counters[Emitted]++
	t.mu.Unlock()
}

// Totals sums finished traces process-wide, one slot per Counter — the
// /metricsz view of the counter table.
type Totals [numCounters]atomic.Int64

// Fold adds a finished trace's counters into the totals (high-water
// marks take the maximum). A nil trace folds nothing.
func (tot *Totals) Fold(t *Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	counters := t.counters
	t.mu.Unlock()
	for c, v := range counters {
		if !counterTable[c].max {
			tot[c].Add(v)
			continue
		}
		for {
			cur := tot[c].Load()
			if v <= cur || tot[c].CompareAndSwap(cur, v) {
				break
			}
		}
	}
}

// Register exposes every counter's family on reg, read from the totals
// at scrape time.
func (tot *Totals) Register(reg *Registry) {
	for c := range tot {
		slot, row := &tot[c], &counterTable[c]
		if row.max {
			reg.GaugeFunc(row.family, row.help, func() float64 { return float64(slot.Load()) })
		} else {
			reg.CounterFunc(row.family, row.help, slot.Load)
		}
	}
}

// Summary returns the trace's wire form. It may be called repeatedly;
// later calls reflect any recording that happened in between. Returns
// nil on a nil trace.
func (t *Trace) Summary() *Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Summary{
		QueryID:  t.queryID,
		TotalMS:  durMS(time.Since(t.start)),
		Identity: t.id,
		Epoch:    t.epoch,
	}
	if len(t.spans) > 0 {
		s.Spans = append([]SpanSummary(nil), t.spans...)
	}
	for c, v := range t.counters {
		if v == 0 {
			continue
		}
		if s.Counters == nil {
			s.Counters = make(map[string]int64, numCounters)
		}
		s.Counters[counterTable[c].name] = v
	}
	if n := t.counters[Emitted]; n > 0 {
		e := &EmissionSummary{
			Count:      n,
			FirstMS:    durMS(t.delays[0]),
			MaxDelayMS: durMS(t.gapMax),
			DelaysMS:   make([]float64, len(t.delays)),
		}
		if n > 1 {
			e.MeanDelayMS = durMS(t.gapSum) / float64(n-1)
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
	QueryID string  `json:"query_id,omitempty"`
	TotalMS float64 `json:"total_ms"`
	Identity
	// Epoch is the snapshot epoch that answered (0 without hot reload).
	Epoch int64         `json:"epoch,omitempty"`
	Spans []SpanSummary `json:"spans,omitempty"`
	// Counters holds the non-zero engine counters under their
	// counterTable names.
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

// EmissionSummary aggregates the per-community emission delays.
// DelaysMS holds the first MaxStoredDelays individual delays: the first
// is FirstMS, the time to the first result, and each later one the gap
// since the previous emission. MeanDelayMS and MaxDelayMS cover every
// one of the Count−1 gaps (0 with a single emission).
type EmissionSummary struct {
	Count       int64     `json:"count"`
	FirstMS     float64   `json:"first_ms"`
	MeanDelayMS float64   `json:"mean_delay_ms"`
	MaxDelayMS  float64   `json:"max_delay_ms"`
	DelaysMS    []float64 `json:"delays_ms,omitempty"`
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
