package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// metricDef names one metric; BENCHMARK.json lists the same names,
// units and bounds, and a test holds the two together.
type metricDef struct {
	name, unit string
	// bound is the share by which an end-to-end metric may get worse
	// before a change counts as a regression, and may differ between two
	// runs of the same code under -agree.
	bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them, from a run without tracing. The timing
// bounds are the widest the benchmark contract allows: on the shared
// two-core VM this was written on, a neighbour's burst slows whole runs
// by a quarter for a minute or two.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"heap_live_mb", "MB", 0.10},
	{"queries_per_s", "1/s", 0.25},
	{"query_p50_ms", "ms", 0.25},
	{"query_tail_ms", "ms", 0.25},
	{"first_result_p50_ms", "ms", 0.25},
	{"communities_per_s", "1/s", 0.25},
	{"emit_gap_p99_ms", "ms", 0.25},
}

// perLayer is the ledger of a traced run. A workload that never enters
// a layer reports 0 for it.
var perLayer = []metricDef{
	// set-up and memory, all workloads
	{"datagen.generate_s", "s", 0},
	{"relational.to_graph_s", "s", 0},
	{"index.build_s", "s", 0},
	{"graph.nodes", "count", 0},
	{"graph.edges", "count", 0},
	{"graph.bytes_mb", "MB", 0},
	{"index.bytes_mb", "MB", 0},
	{"process.peak_rss_mb", "MB", 0},
	// projection
	{"index.project_ms_p50", "ms", 0},
	{"index.project_share", "ratio", 0},
	{"index.sub_nodes_mean", "count", 0},
	{"index.sub_edges_mean", "count", 0},
	{"index.keep_ratio", "ratio", 0},
	// engine init and shortest paths
	{"core.engine_init_ms_p50", "ms", 0},
	{"sssp.runs_per_query", "count", 0},
	{"sssp.visits_per_result", "count", 0},
	{"heap.pushes_per_result", "count", 0},
	// enumeration
	{"core.next_core_us_mean", "us", 0},
	{"core.getcommunity_us_mean", "us", 0},
	{"core.neighbor_runs_per_result", "count", 0},
	{"core.can_tuples_per_result", "count", 0},
	// the two mechanisms ROADMAP wants to win or go
	{"core.pipeline_speedup", "ratio", 0},
	{"kwcache.first_result_speedup", "ratio", 0},
	{"kwcache.warm_s", "s", 0},
	{"kwcache.store_mb", "MB", 0},
	// what a Searcher adds around the layer calls
	{"commdb.residual_ms_mean", "ms", 0},
	{"commdb.residual_share", "ratio", 0},
	// serving
	{"server.hit_ms_p50", "ms", 0},
	{"server.miss_ms_p50", "ms", 0},
	{"server.stream_ms_p50", "ms", 0},
	{"server.ttfb_ms_p50", "ms", 0},
	{"server.overhead_ms_p50", "ms", 0},
	{"server.cache_hit_share", "ratio", 0},
	{"server.singleflight_shared", "count", 0},
	{"server.admission_rejections", "count", 0},
	{"server.resp_bytes_mean", "count", 0},
	// maintenance; the write_* lines are delta_rw's user-facing numbers
	// (see README: only metrics every workload has can be end-to-end)
	{"delta.write_visible_ms_p50", "ms", 0},
	{"delta.write_visible_ms_tail", "ms", 0},
	{"delta.write_ops_per_s", "1/s", 0},
	{"delta.apply_ms_p50", "ms", 0},
	{"delta.to_graph_ms", "ms", 0},
	{"delta.repair_ms", "ms", 0},
	{"delta.merge_ms", "ms", 0},
	{"delta.remap_ms", "ms", 0},
	{"delta.dirty_terms_ms", "ms", 0},
	{"delta.dirty_term_share", "ratio", 0},
	{"delta.full_rebuilds", "count", 0},
	{"delta.rejected_ops", "count", 0},
	{"index.write_ms_p50", "ms", 0},
	{"index.write_bytes", "count", 0},
	{"index.read_ms_p50", "ms", 0},
	{"delta.read_p99_ms", "ms", 0},
	// the cost of looking
	{"trace.overhead_share", "ratio", 0},
}

// report is one run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	// problems says what failed, for the human reading the output.
	problems []string
	metrics  map[string]float64
	// digests holds one fingerprint per op, in op order; counts holds
	// the numbers that must repeat exactly from run to run.
	digests []string
	counts  map[string]int64
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]float64{}, counts: map[string]int64{}}
}

// fail counts one op as failed.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// resultLine is the JSON object the driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the report over defs; a metric that is not finite makes
// the run incorrect rather than unparseable.
func (r *report) line(defs []metricDef) resultLine {
	out := resultLine{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := r.metrics[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.fail("metric %s is %v", d.name, v)
			v = 0
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	return out
}

//go:embed golden.json
var goldenJSON []byte

// loadGolden returns the per-op digests recorded for each workload on
// the default inputs.
func loadGolden() (map[string][]string, error) {
	g := map[string][]string{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}
