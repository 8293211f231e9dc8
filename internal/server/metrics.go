package server

// This file is the server's bridge between per-query traces and
// process-wide metrics: every engine execution runs under an internal
// obs.Trace (whether or not the client asked to see it), and the
// trace's final summary is absorbed into a process Registry that
// GET /metricsz exports in Prometheus text format. Engine counters
// therefore increase monotonically across queries even though each
// query's trace is independent.

import (
	"net/http"
	"runtime"
	"strconv"

	"commdb/internal/delta"
	"commdb/internal/obs"
	"commdb/internal/snapshot"
)

// traceCounterMetrics maps a trace counter name to the registered
// Prometheus counter that accumulates it process-wide. Counters absent
// here (e.g. the high-water mark can_list_max) are handled separately.
var traceCounterMetrics = []struct {
	trace, metric, help string
}{
	{"dijkstra_runs", "commdb_dijkstra_runs_total", "bounded Dijkstra runs executed"},
	{"dijkstra_visits", "commdb_dijkstra_visits_total", "nodes settled across all Dijkstra runs"},
	{"dijkstra_relaxations", "commdb_dijkstra_relaxations_total", "edges examined across all Dijkstra runs"},
	{"heap_pushes", "commdb_heap_pushes_total", "priority-queue pushes across all Dijkstra runs"},
	{"heap_pops", "commdb_heap_pops_total", "priority-queue pops across all Dijkstra runs"},
	{"radius_cutoffs", "commdb_radius_cutoffs_total", "relaxations discarded by the Rmax radius bound"},
	{"neighbor_runs", "commdb_neighbor_runs_total", "Neighbor (Algorithm 2) invocations"},
	{"bestcore_scans", "commdb_bestcore_scans_total", "BestCore (Algorithm 3) table scans"},
	{"getcommunity_calls", "commdb_getcommunity_calls_total", "GetCommunity (Algorithm 4) materializations"},
	{"emitted", "commdb_communities_emitted_total", "communities emitted by the enumerators"},
	{"can_tuples", "commdb_can_tuples_total", "candidate tuples enheaped by COMM-k"},
	{"project_union_nodes", "commdb_project_union_nodes_total", "nodes gathered from inverted postings before pruning"},
	{"project_union_edges", "commdb_project_union_edges_total", "edges gathered from inverted postings before pruning"},
	{"project_nodes_kept", "commdb_project_nodes_kept_total", "nodes kept by index projection"},
	{"project_nodes_dropped", "commdb_project_nodes_dropped_total", "union nodes pruned by index projection"},
	{"project_edges_kept", "commdb_project_edges_kept_total", "edges kept by index projection"},
	{"budget_relaxations", "commdb_budget_relaxations_total", "relaxation work units charged to query budgets"},
	{"budget_neighbor_runs", "commdb_budget_neighbor_runs_total", "neighbor runs charged to query budgets"},
	{"budget_can_tuples", "commdb_budget_can_tuples_total", "can-list tuples charged to query budgets"},
	{"budget_heap_bytes", "commdb_budget_heap_bytes_total", "can-list bytes charged to query budgets"},
	{"budget_results", "commdb_budget_results_total", "results granted by query budgets"},
}

// metrics owns the process Registry and the per-trace-counter handles.
type metrics struct {
	reg        *obs.Registry
	counters   map[string]*obs.Counter // trace counter name -> process counter
	canListMax *obs.Gauge
	latency    *obs.Histogram
}

// newMetrics builds the registry: engine counters fed by trace
// absorption, serving gauges/counters read live from the server's
// stats, and the query-latency histogram.
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg, counters: make(map[string]*obs.Counter, len(traceCounterMetrics))}
	for _, tc := range traceCounterMetrics {
		m.counters[tc.trace] = reg.Counter(tc.metric, tc.help)
	}
	m.canListMax = reg.Gauge("commdb_can_list_max", "largest COMM-k can-list seen in any query")
	m.latency = reg.Histogram("commdb_query_latency_ms", "engine execution latency in milliseconds", latencyBucketsMS[:])

	reg.CounterFunc("commdb_queries_started_total", "engine executions begun",
		s.stats.queriesStarted.Load)
	reg.CounterFunc("commdb_queries_completed_total", "engine executions finished",
		s.stats.queriesCompleted.Load)
	reg.GaugeFunc("commdb_queries_in_flight", "engine executions currently running",
		func() float64 { return float64(s.stats.queriesStarted.Load() - s.stats.queriesCompleted.Load()) })
	reg.CounterFunc("commdb_streams_started_total", "streaming (all) requests admitted",
		s.stats.streamsStarted.Load)
	reg.CounterFunc("commdb_cache_hits_total", "top-k result cache hits",
		func() int64 { return s.cache.Stats().Hits })
	reg.CounterFunc("commdb_cache_misses_total", "top-k result cache misses",
		func() int64 { return s.cache.Stats().Misses })
	reg.GaugeFunc("commdb_cache_entries", "top-k result cache resident entries",
		func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("commdb_cache_bytes", "top-k result cache resident bytes",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.CounterFunc("commdb_singleflight_shared_total", "requests coalesced onto an in-flight identical query",
		s.flights.joins.Load)
	reg.CounterFunc("commdb_admission_rejections_total", "requests rejected with 429",
		s.stats.admissionRejections.Load)
	reg.GaugeFunc("commdb_admission_waiting", "requests queued for an execution slot",
		func() float64 { return float64(s.adm.waiting.Load()) })
	reg.CounterFunc("commdb_result_limit_stops_total", "queries stopped by their max_results limit (ordinary bounded-stream completion)",
		s.stats.resultLimitStops.Load)
	reg.CounterFunc("commdb_budget_exhausted_total", "queries stopped by a work budget or deadline",
		s.stats.budgetExhausted.Load)
	reg.CounterFunc("commdb_canceled_total", "queries stopped by cancellation or shutdown",
		s.stats.canceled.Load)
	// The continuous layer: the SLO breach counter, capture occupancy,
	// and the labeled per-class families.
	s.collector.Register(reg)
	if j := s.cfg.WorkloadJournal; j != nil {
		reg.CounterFunc("commdb_workload_journal_records_total", "entries appended to the workload journal",
			func() int64 { return j.Stats().Records })
		reg.CounterFunc("commdb_workload_journal_sampled_out_total", "entries dropped by the journal sampling policy",
			func() int64 { return j.Stats().SampledOut })
		reg.CounterFunc("commdb_workload_journal_rotations_total", "workload journal rotations",
			func() int64 { return j.Stats().Rotations })
		reg.GaugeFunc("commdb_workload_journal_bytes", "current workload journal file size",
			func() float64 { return float64(j.Stats().Bytes) })
	}
	// The memory ledger, gauge-shaped: per-component bytes from the
	// exact accounting (/debug/memz is the same numbers as a tree).
	// Component footprints are Once-cached on the immutable artifacts,
	// so each scrape costs lease acquire/release plus atomic loads.
	reg.GaugeFunc("commdb_mem_total_bytes", "accounted retained bytes across all components (epochs, result cache, delta maintainer)",
		func() float64 { return float64(s.memorySnapshot().TotalBytes) })
	reg.GaugeFunc("commdb_mem_graph_bytes", "serving engine's graph artifact bytes (CSR arrays, labels, term dictionary)",
		func() float64 {
			if g, ok := s.servingFootprint().Find("graph"); ok {
				return float64(g.Bytes)
			}
			return 0
		})
	reg.GaugeFunc("commdb_mem_index_bytes", "serving engine's community index bytes (postings, distance sidecar)",
		func() float64 {
			if ix, ok := s.servingFootprint().Find("index"); ok {
				return float64(ix.Bytes)
			}
			return 0
		})
	reg.GaugeFunc("commdb_mem_fulltext_bytes", "serving engine's fulltext posting bytes (invertedN, standalone or inside the index)",
		func() float64 {
			if ft, ok := s.servingFootprint().Find("invertedN"); ok {
				return float64(ft.Bytes)
			}
			return 0
		})
	reg.GaugeFunc("commdb_mem_result_cache_bytes", "top-k result cache resident bytes (the accounting view of commdb_cache_bytes)",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	reg.GaugeFunc("commdb_mem_heap_alloc_bytes", "runtime heap bytes in live objects",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapAlloc)
		})
	reg.GaugeFunc("commdb_mem_heap_sys_bytes", "runtime heap bytes obtained from the OS",
		func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.HeapSys)
		})
	if snaps := s.snaps; snaps != nil {
		reg.GaugeFunc("commdb_mem_epochs_live", "snapshot epochs held in memory (2 during a probation window)",
			func() float64 {
				ls := snaps.LiveEpochs()
				for _, l := range ls {
					l.Release()
				}
				return float64(len(ls))
			})
		reg.LabeledGaugeFunc("commdb_mem_epoch_bytes", "retained artifact bytes per live snapshot epoch",
			func() []obs.LabeledSample {
				ls := snaps.LiveEpochs()
				out := make([]obs.LabeledSample, 0, len(ls))
				for _, l := range ls {
					out = append(out, obs.LabeledSample{
						Labels: []obs.Label{{Name: "epoch", Value: strconv.FormatInt(l.Epoch(), 10)}},
						Value:  float64(l.Searcher().Footprint().Bytes),
					})
					l.Release()
				}
				return out
			})
	}
	if dm := s.cfg.DeltaMem; dm != nil {
		reg.GaugeFunc("commdb_mem_delta_bytes", "incremental maintainer's artifact bytes (staging graph + index)",
			func() float64 { return float64(dm().Bytes) })
	}
	if snaps := s.snaps; snaps != nil {
		reg.GaugeFunc("commdb_epoch", "serving snapshot epoch",
			func() float64 { return float64(snaps.Current()) })
		// Fixed outcome order (including zero-valued series) so scrapes
		// are deterministic and dashboards see every outcome from boot.
		reg.LabeledCounterFunc("commdb_reload_total", "snapshot reload attempts by outcome",
			func() []obs.LabeledSample {
				counts := snaps.Counts()
				out := make([]obs.LabeledSample, 0, len(snapshot.Outcomes))
				for _, o := range snapshot.Outcomes {
					out = append(out, obs.LabeledSample{
						Labels: []obs.Label{{Name: "outcome", Value: o}},
						Value:  float64(counts[o]),
					})
				}
				return out
			})
	}
	if deltas := s.cfg.Deltas; deltas != nil {
		// Fixed kind order (including zero-valued series), mirroring
		// commdb_reload_total's outcome handling.
		reg.LabeledCounterFunc("commdb_delta_applied_total", "mutation ops applied by the incremental maintainer, by kind",
			func() []obs.LabeledSample {
				st := deltas()
				out := make([]obs.LabeledSample, 0, len(delta.Kinds))
				for _, k := range delta.Kinds {
					out = append(out, obs.LabeledSample{
						Labels: []obs.Label{{Name: "kind", Value: k}},
						Value:  float64(st.Applied[k]),
					})
				}
				return out
			})
		reg.CounterFunc("commdb_delta_batches_total", "mutation batches applied by the incremental maintainer",
			func() int64 { return deltas().Batches })
		reg.CounterFunc("commdb_delta_rejected_total", "mutation ops rejected by the incremental maintainer",
			func() int64 { return deltas().Rejected })
		reg.CounterFunc("commdb_delta_full_rebuilds_total", "batches that took the full-rebuild path (structural ops)",
			func() int64 { return deltas().FullRebuilds })
		reg.CounterFunc("commdb_delta_partial_fallbacks_total", "batches rescued by a full build after a partial-rebuild invariant failure",
			func() int64 { return deltas().PartialFallbacks })
		reg.CounterFunc("commdb_delta_republishes_total", "artifact republishes triggered by applied batches",
			func() int64 { return deltas().Republishes })
		reg.GaugeFunc("commdb_delta_dirty_terms", "index terms recomputed by the last delta batch (dirty set size)",
			func() float64 {
				if lb := deltas().LastBatch; lb != nil {
					return float64(lb.DirtyTerms)
				}
				return 0
			})
		reg.GaugeFunc("commdb_delta_total_terms", "index terms at the last delta batch (dirty-set denominator)",
			func() float64 {
				if lb := deltas().LastBatch; lb != nil {
					return float64(lb.TotalTerms)
				}
				return 0
			})
		reg.GaugeFunc("commdb_delta_apply_ms", "wall time of the last delta batch apply",
			func() float64 {
				if lb := deltas().LastBatch; lb != nil {
					return lb.ApplyMS
				}
				return 0
			})
		reg.GaugeFunc("commdb_delta_full_build_ms", "wall time of the initial from-scratch build, the delta apply's reference point",
			func() float64 { return deltas().FullBuildMS })
	}
	return m
}

// absorb folds one finished query trace into the process counters.
// (Latency is not taken from the trace: Server.finishExecution observes
// it once per execution, traced or not.)
func (m *metrics) absorb(sum *obs.Summary) {
	if sum == nil {
		return
	}
	for name, v := range sum.Counters {
		if name == "can_list_max" {
			m.canListMax.SetMax(v)
			continue
		}
		if c, ok := m.counters[name]; ok {
			c.Add(v)
		}
	}
}

// handleMetricsz answers GET /metricsz with the Prometheus text
// exposition of the process registry.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.metrics.reg.WritePrometheus(w)
}
