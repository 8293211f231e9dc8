package server

// This file is the server's bridge between per-query traces and
// process-wide metrics: every engine execution runs under an internal
// obs.Trace (whether or not the client asked to see it), and the
// finished trace is folded into the process totals that GET /metricsz
// exports in Prometheus text format. Engine counters
// therefore increase monotonically across queries even though each
// query's trace is independent.

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"

	"commdb/internal/delta"
	"commdb/internal/obs"
	"commdb/internal/snapshot"
)

// metrics owns the process Registry, the engine-counter totals that
// finished traces fold into, and the one latency histogram — one child
// per keywordLabels value.
type metrics struct {
	reg     *obs.Registry
	totals  obs.Totals
	latency []*obs.Histogram
	// scrape serializes /metricsz renders; mem is the render's one
	// memory snapshot, read by the commdb_mem_* gauges.
	scrape sync.Mutex
	mem    MemorySnapshot
}

// newMetrics builds the registry: the engine-counter families of the
// trace's counter table, serving gauges/counters read live from the
// server's stats, and the query-latency histogram.
func newMetrics(s *Server) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{reg: reg}
	m.totals.Register(reg)
	m.latency = reg.Histograms("commdb_query_latency_ms", "engine execution latency in milliseconds, by normalized keyword count",
		latencyBucketsMS[:], "keywords", keywordLabels[:])

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
	// The continuous layer: the SLO breach counter and capture occupancy.
	s.collector.Register(reg)
	// The memory ledger, gauge-shaped: handleMetricsz takes one
	// memorySnapshot per scrape (one runtime.ReadMemStats) and these
	// gauges read it, so they agree with each other and with /debug/memz.
	reg.GaugeFunc("commdb_mem_total_bytes", "accounted retained bytes across all components (epochs, result cache, delta maintainer)",
		func() float64 { return float64(m.mem.TotalBytes) })
	reg.GaugeFunc("commdb_mem_heap_alloc_bytes", "runtime heap bytes in live objects",
		func() float64 { return float64(m.mem.Runtime.HeapAllocBytes) })
	reg.GaugeFunc("commdb_mem_heap_sys_bytes", "runtime heap bytes obtained from the OS",
		func() float64 { return float64(m.mem.Runtime.HeapSysBytes) })
	// Component footprints are Once-cached on the immutable artifacts,
	// so these cost a pointer load plus atomic loads.
	servingPart := func(part string) func() float64 {
		return func() float64 {
			f, _ := s.servingFootprint().Find(part)
			return float64(f.Bytes)
		}
	}
	reg.GaugeFunc("commdb_mem_graph_bytes", "serving engine's graph artifact bytes (CSR arrays, labels, term dictionary)", servingPart("graph"))
	reg.GaugeFunc("commdb_mem_index_bytes", "serving engine's community index bytes (postings, distance sidecar)", servingPart("index"))
	reg.GaugeFunc("commdb_mem_fulltext_bytes", "serving engine's fulltext posting bytes (invertedN, standalone or inside the index)", servingPart("invertedN"))
	if s.snaps != nil {
		reg.GaugeFunc("commdb_mem_epochs_live", "snapshot epochs held in memory (2 during a probation window)",
			func() float64 { return float64(len(m.mem.Epochs)) })
		reg.LabeledGaugeFunc("commdb_mem_epoch_bytes", "retained artifact bytes per live snapshot epoch",
			func() []obs.LabeledSample {
				out := make([]obs.LabeledSample, 0, len(m.mem.Epochs))
				for _, e := range m.mem.Epochs {
					out = append(out, obs.LabeledSample{
						Labels: []obs.Label{{Name: "epoch", Value: strconv.FormatInt(e.Epoch, 10)}},
						Value:  float64(e.Bytes),
					})
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

// handleMetricsz answers GET /metricsz with the Prometheus text
// exposition of the process registry.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	m := s.metrics
	var buf bytes.Buffer
	m.scrape.Lock()
	m.mem = s.memorySnapshot()
	_ = m.reg.WritePrometheus(&buf) // a bytes.Buffer cannot fail
	m.scrape.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(buf.Bytes())
}
