package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"commdb"
	"commdb/internal/core"
	"commdb/internal/datagen"
	"commdb/internal/fulltext"
	"commdb/internal/obs"
	"commdb/internal/sssp"
)

// traceEvery-th ops of the list make up the traced subset.
const traceEvery = 4

// setupLedger fills the set-up and memory lines every workload shares.
func setupLedger(r *report, d *dataset) {
	r.metrics["datagen.generate_s"] = d.generate.Seconds()
	r.metrics["relational.to_graph_s"] = d.toGraph.Seconds()
	r.metrics["index.build_s"] = d.indexBuild.Seconds()
	r.metrics["graph.nodes"] = float64(d.g.NumNodes())
	r.metrics["graph.edges"] = float64(d.g.NumEdges())
	r.metrics["graph.bytes_mb"] = float64(d.g.Footprint().Bytes) / (1 << 20)
	r.metrics["index.bytes_mb"] = float64(d.s.IndexBytes()) / (1 << 20)
	r.metrics["process.peak_rss_mb"] = peakRSSMB()
	r.counts["graph_nodes"] = int64(d.g.NumNodes())
}

// spanDurations lists the durations of the spans with one name.
func spanDurations(spans []span, name string) samples {
	var out samples
	for _, s := range spans {
		if s.Name == name {
			out.add(time.Duration(s.dur()))
		}
	}
	return out
}

// replayer re-enacts what a Searcher does for one query as calls into
// the layers' own functions, each under the benchmark's stopwatch:
// index.Project, core.NewEngineCfg + PrecomputeNeighborSets, then
// NextCore and GetCommunity per community.
type replayer struct {
	d    *dataset
	ft   *fulltext.Index // keyword lookup on the un-indexed path
	pool *sssp.Pool
}

// replay runs op i through the layers and returns how many communities
// it produced, the cost of each, and how long engine init plus
// enumeration took. workers > 1 engages the materialization pipeline
// the way a parallel Searcher does.
func (rp *replayer) replay(i int, o op, workers int, rec *recorder) (costs []float64, enumerate time.Duration, err error) {
	root := rec.begin("replay.op", i, -1)
	defer func() { rec.end(root) }()
	target, ft := rp.d.g, rp.ft
	if rp.d.ix != nil {
		id := rec.begin("index.project", i, root)
		proj, err := rp.d.ix.Project(o.Keywords, o.Rmax)
		rec.end(id)
		if err != nil {
			return nil, 0, err
		}
		target, ft = proj.Sub.G, nil
	}
	t0 := time.Now()
	id := rec.begin("core.engine_init", i, root)
	eng, err := core.NewEngineCfg(target, ft, o.Keywords, o.Rmax, core.EngineConfig{Pool: rp.pool, Parallelism: workers})
	if err == nil {
		eng.PrecomputeNeighborSets()
	}
	rec.end(id)
	if err != nil {
		return nil, 0, err
	}
	defer eng.Close()
	var src core.CoreSource
	if o.Kind == "all" {
		src = core.NewAll(eng)
	} else {
		src = core.NewTopK(eng)
	}
	if workers > 1 {
		pipe := core.NewPipeline(eng, src, workers)
		for len(costs) < o.Limit {
			cc, _, ok := pipe.Next()
			if !ok {
				break
			}
			costs = append(costs, cc.Cost)
		}
		pipe.Close()
		return costs, time.Since(t0), pipe.Err()
	}
	for len(costs) < o.Limit {
		id = rec.begin("core.next_core", i, root)
		cc, ok := src.NextCore()
		rec.end(id)
		if !ok {
			break
		}
		id = rec.begin("core.getcommunity", i, root)
		eng.GetCommunity(cc.Core)
		rec.end(id)
		costs = append(costs, cc.Cost)
	}
	return costs, time.Since(t0), src.Err()
}

// layerNames are the replayed calls; a sequential Searcher's wall minus
// their sum is what the Searcher itself adds (commdb.residual).
var layerNames = []string{"index.project", "core.engine_init", "core.next_core", "core.getcommunity"}

// traceLibrary is the traced run of a single-caller workload. Each op
// of the subset runs four ways: through a sequential Searcher (the wall
// to explain), through the layer replay under spans, through the same
// Searcher carrying the program's own obs.Trace (its counters, and what
// carrying it costs), and through the replay with the pipeline on.
func traceLibrary(cfg config, spec librarySpec) (*report, error) {
	d, err := setupSearch(cfg.authors, spec.indexed, true)
	if err != nil {
		return nil, err
	}
	all := libraryOps(spec.kind, cfg.scale(spec.ops), spec.limit, spec.weights, cfg.seed)
	var ops []op
	for i := 0; i < len(all); i += traceEvery {
		ops = append(ops, all[i])
	}
	r := newReport(spec.name)
	r.attempted = len(ops)
	setupLedger(r, d)
	warmUp(d.s, all)

	rp := &replayer{d: d, pool: sssp.NewPool()}
	if !spec.indexed {
		rp.ft = fulltext.Build(d.g)
	}
	rec := newRecorder()
	workers := runtime.GOMAXPROCS(0)
	var plain, traced measure
	var seqEnum, parEnum time.Duration
	counters := map[string]int64{}
	results := 0
	for i, o := range ops {
		var rs []result
		var costs []float64
		var enum time.Duration
		searcher := func() (err error) {
			rs, err = runOp(context.Background(), d.s, o, &plain)
			return err
		}
		replay := func() (err error) {
			costs, enum, err = rp.replay(i, o, 1, rec)
			return err
		}
		// Whichever goes second finds the query's data in cache, so the
		// two take turns going first.
		first, second := searcher, replay
		if i%2 == 1 {
			first, second = replay, searcher
		}
		if err := first(); err != nil {
			r.fail("op %d: %v", i, err)
			continue
		}
		if err := second(); err != nil {
			r.fail("op %d: %v", i, err)
			continue
		}
		seqEnum += enum
		results += len(rs)
		if !sameCosts(rs, costs) {
			r.fail("op %d: the layer replay and the Searcher disagree", i)
		}

		tr := obs.NewTrace("")
		if _, err := runOp(obs.ContextWithTrace(context.Background(), tr), d.s, o, &traced); err != nil {
			r.fail("op %d under obs.Trace: %v", i, err)
		}
		for name, n := range tr.Summary().Counters {
			counters[name] += n
		}

		_, enum, err := rp.replay(i, o, workers, nil)
		if err != nil {
			r.fail("op %d with the pipeline: %v", i, err)
		}
		parEnum += enum
	}

	self := selfTimes(rec.spans)
	if err := checkLedger(self, rootTime(rec.spans)); err != nil {
		r.fail("%v", err)
	}
	wall := plain.query.sum()
	var layers float64
	for _, name := range layerNames {
		layers += float64(self[name]) / 1e6
	}
	n := float64(len(ops))
	nres := float64(results)
	r.metrics["index.project_ms_p50"] = spanDurations(rec.spans, "index.project").p(0.50)
	r.metrics["index.project_share"] = ratio(float64(self["index.project"])/1e6, wall)
	r.metrics["index.sub_nodes_mean"] = ratio(float64(counters["project_nodes_kept"]), n)
	r.metrics["index.sub_edges_mean"] = ratio(float64(counters["project_edges_kept"]), n)
	r.metrics["index.keep_ratio"] = ratio(float64(counters["project_nodes_kept"]), float64(counters["project_union_nodes"]))
	r.metrics["core.engine_init_ms_p50"] = spanDurations(rec.spans, "core.engine_init").p(0.50)
	r.metrics["sssp.runs_per_query"] = ratio(float64(counters["dijkstra_runs"]), n)
	r.metrics["sssp.visits_per_result"] = ratio(float64(counters["dijkstra_visits"]), nres)
	r.metrics["heap.pushes_per_result"] = ratio(float64(counters["heap_pushes"]), nres)
	r.metrics["core.next_core_us_mean"] = 1000 * spanDurations(rec.spans, "core.next_core").mean()
	r.metrics["core.getcommunity_us_mean"] = 1000 * spanDurations(rec.spans, "core.getcommunity").mean()
	r.metrics["core.neighbor_runs_per_result"] = ratio(float64(counters["neighbor_runs"]), nres)
	r.metrics["core.can_tuples_per_result"] = ratio(float64(counters["can_tuples"]), nres)
	r.metrics["core.pipeline_speedup"] = ratio(seqEnum.Seconds(), parEnum.Seconds())
	r.metrics["commdb.residual_ms_mean"] = ratio(wall-layers, n)
	r.metrics["commdb.residual_share"] = ratio(wall-layers, wall)
	r.metrics["trace.overhead_share"] = ratio(traced.query.sum(), wall) - 1
	r.counts["traced_ops"] = int64(len(ops))
	r.counts["traced_results"] = int64(results)
	r.counts["dijkstra_visits"] = counters["dijkstra_visits"]

	if !spec.indexed {
		if err := kwcacheLedger(r, d, ops); err != nil {
			return nil, err
		}
	}
	return r, writeTrace(cfg.outDir, r.workload, rec.spans)
}

// kwcacheLedger measures the keyword artifact tier, which only the
// un-indexed path consults: the subset's time to a first community on a
// default Searcher against one with every probe word's artifact warmed.
func kwcacheLedger(r *report, d *dataset, ops []op) error {
	cold, err := commdb.Open(d.g)
	if err != nil {
		return err
	}
	warm, err := commdb.Open(d.g, commdb.WithKeywordArtifactStore(indexRadius))
	if err != nil {
		return err
	}
	var words []string
	for _, p := range datagen.DBLPProbes() {
		words = append(words, p.Words...)
	}
	t := time.Now()
	warm.WarmKeywords(words)
	r.metrics["kwcache.warm_s"] = time.Since(t).Seconds()
	r.metrics["kwcache.store_mb"] = float64(warm.KeywordArtifacts().Bytes) / (1 << 20)
	var mc, mw measure
	for i, o := range ops {
		a, err := runOp(context.Background(), cold, o, &mc)
		if err != nil {
			return fmt.Errorf("op %d on the default Searcher: %w", i, err)
		}
		b, err := runOp(context.Background(), warm, o, &mw)
		if err != nil {
			return fmt.Errorf("op %d on the artifact-served Searcher: %w", i, err)
		}
		if !sameResults(a, b, true) {
			r.fail("op %d: artifact-served answer differs", i)
		}
	}
	r.metrics["kwcache.first_result_speedup"] = ratio(mc.first.p(0.50), mw.first.p(0.50))
	return nil
}

// sameCosts reports whether the replay emitted the Searcher's
// communities: as many, at the same costs. (Core IDs cannot be compared:
// the replay sees the projected graph's numbering.)
func sameCosts(rs []result, costs []float64) bool {
	if len(rs) != len(costs) {
		return false
	}
	for i, r := range rs {
		if r.Cost != costs[i] {
			return false
		}
	}
	return true
}
