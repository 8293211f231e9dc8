package main

import (
	"context"
	"runtime"
	"time"

	"commdb"
)

// librarySpec describes a workload where one caller queries a Searcher
// directly.
type librarySpec struct {
	name string
	kind string
	// ops is the length of the op list at the default --seconds.
	ops     int
	limit   int
	weights []int
	indexed bool
}

var (
	topkIndexed = librarySpec{name: "topk_indexed", kind: "topk", ops: 96, limit: 10, weights: weightLowKWF, indexed: true}
	allIndexed  = librarySpec{name: "all_indexed", kind: "all", ops: 40, limit: 200, weights: weightHighKWF, indexed: true}
	topkPlain   = librarySpec{name: "topk_plain", kind: "topk", ops: 56, limit: 10, weights: weightUniform, indexed: false}
)

// measure collects what one load goroutine observed.
type measure struct {
	query, first, gap samples
	communities       int
}

func (m *measure) merge(o *measure) {
	m.query = append(m.query, o.query...)
	m.first = append(m.first, o.first...)
	m.gap = append(m.gap, o.gap...)
	m.communities += o.communities
}

// endToEnd fills the metrics every workload derives the same way from
// its query timings over the measured wall.
func (m *measure) endToEnd(r *report, d *dataset, wall time.Duration) {
	r.metrics["setup_s"] = d.setup.Seconds()
	r.metrics["heap_live_mb"] = d.heapLiveMB
	r.metrics["queries_per_s"] = ratio(float64(len(m.query)), wall.Seconds())
	r.metrics["query_p50_ms"] = m.query.p(0.50)
	r.metrics["query_tail_ms"] = m.query.tail()
	r.metrics["first_result_p50_ms"] = m.first.p(0.50)
	r.metrics["first_result_tail_ms"] = m.first.tail()
	r.metrics["communities_per_s"] = ratio(float64(m.communities), wall.Seconds())
	r.metrics["emit_gap_p99_ms"] = m.gap.p(0.99)
	r.counts["query_samples"] = int64(len(m.query))
	r.counts["communities"] = int64(m.communities)
}

// runOp executes one op on s as a caller would — open the iterator,
// take communities until the limit, close — and times the whole, the
// first community and the gaps between communities.
func runOp(ctx context.Context, s *commdb.Searcher, o op, m *measure) ([]result, error) {
	t0 := time.Now()
	algo := commdb.AlgoTopK
	if o.Kind == "all" {
		algo = commdb.AlgoAll
	}
	it, err := s.SearchCtx(ctx, algo, o.query())
	if err != nil {
		return nil, err
	}
	rs := make([]result, 0, o.Limit)
	last := t0
	for len(rs) < o.Limit {
		c, ok := it.Next()
		if !ok {
			break
		}
		now := time.Now()
		if len(rs) == 0 {
			m.first.add(now.Sub(t0))
		} else {
			m.gap.add(now.Sub(last))
		}
		last = now
		rs = append(rs, result{Core: c.Core.Clone(), Cost: c.Cost})
	}
	err = it.Close()
	m.query.add(time.Since(t0))
	m.communities += len(rs)
	return rs, err
}

// warmUp runs ops unmeasured, in list order, until warmPercent of the
// list has run and the garbage collector has completed a cycle. By then
// the heap has grown to its working size, and the measured pass reuses
// pages instead of faulting new ones in (10 µs each on the VM this was
// written on: a first pass measured 13% slow, after this warm-up 4%).
func warmUp(s *commdb.Searcher, ops []op) {
	var discard measure
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cycle := ms.NumGC
	for i := 0; i < len(ops); i++ {
		if i >= warmCount(len(ops)) {
			if runtime.ReadMemStats(&ms); ms.NumGC > cycle {
				return
			}
		}
		_, _ = runOp(context.Background(), s, ops[i], &discard) // a failing op fails again, counted, in the measured pass
	}
}

func warmCount(n int) int { return (n*warmPercent + 99) / 100 }

// runLibrary runs a single-caller workload: the measured pass, or with
// cfg.traced the layer ledger of traceLibrary.
func runLibrary(cfg config, spec librarySpec) (*report, error) {
	if cfg.traced {
		return traceLibrary(cfg, spec)
	}
	d, err := setupSearch(cfg.authors, spec.indexed, false)
	if err != nil {
		return nil, err
	}
	ops := libraryOps(spec.kind, cfg.scale(spec.ops), spec.limit, spec.weights, cfg.seed)
	r := newReport(spec.name)
	warmUp(d.s, ops)

	var m measure
	results := make([][]result, len(ops))
	start := time.Now()
	for i, o := range ops {
		if results[i], err = runOp(context.Background(), d.s, o, &m); err != nil {
			r.fail("op %d: %v", i, err)
		}
	}
	wall := time.Since(start)
	r.attempted = len(ops)
	m.endToEnd(r, d, wall)

	ref, err := commdb.Open(d.g, commdb.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	checkAnswers(cfg, r, ops, results, ref)
	return r, nil
}

// checkAnswers fingerprints every op's results, compares them with
// golden.json when the inputs are the default ones, and re-executes one
// op in checkEvery on ref: for the library workloads an un-indexed,
// sequential Searcher, which the paper's Section VI says must answer
// exactly as the indexed one; for serve_mix the library under the server.
func checkAnswers(cfg config, r *report, ops []op, results [][]result, ref *commdb.Searcher) {
	r.digests = make([]string, len(ops))
	for i := range ops {
		r.digests[i] = digest(results[i])
	}
	if want, ok := cfg.golden[r.workload]; ok {
		compareGolden(r, want)
	}
	var discard measure
	for i := 0; i < len(ops); i += checkEvery {
		o := ops[i]
		if o.Limit > refPrefix {
			o.Limit = refPrefix
		}
		want, err := runOp(context.Background(), ref, o, &discard)
		if err != nil {
			r.fail("op %d: reference execution: %v", i, err)
		} else if !sameResults(results[i], want, len(want) < o.Limit) {
			r.fail("op %d (%v rmax %g): differs from the reference execution", i, o.Keywords, o.Rmax)
		}
	}
}

// compareGolden counts every op whose digest left the recorded one.
func compareGolden(r *report, want []string) {
	if len(want) != len(r.digests) {
		r.fail("golden.json has %d digests for %s, the run produced %d", len(want), r.workload, len(r.digests))
		return
	}
	for i, w := range want {
		if r.digests[i] != w {
			r.fail("op %d: digest %s, golden.json has %s", i, r.digests[i], w)
		}
	}
}
