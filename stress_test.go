package commdb

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"commdb/internal/obs"
)

// TestSearcherConcurrentStress hammers shared Searchers — indexed and
// un-indexed — from many goroutines with mixed All/TopK/NextCore
// queries, interleaved with queries that end early (closed after one
// result, budget-tripped, ranker panic) and so hand their pooled state
// to the next query. The Searcher documents "safe for concurrent use;
// each query gets its own engine"; this is the test that holds it to
// that under the race detector, and it cross-checks that concurrent
// results match a single-threaded baseline.
func TestSearcherConcurrentStress(t *testing.T) {
	g, _ := PaperExampleGraph()
	plain := mustOpen(t, g)
	indexed, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}

	queries := []Query{
		{Keywords: []string{"a", "b", "c"}, Rmax: 8},
		{Keywords: []string{"a", "b"}, Rmax: 8},
		{Keywords: []string{"b", "c"}, Rmax: 6},
		{Keywords: []string{"a"}, Rmax: 4},
	}

	// Single-threaded baseline: count and best cost per query, per
	// searcher (index projection preserves costs, so these agree, but
	// keep the comparison within each searcher to be strict about it).
	type expect struct {
		count    int
		bestCost float64
	}
	baseline := func(s *Searcher, q Query) expect {
		it, err := s.All(q)
		if err != nil {
			t.Fatalf("baseline All(%v): %v", q.Keywords, err)
		}
		var e expect
		for {
			r, ok := it.Next()
			if !ok {
				break
			}
			if e.count == 0 {
				e.bestCost = r.Cost
			}
			e.count++
		}
		if err := it.Err(); err != nil {
			t.Fatalf("baseline All(%v) stopped early: %v", q.Keywords, err)
		}
		return e
	}
	searchers := map[string]*Searcher{"plain": plain, "indexed": indexed}
	want := map[string]expect{}
	for name, s := range searchers {
		for qi, q := range queries {
			want[fmt.Sprintf("%s/%d", name, qi)] = baseline(s, q)
		}
	}

	ends := abnormalEnds(queries[0])
	workers, iters := 8, 40
	if raceEnabled {
		iters = 20
	}
	if testing.Short() {
		iters = 8
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := "plain"
				if (w+i)%2 == 0 {
					name = "indexed"
				}
				s := searchers[name]
				qi := (w * 7) % len(queries)
				q := queries[qi]
				e := want[fmt.Sprintf("%s/%d", name, qi)]
				switch i % 4 {
				case 0: // full COMM-all enumeration
					it, err := s.All(q)
					if err != nil {
						errs <- fmt.Errorf("worker %d: All: %w", w, err)
						return
					}
					n := 0
					for {
						r, ok := it.Next()
						if !ok {
							break
						}
						if n == 0 && r.Cost != e.bestCost {
							errs <- fmt.Errorf("worker %d: %s first cost %v, want %v", w, name, r.Cost, e.bestCost)
							return
						}
						n++
					}
					if err := it.Err(); err != nil {
						errs <- fmt.Errorf("worker %d: All stopped early: %w", w, err)
						return
					}
					if n != e.count {
						errs <- fmt.Errorf("worker %d: %s/%d found %d communities, want %d", w, name, qi, n, e.count)
						return
					}
				case 1: // ranked top-k prefix
					it, err := s.TopK(q)
					if err != nil {
						errs <- fmt.Errorf("worker %d: TopK: %w", w, err)
						return
					}
					got, cerr := it.Collect(3)
					if cerr != nil {
						errs <- fmt.Errorf("worker %d: TopK stopped early: %w", w, cerr)
						return
					}
					if len(got) > 0 && got[0].Cost != e.bestCost {
						errs <- fmt.Errorf("worker %d: %s top-1 cost %v, want %v", w, name, got[0].Cost, e.bestCost)
						return
					}
					for j := 1; j < len(got); j++ {
						if got[j].Cost < got[j-1].Cost {
							errs <- fmt.Errorf("worker %d: top-k out of order: %v then %v", w, got[j-1].Cost, got[j].Cost)
							return
						}
					}
				case 2: // governed cores-only enumeration under a context
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					q2 := q
					q2.Limits = Limits{MaxResults: 2}
					it, err := s.AllCtx(ctx, q2)
					if err != nil {
						cancel()
						errs <- fmt.Errorf("worker %d: AllCtx: %w", w, err)
						return
					}
					n := 0
					for {
						_, ok := it.NextCore()
						if !ok {
							break
						}
						n++
					}
					cancel()
					wantN := e.count
					if wantN > 2 {
						wantN = 2
					}
					if n != wantN {
						errs <- fmt.Errorf("worker %d: governed run granted %d results, want %d", w, n, wantN)
						return
					}
				case 3: // a query that ends early
					end := ends[(w+i/4)%len(ends)]
					if err := end.run(s); err != nil {
						errs <- fmt.Errorf("worker %d: %s on %s: %w", w, end.name, name, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestTracedSearchConcurrentStress runs traced queries against shared
// Searchers from many goroutines — the serving stack's steady state,
// where every execution carries a live trace. Each query gets its own
// trace (as in the server), Summary is read mid-enumeration (as the
// REPL's 'stats' does), and the test runs under -race in CI to hold
// the tracing path to the same concurrency contract as the engine.
func TestTracedSearchConcurrentStress(t *testing.T) {
	g, _ := PaperExampleGraph()
	plain := mustOpen(t, g)
	indexed, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	searchers := []*Searcher{plain, indexed}
	queries := []Query{
		{Keywords: []string{"a", "b", "c"}, Rmax: 8},
		{Keywords: []string{"a", "b"}, Rmax: 8},
		{Keywords: []string{"b", "c"}, Rmax: 6},
	}

	workers, iters := 8, 20
	if raceEnabled {
		iters = 10
	}
	if testing.Short() {
		iters = 4
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := searchers[(w+i)%len(searchers)]
				q := queries[(w*3+i)%len(queries)]
				tr := obs.NewTrace(fmt.Sprintf("stress-%d-%d", w, i))
				ctx := obs.ContextWithTrace(context.Background(), tr)
				it, err := s.AllCtx(ctx, q)
				if err != nil {
					errs <- fmt.Errorf("worker %d: AllCtx: %w", w, err)
					return
				}
				n := 0
				for {
					if _, ok := it.Next(); !ok {
						break
					}
					n++
					if n == 1 {
						// Mid-enumeration snapshot, like the REPL's 'stats'.
						if tr.Summary().Counter("dijkstra_runs") <= 0 {
							errs <- fmt.Errorf("worker %d: mid-run trace has no dijkstra_runs", w)
							return
						}
					}
				}
				if err := it.Err(); err != nil {
					errs <- fmt.Errorf("worker %d: stopped early: %w", w, err)
					return
				}
				sum := tr.Summary()
				if sum.Counter("emitted") != int64(n) {
					errs <- fmt.Errorf("worker %d: trace emitted=%d, enumerated %d", w, sum.Counter("emitted"), n)
					return
				}
				if sum.Emissions == nil || sum.Emissions.Count != int64(n) {
					errs <- fmt.Errorf("worker %d: emissions %+v, want count %d", w, sum.Emissions, n)
					return
				}
				if _, ok := sum.Span("enumerate"); !ok && n > 0 {
					errs <- fmt.Errorf("worker %d: trace lacks enumerate span", w)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
