package commdb

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"commdb/internal/sssp"
)

// panicRanker fails every cost evaluation: a stand-in for a buggy
// user-supplied Ranker, whose panic the API recovers.
type panicRanker struct{}

func (panicRanker) Name() string             { return "panic" }
func (panicRanker) Cost(d []float64) float64 { panic("ranker failure") }

// abnormalEnd is one way a query can stop short of exhaustion, run on
// a Searcher; it checks the query really ended that way.
type abnormalEnd struct {
	name string
	run  func(*Searcher) error
}

// abnormalEnds are a stream closed after 1 of k results, a query whose
// relaxation budget trips, and a query whose Ranker panics.
func abnormalEnds(q Query) []abnormalEnd {
	return []abnormalEnd{
		{"closed-after-1", func(s *Searcher) error {
			it, err := s.TopK(q)
			if err != nil {
				return err
			}
			if _, ok := it.Next(); !ok {
				return fmt.Errorf("no first result: %v", it.Err())
			}
			return it.Close()
		}},
		{"relaxations-tripped", func(s *Searcher) error {
			q := q
			q.Limits = Limits{MaxRelaxations: 60}
			it, err := s.All(q)
			if errors.As(err, new(ErrBudgetExhausted)) {
				return nil // an indexed searcher's projection fails closed
			}
			if err != nil {
				return err
			}
			for {
				if _, ok := it.Next(); !ok {
					break
				}
			}
			if !errors.As(it.Err(), new(ErrBudgetExhausted)) {
				return fmt.Errorf("stop reason %v, want an exhausted budget", it.Err())
			}
			return nil
		}},
		{"ranker-panicked", func(s *Searcher) error {
			q := q
			q.Ranker = panicRanker{}
			it, err := s.TopK(q)
			if err != nil {
				return err
			}
			if _, ok := it.Next(); ok {
				return errors.New("a panicking ranker produced a result")
			}
			if !errors.Is(it.Close(), ErrInternal) {
				return fmt.Errorf("stop reason %v, want ErrInternal", it.Err())
			}
			return nil
		}},
	}
}

// TestRecyclingAfterAbnormalEnds: a Searcher recycles each query's
// graph-sized state into the next one. After every way a query can end
// early, the next query on the same plain Searcher must answer
// byte-identically to a fresh Searcher, sequential and parallel.
func TestRecyclingAfterAbnormalEnds(t *testing.T) {
	g, _ := PaperExampleGraph()
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	render := func(s *Searcher, algo Algorithm) string {
		it, err := s.SearchCtx(context.Background(), algo, q)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, it)
	}
	for _, par := range []int{1, 4} {
		fresh := mustOpen(t, g, WithParallelism(par))
		want := map[Algorithm]string{AlgoAll: render(fresh, AlgoAll), AlgoTopK: render(fresh, AlgoTopK)}
		s := mustOpen(t, g, WithParallelism(par))
		for _, end := range abnormalEnds(q) {
			for _, algo := range []Algorithm{AlgoTopK, AlgoAll} {
				for rep := 0; rep < 2; rep++ {
					if err := end.run(s); err != nil {
						t.Fatalf("par %d %s: %v", par, end.name, err)
					}
					if got := render(s, algo); got != want[algo] {
						t.Fatalf("par %d: %s after %s diverged from a fresh searcher\n--- fresh ---\n%s--- recycled ---\n%s",
							par, algo, end.name, want[algo], got)
					}
				}
			}
		}
	}
}

// TestWarmPlainTopKRecyclesGraphSizedState: a plain query draws
// G_D-sized results for its projection and G_P-sized ones for its
// engine from the one Searcher pool. The pool recycles only the
// G_D-sized ones, so G_P-sized requests never evict them, and a warm
// query allocates less than one G_D-sized result.
func TestWarmPlainTopKRecyclesGraphSizedState(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled items at random under the race detector")
	}
	db, err := GenerateDBLP(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, g, WithParallelism(1))
	q := Query{Keywords: []string{"database", "graph"}, Rmax: 6}
	run := func() {
		it, err := s.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		mustCollect(t, it, 10)
	}
	for i := 0; i < 5; i++ {
		run()
	}
	const queries = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < queries; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perQuery := (after.TotalAlloc - before.TotalAlloc) / queries
	resultBytes := uint64(sssp.NewResult(g.NumNodes()).Bytes())
	t.Logf("%d nodes: %d bytes allocated per warm query, an n-sized result is %d", g.NumNodes(), perQuery, resultBytes)
	if perQuery >= resultBytes {
		t.Fatalf("a warm plain TopK allocates %d bytes, at least one %d-byte G_D-sized result", perQuery, resultBytes)
	}
}
