package commdb

import (
	"context"
	"errors"
	"fmt"
	"testing"
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
