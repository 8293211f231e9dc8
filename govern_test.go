package commdb

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// dblpSearcher builds the shared governance-test workload: a DBLP graph
// large enough that a full COMM-all enumeration of the probe keywords
// takes seconds, so a sub-second deadline reliably interrupts it mid-flight.
var dblpOnce sync.Once
var dblpGraph *Graph

func dblpTestGraph(t *testing.T) *Graph {
	t.Helper()
	dblpOnce.Do(func() {
		db, err := GenerateDBLP(5000, 7)
		if err != nil {
			t.Fatal(err)
		}
		g, _, err := GraphFromDatabase(db)
		if err != nil {
			t.Fatal(err)
		}
		dblpGraph = g
	})
	if dblpGraph == nil {
		t.Fatal("DBLP test graph failed to build in an earlier test")
	}
	return dblpGraph
}

// governedQuery is the probe whose unrestricted enumeration takes
// seconds on the dblpTestGraph (measured ~3s / ~1800 communities).
func governedQuery(lim Limits) Query {
	return Query{Keywords: []string{"web", "parallel"}, Rmax: 14, Limits: lim}
}

// testDeadline is the governance tests' query deadline: several times
// the ~25ms the probe's first community takes on an idle core, so a
// loaded host still admits it, and far below the seconds the full
// enumeration takes — scaled up under the race detector, whose
// instrumentation slows the engine by about as much.
func testDeadline() time.Duration {
	if raceEnabled {
		return time.Second
	}
	return 200 * time.Millisecond
}

// TestDeadlineTopK: acceptance criterion — a TopK enumeration with a
// short deadline returns partial results and Err() ==
// context.DeadlineExceeded; no hang, no panic.
func TestDeadlineTopK(t *testing.T) {
	s := mustOpen(t, dblpTestGraph(t))
	it, err := s.TopK(governedQuery(Limits{Timeout: testDeadline()}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		n++
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("deadline took %v to stop the query", e)
	}
	if it.Err() != context.DeadlineExceeded {
		t.Fatalf("Err() = %v, want context.DeadlineExceeded", it.Err())
	}
	if !errors.Is(it.Err(), ErrDeadlineExceeded) {
		t.Fatal("Err() must match the re-exported ErrDeadlineExceeded")
	}
	if n == 0 {
		t.Fatal("the deadline should still admit at least the first result")
	}
	t.Logf("partial ranking prefix: %d communities before the deadline", n)
}

// TestDeadlineAll: the same criterion for the COMM-all enumerator, with
// the deadline carried by the context instead of Query.Limits.
func TestDeadlineAll(t *testing.T) {
	s := mustOpen(t, dblpTestGraph(t))
	ctx, cancel := context.WithTimeout(context.Background(), testDeadline())
	defer cancel()
	it, err := s.AllCtx(ctx, governedQuery(Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	n := 0
	for {
		if _, ok := it.NextCore(); !ok {
			break
		}
		n++
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("context deadline took %v to stop the query", e)
	}
	if !errors.Is(it.Err(), context.DeadlineExceeded) {
		t.Fatalf("Err() = %v, want context.DeadlineExceeded", it.Err())
	}
	if n == 0 {
		t.Fatal("the deadline should still admit at least the first result")
	}
}

// eachParallelism runs f against the paper graph opened strictly
// sequential and with the materialization pipeline on, so a single-core
// host exercises the pipeline's lookahead too.
func eachParallelism(t *testing.T, f func(t *testing.T, s *Searcher)) {
	g, _ := PaperExampleGraph()
	for _, par := range []int{1, 4} {
		t.Run("parallelism="+strconv.Itoa(par), func(t *testing.T) {
			f(t, mustOpen(t, g, WithParallelism(par)))
		})
	}
}

// stopsOnNext asserts the contract both stop tests share: the very next
// Next reports the stop — nothing buffered before it is handed out —
// and the iterator stays stopped with the same reason.
func stopsOnNext(t *testing.T, it *Results, want error) {
	t.Helper()
	for i := 0; i < 3; i++ {
		if _, ok := it.Next(); ok {
			t.Fatalf("Next %d after the stop still returned a community", i+1)
		}
		if !errors.Is(it.Err(), want) {
			t.Fatalf("Err() = %v, want %v", it.Err(), want)
		}
	}
}

// cancelMidStream cancels a query's context (with a cause) after its
// first community and requires the next Next to observe it.
func cancelMidStream(t *testing.T, algo Algorithm) {
	cause := errors.New("load shed")
	eachParallelism(t, func(t *testing.T, s *Searcher) {
		ctx, cancel := context.WithCancelCause(context.Background())
		defer cancel(nil)
		it, err := s.SearchCtx(ctx, algo, Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.Next(); !ok {
			t.Fatal("first community must arrive before cancellation")
		}
		// Let the pipeline fill its lookahead, so the cancel lands with
		// communities already buffered.
		time.Sleep(10 * time.Millisecond)
		cancel(cause)
		stopsOnNext(t, it, cause)
	})
}

// TestCancellationBounded: a context canceled mid-enumeration stops the
// iterator within one further Next call — never a hang, never a panic —
// and surfaces the cancellation cause via Err().
func TestCancellationBounded(t *testing.T) { cancelMidStream(t, AlgoAll) }

// TestCancellationTopK: the ranked enumerator honors cancellation the
// same way.
func TestCancellationTopK(t *testing.T) { cancelMidStream(t, AlgoTopK) }

// TestDeadlineBounded: the same contract for a deadline that passes
// between two Next calls, carried by Query.Limits.
func TestDeadlineBounded(t *testing.T) {
	for _, algo := range []Algorithm{AlgoAll, AlgoTopK} {
		t.Run(algo.String(), func(t *testing.T) {
			eachParallelism(t, func(t *testing.T, s *Searcher) {
				deadline := time.Now().Add(testDeadline())
				it, err := s.SearchCtx(context.Background(), algo, Query{
					Keywords: []string{"a", "b", "c"}, Rmax: 8, Limits: Limits{Deadline: deadline}})
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := it.Next(); !ok {
					t.Fatalf("first community must arrive before the deadline: %v", it.Err())
				}
				time.Sleep(time.Until(deadline) + time.Millisecond)
				stopsOnNext(t, it, context.DeadlineExceeded)
			})
		})
	}
}

// TestMaxResultsPipelined: a results budget is not a cancellation — the
// pipeline must still deliver every community the budget granted, then
// report the exhausted resource, exactly as sequential execution does.
func TestMaxResultsPipelined(t *testing.T) {
	for _, algo := range []Algorithm{AlgoAll, AlgoTopK} {
		t.Run(algo.String(), func(t *testing.T) {
			eachParallelism(t, func(t *testing.T, s *Searcher) {
				it, err := s.SearchCtx(context.Background(), algo, Query{
					Keywords: []string{"a", "b", "c"}, Rmax: 8, Limits: Limits{MaxResults: 3}})
				if err != nil {
					t.Fatal(err)
				}
				got, err := it.Collect(0)
				if len(got) != 3 {
					t.Fatalf("MaxResults=3 granted %d communities", len(got))
				}
				var be ErrBudgetExhausted
				if !errors.As(err, &be) || be.Resource != ResourceResults {
					t.Fatalf("Collect err = %v, want results exhaustion", err)
				}
			})
		})
	}
}

// TestCanceledContextAtSetup: an indexed query whose context is already
// canceled fails at projection time with the reason, rather than
// handing back an iterator that silently yields nothing.
func TestCanceledContextAtSetup(t *testing.T) {
	g, _ := PaperExampleGraph()
	s, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = s.AllCtx(ctx, Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("setup on a canceled context = %v, want context.Canceled", err)
	}
}

// TestMaxResults: MaxResults = k grants exactly k communities, then
// reports the exhausted resource via errors.As on ErrBudgetExhausted —
// and the k results are the exact prefix of the ungoverned enumeration.
func TestMaxResults(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}

	free, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	full, err := free.Collect(0)
	if err != nil || len(full) != 5 {
		t.Fatalf("ungoverned run: %d communities, err %v", len(full), err)
	}

	q.Limits = Limits{MaxResults: 2}
	it, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := it.Collect(0)
	if len(got) != 2 {
		t.Fatalf("MaxResults=2 granted %d communities", len(got))
	}
	var be ErrBudgetExhausted
	if !errors.As(err, &be) {
		t.Fatalf("Collect err = %v, want ErrBudgetExhausted", err)
	}
	if be.Resource != ResourceResults || be.Limit != 2 {
		t.Fatalf("tripped on %+v, want results/2", be)
	}
	for i, r := range got {
		if r.Core.Key() != full[i].Core.Key() {
			t.Fatalf("governed result %d is not a prefix of the free enumeration", i)
		}
	}
}

// TestMaxNeighborRuns: capping Dijkstra invocations stops the query
// with the neighbor-runs resource, after a valid partial set.
func TestMaxNeighborRuns(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	it, err := s.TopK(Query{
		Keywords: []string{"a", "b", "c"}, Rmax: 8,
		Limits: Limits{MaxNeighborRuns: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := it.Collect(10); len(got) != 0 {
		t.Fatalf("one allowed Dijkstra cannot produce %d communities", len(got))
	}
	var be ErrBudgetExhausted
	if !errors.As(it.Err(), &be) || be.Resource != ResourceNeighborRuns {
		t.Fatalf("Err() = %v, want neighbor-runs exhaustion", it.Err())
	}
}

// TestMaxRelaxations: capping shortest-path work units trips on the
// relaxations resource (the CLI's -max-visited).
func TestMaxRelaxations(t *testing.T) {
	s := mustOpen(t, dblpTestGraph(t))
	it, err := s.All(governedQuery(Limits{MaxRelaxations: 500}))
	if err != nil {
		t.Fatal(err)
	}
	_, err = it.Collect(0)
	var be ErrBudgetExhausted
	if !errors.As(err, &be) || be.Resource != ResourceRelaxations {
		t.Fatalf("Collect err = %v, want relaxations exhaustion", err)
	}
	if be.Spent <= be.Limit {
		t.Fatalf("spent %d must exceed limit %d", be.Spent, be.Limit)
	}
}

// TestMaxCanTuples: the top-k can-list growth — the paper's only
// unbounded space term — is cappable.
func TestMaxCanTuples(t *testing.T) {
	s := mustOpen(t, dblpTestGraph(t))
	it, err := s.TopK(governedQuery(Limits{MaxCanTuples: 8}))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		if _, ok := it.NextCore(); !ok {
			break
		}
		n++
	}
	var be ErrBudgetExhausted
	if !errors.As(it.Err(), &be) || be.Resource != ResourceCanTuples {
		t.Fatalf("Err() = %v, want can-tuples exhaustion", it.Err())
	}
	if n == 0 {
		t.Fatal("the can-list cap should still admit early results")
	}
}

// TestGovernedIndexedQuery: budgets work identically through the
// projected path, and an ungoverned indexed query is unaffected.
func TestGovernedIndexedQuery(t *testing.T) {
	g, _ := PaperExampleGraph()
	s, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8, Limits: Limits{MaxResults: 3}}
	it, err := s.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := it.Collect(10)
	if len(got) != 3 {
		t.Fatalf("MaxResults=3 granted %d", len(got))
	}
	var be ErrBudgetExhausted
	if !errors.As(it.Err(), &be) || be.Resource != ResourceResults {
		t.Fatalf("Err() = %v, want results exhaustion", it.Err())
	}
}

// TestRmaxValidation: NaN and ±Inf radii are rejected up front — NaN
// compares false against everything, so it would otherwise poison
// every distance comparison downstream.
func TestRmaxValidation(t *testing.T) {
	g, _ := PaperExampleGraph()
	s := mustOpen(t, g)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		if _, err := s.All(Query{Keywords: []string{"a"}, Rmax: bad}); err == nil {
			t.Fatalf("All accepted Rmax %v", bad)
		}
		if _, err := s.TopK(Query{Keywords: []string{"a"}, Rmax: bad}); err == nil {
			t.Fatalf("TopK accepted Rmax %v", bad)
		}
	}
	if _, err := Open(g, WithIndex(math.NaN())); err == nil {
		t.Fatal("WithIndex accepted a NaN radius")
	}
	if _, err := Open(g, WithIndex(math.Inf(1))); err == nil {
		t.Fatal("WithIndex accepted an infinite radius")
	}
}

// TestPanicRecovery: a panic inside the enumeration machinery is
// converted to an error at the public boundary — it fails the one
// query, not the process — and the iterator reports it via Err().
func TestPanicRecovery(t *testing.T) {
	// Iterators corrupted to panic on use (nil internal enumerator).
	all := &Results{}
	if _, ok := all.Next(); ok {
		t.Fatal("a panicking iterator must not report ok")
	}
	if err := all.Err(); err == nil || !strings.Contains(err.Error(), "internal panic") {
		t.Fatalf("Err() = %v, want a recovered internal panic", err)
	}
	topk := &Results{}
	if _, ok := topk.NextCore(); ok {
		t.Fatal("a panicking iterator must not report ok")
	}
	if err := topk.Err(); err == nil || !strings.Contains(err.Error(), "internal panic") {
		t.Fatalf("Err() = %v, want a recovered internal panic", err)
	}
	// Once poisoned, the iterator stays stopped without re-panicking.
	if _, ok := all.Next(); ok {
		t.Fatal("poisoned iterator revived")
	}
}

// TestConcurrentGovernedQueries: the doc claim "a Searcher is safe for
// concurrent use" under governance — goroutines sharing one indexed
// Searcher, some governed, some canceled mid-flight; run under -race.
func TestConcurrentGovernedQueries(t *testing.T) {
	g, _ := PaperExampleGraph()
	s, err := Open(g, WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			lim := Limits{}
			if i%2 == 0 {
				lim.MaxResults = int64(1 + i%4)
			}
			it, err := s.TopKCtx(ctx, Query{Keywords: q.Keywords, Rmax: q.Rmax, Limits: lim})
			if err != nil {
				errs <- err
				return
			}
			for n := 0; ; n++ {
				if n == 2 && i%3 == 0 {
					cancel()
				}
				if _, ok := it.Next(); !ok {
					break
				}
			}
			if err := it.Err(); err != nil {
				var be ErrBudgetExhausted
				if !errors.As(err, &be) && !errors.Is(err, context.Canceled) {
					errs <- err
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
