package commdb

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"commdb/internal/obs"
)

// renderAll drains an iterator into a canonical textual rendering of
// every community (all fields: core, cost, knodes, cnodes, pnodes,
// nodes) plus the iterator's terminal error, so two runs can be
// compared for byte-identical output.
func renderAll(t *testing.T, it *Results) string {
	t.Helper()
	var b strings.Builder
	for {
		c, ok := it.Next()
		if !ok {
			break
		}
		fmt.Fprintf(&b, "%+v\n", *c)
	}
	fmt.Fprintf(&b, "err=%v\n", it.Err())
	if err := it.Close(); err != nil && it.Err() == nil {
		t.Fatalf("Close after exhaustion: %v", err)
	}
	return b.String()
}

// TestParallelDeterminism is the contract the pipeline must keep: a
// searcher opened with WithParallelism(4) emits the byte-identical
// community sequence — same order, same costs, same node sets — and
// the same stop reason as the strictly sequential WithParallelism(1)
// path, for both COMM-all and COMM-k, unlimited and budget-limited.
// CI runs this under -race, which also makes it the data-race gate for
// the precompute fan-out and the materialization pipeline.
func TestParallelDeterminism(t *testing.T) {
	g, _ := PaperExampleGraph()
	seq, err := Open(g, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Open(g, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := par.Parallelism(); got != 4 {
		t.Fatalf("Parallelism() = %d, want 4", got)
	}

	queries := []Query{
		{Keywords: []string{"a", "b", "c"}, Rmax: 8},
		{Keywords: []string{"a", "b"}, Rmax: 8},
		{Keywords: []string{"b", "c"}, Rmax: 6},
	}
	algos := []Algorithm{AlgoAll, AlgoTopK}
	// MaxResults is the deterministic budget: it trips at the same
	// emission count regardless of worker interleaving, so the limited
	// runs must agree on the stop reason too.
	limits := []Limits{{}, {MaxResults: 2}}

	for _, q := range queries {
		for _, algo := range algos {
			for _, lim := range limits {
				q := q
				q.Limits = lim
				name := fmt.Sprintf("%s/%v/max=%d", algo, q.Keywords, lim.MaxResults)
				run := func(s *Searcher) string {
					it, err := s.SearchCtx(context.Background(), algo, q)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return renderAll(t, it)
				}
				want := run(seq)
				for rep := 0; rep < 3; rep++ {
					if got := run(par); got != want {
						t.Fatalf("%s rep %d: parallel output diverged from sequential\n--- sequential ---\n%s--- parallel ---\n%s",
							name, rep, want, got)
					}
				}
			}
		}
	}
}

// TestParallelDeterminismIndexed repeats the determinism check through
// the index-projection path, where cores are mapped back to original
// node IDs after materialization.
func TestParallelDeterminismIndexed(t *testing.T) {
	g, _ := PaperExampleGraph()
	seq, err := Open(g, WithIndex(8), WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := Open(g, WithIndex(8), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}
	run := func(s *Searcher, algo Algorithm) string {
		it, err := s.SearchCtx(context.Background(), algo, q)
		if err != nil {
			t.Fatal(err)
		}
		return renderAll(t, it)
	}
	for _, algo := range []Algorithm{AlgoAll, AlgoTopK} {
		want := run(seq, algo)
		if got := run(par, algo); got != want {
			t.Fatalf("%s: indexed parallel output diverged\n--- sequential ---\n%s--- parallel ---\n%s", algo, want, got)
		}
	}
}

// TestParallelEarlyClose abandons parallel streams mid-enumeration and
// at every other point in their lifecycle: Close must stop the
// pipeline's producer and workers (the race detector and goroutine
// accounting in -race CI catch leaks), be idempotent, and keep
// returning the same terminal error.
func TestParallelEarlyClose(t *testing.T) {
	g, _ := PaperExampleGraph()
	s, err := Open(g, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Keywords: []string{"a", "b", "c"}, Rmax: 8}

	// Close before the first Next: the pipeline never started.
	it, err := s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("Close before Next: %v", err)
	}

	// Close mid-stream, then again: both nil, Next stays done.
	it, err = s.All(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); !ok {
		t.Fatal("no first community")
	}
	for i := 0; i < 2; i++ {
		if err := it.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if _, ok := it.Next(); ok {
		t.Fatal("Next returned a community after Close")
	}

	// Close after a budget stop reports the budget error.
	q2 := q
	q2.Limits = Limits{MaxResults: 1}
	it, err = s.All(q2)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := it.Next(); !ok {
			break
		}
	}
	if it.Err() == nil {
		t.Fatal("budget-limited run reported no stop reason")
	}
	if err := it.Close(); err == nil {
		t.Fatal("Close after budget stop returned nil, want the stop reason")
	}
}

// TestOpenOptionValidation pins the option surface: WithIndex and
// WithIndexReader are mutually exclusive, and nil graphs are rejected.
func TestOpenOptionValidation(t *testing.T) {
	g, _ := PaperExampleGraph()
	if _, err := Open(g, WithIndex(8), WithIndexReader(strings.NewReader("x"))); err == nil {
		t.Fatal("WithIndex+WithIndexReader: want error, got nil")
	}
	if _, err := Open(nil); err == nil {
		t.Fatal("Open(nil): want error, got nil")
	}
	// Zero and negative parallelism normalize to GOMAXPROCS (>= 1).
	for _, n := range []int{0, -3} {
		s, err := Open(g, WithParallelism(n))
		if err != nil {
			t.Fatal(err)
		}
		if s.Parallelism() < 1 {
			t.Fatalf("WithParallelism(%d): Parallelism() = %d, want >= 1", n, s.Parallelism())
		}
	}
}

// TestEmissionStampedAtHandover: a trace's emissions are the
// communities the caller received, stamped when they are handed over —
// not the cores the pipeline's producer ran ahead to, and not before
// the community is materialized.
func TestEmissionStampedAtHandover(t *testing.T) {
	g, _ := PaperExampleGraph()
	s, err := Open(g, WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	it, err := s.TopKCtx(obs.ContextWithTrace(context.Background(), tr), Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
	if err != nil {
		t.Fatal(err)
	}
	if got := mustCollect(t, it, 2); len(got) != 2 {
		t.Fatalf("took %d communities, want 2", len(got))
	}
	it.Close()
	if n := tr.Summary().Counter("emitted"); n != 2 {
		t.Fatalf("emitted = %d after taking 2 of 5, want 2", n)
	}

	db, err := GenerateDBLP(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	dblp, _, err := GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	const hold = 50 * time.Millisecond
	for _, par := range []int{1, 4} {
		s, err := Open(dblp, WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("")
		it, err := s.TopKCtx(obs.ContextWithTrace(context.Background(), tr), Query{Keywords: []string{"web", "parallel"}, Rmax: 8})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := it.Next(); !ok {
			t.Fatalf("parallelism %d: no community: %v", par, it.Err())
		}
		// While the caller holds the first community the pipeline's
		// producer materializes ahead; the second is handed over only
		// after the hold, so its gap covers the hold.
		time.Sleep(hold)
		if _, ok := it.Next(); !ok {
			t.Fatalf("parallelism %d: no second community: %v", par, it.Err())
		}
		it.Close()
		sum := tr.Summary()
		init, ok := sum.Span("engine_init")
		if !ok || sum.Emissions == nil || len(sum.Emissions.DelaysMS) < 2 {
			t.Fatalf("parallelism %d: trace lacks engine_init or two emissions: %+v", par, sum)
		}
		// The first core's search and its materialization precede the
		// first stamp.
		if initEnd, first := init.StartMS+init.DurMS, sum.Emissions.FirstMS; first <= initEnd {
			t.Errorf("parallelism %d: first_ms %.3f, engine_init ended %.3f: stamped before the handover", par, first, initEnd)
		}
		if gap := sum.Emissions.DelaysMS[1]; gap < float64(hold)/float64(time.Millisecond) {
			t.Errorf("parallelism %d: second emission %.3fms after the first, inside the %v hold: stamped at production, not handover", par, gap, hold)
		}
	}
}
