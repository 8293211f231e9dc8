package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commdb"
	"commdb/internal/fault"
	"commdb/internal/index"
)

// testGraph builds a tiny keyword graph: a ring where every node
// carries "alpha" and every other node carries "beta".
func testGraph(t *testing.T, n int) *commdb.Graph {
	t.Helper()
	b := commdb.NewGraphBuilder()
	ids := make([]commdb.NodeID, n)
	for i := 0; i < n; i++ {
		terms := []string{"alpha"}
		if i%2 == 0 {
			terms = append(terms, "beta")
		}
		ids[i] = b.AddNode(fmt.Sprintf("n%d", i), terms...)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(ids[i], ids[(i+1)%n], 1)
		b.AddEdge(ids[(i+1)%n], ids[i], 1)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testSearcher(t *testing.T, g *commdb.Graph, r float64) *commdb.Searcher {
	t.Helper()
	s, err := commdb.Open(g, commdb.WithIndex(r), commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// writeIndexFile serializes s's index to dir and returns the path.
func writeIndexFile(t *testing.T, dir string, s *commdb.Searcher) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "test.cdbx")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLeaseSurvivesSwap: an epoch is a pointer — one taken before two
// reloads (the second drops the manager's last reference to it) keeps
// its own searcher and ID, and still answers, after a collection.
func TestLeaseSurvivesSwap(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	held := m.Serving()
	if held.ID() != 1 {
		t.Fatalf("initial epoch = %d, want 1", held.ID())
	}
	oldSearcher := held.Searcher()
	for want := int64(2); want <= 3; want++ {
		if out, err := m.Reload(context.Background()); err != nil || out != OutcomeSuccess {
			t.Fatalf("reload: %s, %v", out, err)
		}
		if m.Current() != want {
			t.Fatalf("current = %d, want %d", m.Current(), want)
		}
	}
	for _, e := range m.LiveEpochs() {
		if e == held {
			t.Fatal("manager still points at epoch 1 after two reloads")
		}
	}
	runtime.GC()
	if held.Searcher() != oldSearcher || held.ID() != 1 {
		t.Fatal("held epoch changed identity across swaps")
	}
	it, err := held.Searcher().TopK(commdb.Query{Keywords: []string{"alpha", "beta"}, Rmax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := it.Collect(3); err != nil || len(got) != 3 {
		t.Fatalf("held epoch answered %d communities (%v), want 3", len(got), err)
	}
	// New requests see the new epoch.
	if e := m.Serving(); e.ID() != 3 || e == held {
		t.Fatalf("serving epoch = %d, want 3", e.ID())
	}
}

func TestFailedLoadLeavesEpochServing(t *testing.T) {
	g := testGraph(t, 8)
	boom := errors.New("disk on fire")
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return nil, boom },
	})
	out, err := m.Reload(context.Background())
	if out != OutcomeRejectedIO || !errors.Is(err, boom) {
		t.Fatalf("outcome %s err %v, want rejected_io wrapping boom", out, err)
	}
	if m.Current() != 1 {
		t.Fatalf("current = %d, want 1 (unchanged)", m.Current())
	}
	st := m.Status()
	if st.Reloads[OutcomeRejectedIO] != 1 || st.LastError == "" {
		t.Fatalf("status not recording rejection: %+v", st)
	}
}

func TestCorruptArtifactRejectedNoRetry(t *testing.T) {
	g := testGraph(t, 8)
	dir := t.TempDir()
	ixPath := writeIndexFile(t, dir, testSearcher(t, g, 4))
	data, err := os.ReadFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	// Truncation is unambiguous corruption (a flipped byte may instead
	// trip the wrong-graph gate, classified rejected_validation).
	if err := os.WriteFile(ixPath, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	// A graph file has no such gate: one flipped byte is corruption, and
	// must not be retried as if the disk had hiccuped.
	var gbuf bytes.Buffer
	if err := commdb.WriteGraph(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	gdata := gbuf.Bytes()
	gdata[len(gdata)/2] ^= 0x04
	gPath := filepath.Join(dir, "g.graph")
	if err := os.WriteFile(gPath, gdata, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		inner Loader
		want  error
	}{
		{"index", IndexFileLoader(g, ixPath, commdb.WithParallelism(1)), index.ErrCorruptIndex},
		{"graph", GraphFileLoader(gPath, 4, commdb.WithParallelism(1)), commdb.ErrCorruptGraph},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := 0
			m := New(testSearcher(t, g, 4), Config{
				Load: func(inj *fault.Injector) (*commdb.Searcher, error) {
					calls++
					return tc.inner(inj)
				},
			})
			out, err := m.Reload(context.Background())
			if out != OutcomeRejectedCorrupt || !errors.Is(err, tc.want) {
				t.Fatalf("outcome %s err %v, want rejected_corrupt wrapping %v", out, err, tc.want)
			}
			if calls != 1 {
				t.Fatalf("corrupt artifact retried %d times; corruption is permanent", calls)
			}
			if m.Current() != 1 {
				t.Fatal("epoch changed after corrupt load")
			}
		})
	}
}

func TestTransientErrorRetriesThenHeals(t *testing.T) {
	g := testGraph(t, 8)
	inj := fault.New(7)
	// Every retry fails but the last, which heals.
	inj.Arm(fault.PointLoad, fault.Plan{Mode: fault.Error, Fires: loadRetries})
	m := New(testSearcher(t, g, 4), Config{
		Load:  func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Fault: inj,
	})
	start := time.Now()
	out, err := m.Reload(context.Background())
	if out != OutcomeSuccess || err != nil {
		t.Fatalf("outcome %s err %v, want success after transient retries", out, err)
	}
	if inj.Fired(fault.PointLoad) != loadRetries {
		t.Fatalf("fired %d, want %d", inj.Fired(fault.PointLoad), loadRetries)
	}
	// The waits double: loadBackoff, then 2×loadBackoff.
	if waited := time.Since(start); waited < 3*loadBackoff {
		t.Fatalf("reload took %v, want at least the %v of doubling backoff", waited, 3*loadBackoff)
	}
}

func TestLoadPanicRejected(t *testing.T) {
	g := testGraph(t, 8)
	inj := fault.New(7)
	inj.Arm(fault.PointLoad, fault.Plan{Mode: fault.Panic})
	m := New(testSearcher(t, g, 4), Config{
		Load:  func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Fault: inj,
	})
	out, err := m.Reload(context.Background())
	if out != OutcomeRejectedPanic || !errors.Is(err, ErrLoadPanic) {
		t.Fatalf("outcome %s err %v, want rejected_panic", out, err)
	}
	if m.Current() != 1 {
		t.Fatal("epoch changed after load panic")
	}
}

func TestRadiusValidationGate(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 6), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 3), nil },
	})
	out, err := m.Reload(context.Background())
	if out != OutcomeRejectedValidation || err == nil {
		t.Fatalf("outcome %s err %v, want rejected_validation (radius shrank)", out, err)
	}
	if m.Current() != 1 {
		t.Fatal("epoch changed despite failed validation")
	}
}

func TestProbationRollbackOnInternalErrors(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	if out, _ := m.Reload(context.Background()); out != OutcomeSuccess {
		t.Fatal("reload failed")
	}
	if st := m.Status(); !st.Probation || st.PrevEpoch != 1 {
		t.Fatalf("expected probation with prev retained: %+v", st)
	}
	internal := fmt.Errorf("%w: query blew up", commdb.ErrInternal)
	m.ObserveQuery(2, nil)
	if m.Current() != 2 {
		t.Fatal("rolled back after a clean query")
	}
	m.ObserveQuery(2, internal)
	if m.Current() != 1 {
		t.Fatalf("current = %d, want rollback to 1", m.Current())
	}
	if got := m.Counts()[OutcomeRolledBack]; got != 1 {
		t.Fatalf("rolled_back count = %d, want 1", got)
	}
	// Queries from the drained epoch no longer count against anything.
	m.ObserveQuery(2, internal)
}

func TestProbationPassesAndCommits(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	if out, _ := m.Reload(context.Background()); out != OutcomeSuccess {
		t.Fatal("reload failed")
	}
	for i := 0; i < probationQueries-1; i++ {
		m.ObserveQuery(2, nil)
	}
	if st := m.Status(); !st.Probation || st.ProbationRemaining != 1 || st.PrevEpoch != 1 {
		t.Fatalf("one query before the window closes: %+v", st)
	}
	m.ObserveQuery(2, nil)
	st := m.Status()
	if st.Probation || st.PrevEpoch != 0 {
		t.Fatalf("probation should have committed: %+v", st)
	}
	// Non-internal errors (budget trips etc.) never count as failures.
	m2 := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	m2.Reload(context.Background())
	m2.ObserveQuery(2, errors.New("budget exhausted"))
	m2.ObserveQuery(2, context.DeadlineExceeded)
	if m2.Current() != 2 {
		t.Fatal("ordinary query errors must not trigger rollback")
	}
}

func TestReloadDuringProbationCommitsPrev(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	m.Reload(context.Background())
	m.Reload(context.Background())
	if m.Current() != 3 {
		t.Fatalf("current = %d, want 3", m.Current())
	}
	// Epoch 1 must be gone: the second reload adjudicated epoch 2's
	// probation, so prev is now epoch 2, not 1.
	if st := m.Status(); st.PrevEpoch != 2 {
		t.Fatalf("prev = %d, want 2", st.PrevEpoch)
	}
}

func TestConcurrentAcquireDuringReloads(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := m.Serving()
				if e.Searcher() == nil {
					t.Error("epoch with nil searcher")
				}
				m.ObserveQuery(e.ID(), nil)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := m.Reload(context.Background()); err != nil && !errors.Is(err, ErrReloadInFlight) {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestWatchTriggersReload(t *testing.T) {
	g := testGraph(t, 8)
	dir := t.TempDir()
	path := writeIndexFile(t, dir, testSearcher(t, g, 4))
	m := New(testSearcher(t, g, 4), Config{
		Load: IndexFileLoader(g, path, commdb.WithParallelism(1)),
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int)
	go func() { done <- m.Watch(ctx, path, 10*time.Millisecond) }()
	time.Sleep(30 * time.Millisecond)
	// Touch the file with a strictly newer mtime.
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Current() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	triggered := <-done
	if triggered < 1 || m.Current() < 2 {
		t.Fatalf("watch triggered %d reloads, epoch %d; want >=1 and epoch >=2", triggered, m.Current())
	}
}

// TestWatchRetriesTransientFailure: a watch-triggered load that fails
// transiently past its retries is tried again on the next tick — the
// artifact must not wait for a second publish to move the mtime.
func TestWatchRetriesTransientFailure(t *testing.T) {
	g := testGraph(t, 8)
	path := writeIndexFile(t, t.TempDir(), testSearcher(t, g, 4))
	inner := IndexFileLoader(g, path, commdb.WithParallelism(1))
	var calls atomic.Int64
	m := New(testSearcher(t, g, 4), Config{
		// The first reload fails on every attempt; the watch's next tick heals.
		Load: func(inj *fault.Injector) (*commdb.Searcher, error) {
			if calls.Add(1) <= loadRetries+1 {
				return nil, errors.New("device hiccup")
			}
			return inner(inj)
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan int)
	go func() { done <- m.Watch(ctx, path, 10*time.Millisecond) }()
	time.Sleep(30 * time.Millisecond)
	future := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(path, future, future); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.Current() < 2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	<-done
	counts := m.Counts()
	if m.Current() != 2 || counts[OutcomeRejectedIO] != 1 || counts[OutcomeSuccess] != 1 {
		t.Fatalf("epoch %d, outcomes %v, %d loads; want epoch 2 after one rejected_io and one success",
			m.Current(), counts, calls.Load())
	}
}

func TestFileLoaders(t *testing.T) {
	g := testGraph(t, 8)
	dir := t.TempDir()
	s := testSearcher(t, g, 4)
	idxPath := writeIndexFile(t, dir, s)
	graphPath := filepath.Join(dir, "g.cdbg")
	gf, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := commdb.WriteGraph(gf, g); err != nil {
		t.Fatal(err)
	}
	gf.Close()

	for _, tc := range []struct {
		name string
		load Loader
	}{
		{"index-file", IndexFileLoader(g, idxPath, commdb.WithParallelism(1))},
		{"graph-build", GraphFileLoader(graphPath, 4, commdb.WithParallelism(1))},
		{"graph+index", GraphIndexFileLoader(graphPath, idxPath, commdb.WithParallelism(1))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.load(nil)
			if err != nil {
				t.Fatal(err)
			}
			if !s.Indexed() || s.IndexRadius() != 4 {
				t.Fatalf("loader produced unindexed or wrong-radius searcher (r=%v)", s.IndexRadius())
			}
		})
	}

	// A fault-armed loader fails closed.
	inj := fault.New(3)
	// The whole small file arrives in the first Read, so fire on op 0.
	inj.Arm(fault.PointIndexRead, fault.Plan{Mode: fault.BitFlip})
	if _, err := IndexFileLoader(g, idxPath, commdb.WithParallelism(1))(inj); err == nil {
		t.Fatal("bit-flipped index load should fail")
	}
}
