package snapshot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

func TestLeaseSurvivesSwap(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	lease := m.Acquire()
	if lease.Epoch() != 1 {
		t.Fatalf("initial epoch = %d, want 1", lease.Epoch())
	}
	oldSearcher := lease.Searcher()
	if out, err := m.Reload(context.Background()); err != nil || out != OutcomeSuccess {
		t.Fatalf("reload: %s, %v", out, err)
	}
	if m.Current() != 2 {
		t.Fatalf("current = %d, want 2", m.Current())
	}
	// The old lease still points at its epoch's searcher.
	if lease.Searcher() != oldSearcher || lease.Epoch() != 1 {
		t.Fatal("in-flight lease changed identity across a swap")
	}
	// New acquires see the new epoch.
	l2 := m.Acquire()
	if l2.Epoch() != 2 {
		t.Fatalf("new lease epoch = %d, want 2", l2.Epoch())
	}
	lease.Release()
	lease.Release() // idempotent
	l2.Release()
}

func TestFailedLoadLeavesEpochServing(t *testing.T) {
	g := testGraph(t, 8)
	boom := errors.New("disk on fire")
	m := New(testSearcher(t, g, 4), Config{
		Load:    func(*fault.Injector) (*commdb.Searcher, error) { return nil, boom },
		Retries: 1, Backoff: time.Millisecond,
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
				Retries: 3, Backoff: time.Millisecond,
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
	inj.Arm(fault.PointLoad, fault.Plan{Mode: fault.Error, Fires: 2})
	m := New(testSearcher(t, g, 4), Config{
		Load:    func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Fault:   inj,
		Retries: 2, Backoff: time.Millisecond,
	})
	out, err := m.Reload(context.Background())
	if out != OutcomeSuccess || err != nil {
		t.Fatalf("outcome %s err %v, want success after transient retries", out, err)
	}
	if inj.Fired(fault.PointLoad) != 2 {
		t.Fatalf("fired %d, want 2", inj.Fired(fault.PointLoad))
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
		Load:      func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Probation: 10, ProbationFailures: 2,
	})
	if out, _ := m.Reload(context.Background()); out != OutcomeSuccess {
		t.Fatal("reload failed")
	}
	if st := m.Status(); !st.Probation || st.PrevEpoch != 1 {
		t.Fatalf("expected probation with prev retained: %+v", st)
	}
	internal := fmt.Errorf("%w: query blew up", commdb.ErrInternal)
	m.ObserveQuery(2, internal)
	if m.Current() != 2 {
		t.Fatal("rolled back after one failure with threshold 2")
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
		Load:      func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Probation: 3,
	})
	if out, _ := m.Reload(context.Background()); out != OutcomeSuccess {
		t.Fatal("reload failed")
	}
	for i := 0; i < 3; i++ {
		m.ObserveQuery(2, nil)
	}
	st := m.Status()
	if st.Probation || st.PrevEpoch != 0 {
		t.Fatalf("probation should have committed: %+v", st)
	}
	// Non-internal errors (budget trips etc.) never count as failures.
	m2 := New(testSearcher(t, g, 4), Config{
		Load:      func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Probation: 2,
	})
	m2.Reload(context.Background())
	m2.ObserveQuery(2, errors.New("budget exhausted"))
	m2.ObserveQuery(2, context.DeadlineExceeded)
	if m2.Current() != 2 {
		t.Fatal("ordinary query errors must not trigger rollback")
	}
}

func TestSLOBreachRollsBack(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
	})
	m.NoteBreach() // outside probation: ignored
	if m.Current() != 1 {
		t.Fatal("breach outside probation changed epochs")
	}
	m.Reload(context.Background())
	m.NoteBreach()
	if m.Current() != 1 {
		t.Fatalf("current = %d, want rollback to 1 after breach", m.Current())
	}
}

func TestReloadDuringProbationCommitsPrev(t *testing.T) {
	g := testGraph(t, 8)
	m := New(testSearcher(t, g, 4), Config{
		Load:      func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Probation: 100,
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
		Load:      func(*fault.Injector) (*commdb.Searcher, error) { return testSearcher(t, g, 4), nil },
		Probation: 1,
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
				l := m.Acquire()
				if l.Searcher() == nil {
					t.Error("lease with nil searcher")
				}
				m.ObserveQuery(l.Epoch(), nil)
				l.Release()
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
	// Every epoch must balance: the current epoch holds exactly the slot
	// reference (plus prev's, if retained) once all leases are released.
	st := m.Status()
	if st.ActiveLeases != 0 {
		t.Fatalf("leaked %d leases", st.ActiveLeases)
	}
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
