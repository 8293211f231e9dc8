package server

// The chaos suite: a live server hot-reloading its graph+index under
// concurrent streaming traffic while a fault injector corrupts the
// load path. The invariants it proves, under -race:
//
//   - zero dropped queries: every request issued during the storm of
//     reload attempts returns a complete response with a trailer;
//   - zero cross-epoch mixing: every record of one response comes from
//     one data generation, and each epoch ID maps to exactly one
//     generation across all clients;
//   - fail-closed loading: every corrupt/truncated/panicking artifact
//     is rejected with the prior epoch still serving, visible in
//     /statsz and commdb_reload_total.
//
// The seed matrix comes from COMMDB_CHAOS_SEEDS (comma-separated
// int64s), so CI can pin seeds and a failure reproduces exactly.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"commdb"
	"commdb/internal/fault"
	"commdb/internal/snapshot"
)

const chaosToken = "chaos-test-token"

// chaosGraph builds generation gen of the test data: a bidirectional
// ring whose node labels encode the generation ("g<gen>-n<i>"), so any
// record betrays which generation answered it.
func chaosGraph(t *testing.T, gen, n int) *commdb.Graph {
	t.Helper()
	b := commdb.NewGraphBuilder()
	ids := make([]commdb.NodeID, n)
	for i := 0; i < n; i++ {
		terms := []string{"alpha"}
		if i%2 == 0 {
			terms = append(terms, "beta")
		}
		ids[i] = b.AddNode(fmt.Sprintf("g%d-n%d", gen, i), terms...)
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

// chaosArtifacts is the on-disk pair the server reloads from.
type chaosArtifacts struct {
	graphPath, indexPath string
}

// writeGeneration atomically publishes generation gen's graph+index
// pair (temp file + rename, the same discipline cmd/indexbuild uses).
func (a chaosArtifacts) writeGeneration(t *testing.T, gen int) {
	t.Helper()
	g := chaosGraph(t, gen, 10)
	s, err := commdb.Open(g, commdb.WithIndex(4), commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	var gbuf, xbuf bytes.Buffer
	if err := commdb.WriteGraph(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteIndex(&xbuf); err != nil {
		t.Fatal(err)
	}
	a.publish(t, a.graphPath, gbuf.Bytes())
	a.publish(t, a.indexPath, xbuf.Bytes())
}

func (a chaosArtifacts) publish(t *testing.T, path string, data []byte) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// corruptIndex replaces the index artifact with mutate(original).
func (a chaosArtifacts) corruptIndex(t *testing.T, mutate func([]byte) []byte) []byte {
	t.Helper()
	orig, err := os.ReadFile(a.indexPath)
	if err != nil {
		t.Fatal(err)
	}
	a.publish(t, a.indexPath, mutate(append([]byte(nil), orig...)))
	return orig
}

// generationOf extracts the data generation from a record's core
// labels ("g3-n7" → 3), or -1 when the record carries none.
func generationOf(labels []string) int {
	if len(labels) == 0 {
		return -1
	}
	head, _, ok := strings.Cut(labels[0], "-")
	if !ok || !strings.HasPrefix(head, "g") {
		return -1
	}
	gen, err := strconv.Atoi(head[1:])
	if err != nil {
		return -1
	}
	return gen
}

// epochGens records which data generation each epoch served, across
// all clients; two generations under one epoch is cross-epoch mixing.
type epochGens struct {
	mu sync.Mutex
	m  map[int64]int
}

func (eg *epochGens) note(epoch int64, gen int) error {
	eg.mu.Lock()
	defer eg.mu.Unlock()
	if prev, ok := eg.m[epoch]; ok && prev != gen {
		return fmt.Errorf("epoch %d served generations %d and %d", epoch, prev, gen)
	}
	eg.m[epoch] = gen
	return nil
}

// streamOnce runs one NDJSON query and checks intra-response epoch
// consistency; it returns the trailer's epoch and the single
// generation seen (or an error describing the violation).
func streamOnce(client *http.Client, url string) (epoch int64, gen int, err error) {
	body := bytes.NewReader([]byte(`{"keywords":["alpha","beta"],"rmax":3}`))
	resp, err := client.Post(url+"/v1/search/all", "application/json", body)
	if err != nil {
		return 0, 0, fmt.Errorf("request failed: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	gen = -2 // no record seen yet
	sawTrailer := false
	for sc.Scan() {
		var rec struct {
			Type       string   `json:"type"`
			CoreLabels []string `json:"core_labels"`
			Complete   bool     `json:"complete"`
			Epoch      int64    `json:"epoch"`
			Reason     string   `json:"reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return 0, 0, fmt.Errorf("bad NDJSON line: %w", err)
		}
		switch rec.Type {
		case RecordCommunity:
			g := generationOf(rec.CoreLabels)
			if g < 0 {
				return 0, 0, fmt.Errorf("record without generation labels: %v", rec.CoreLabels)
			}
			if gen == -2 {
				gen = g
			} else if g != gen {
				return 0, 0, fmt.Errorf("one stream mixed generations %d and %d", gen, g)
			}
		case RecordTrailer:
			sawTrailer = true
			epoch = rec.Epoch
			if !rec.Complete {
				return 0, 0, fmt.Errorf("incomplete stream: %s", rec.Reason)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("stream read: %w", err)
	}
	if !sawTrailer {
		return 0, 0, fmt.Errorf("stream ended without a trailer (dropped query)")
	}
	if gen == -2 {
		return 0, 0, fmt.Errorf("stream delivered no communities")
	}
	return epoch, gen, nil
}

func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	spec := os.Getenv("COMMDB_CHAOS_SEEDS")
	if spec == "" {
		spec = "1"
	}
	var seeds []int64
	for _, f := range strings.Split(spec, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad COMMDB_CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, s)
	}
	return seeds
}

func TestChaosReloadUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is slow")
	}
	for _, seed := range chaosSeeds(t) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runChaos(t, seed) })
	}
}

func runChaos(t *testing.T, seed int64) {
	dir := t.TempDir()
	art := chaosArtifacts{
		graphPath: filepath.Join(dir, "chaos.cdbg"),
		indexPath: filepath.Join(dir, "chaos.cdbx"),
	}
	art.writeGeneration(t, 1)

	inj := fault.New(seed)
	loader := snapshot.GraphIndexFileLoader(art.graphPath, art.indexPath, commdb.WithParallelism(1))
	initial, err := loader(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The engine is healthy, so no probation window should ever roll an
	// epoch back here.
	mgr := snapshot.New(initial, snapshot.Config{
		Load:  loader,
		Fault: inj,
		Logf:  t.Logf,
	})
	srv := New(initial, Config{
		MaxConcurrent: 8,
		MaxQueue:      64,
		Snapshots:     mgr,
		AdminToken:    chaosToken,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Concurrent streaming clients: run until told to stop, verifying
	// every response end-to-end.
	gens := &epochGens{m: map[int64]int{}}
	stop := make(chan struct{})
	var clients sync.WaitGroup
	var mu sync.Mutex
	var clientErrs []error
	completed := 0
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				epoch, gen, err := streamOnce(client, ts.URL)
				if err == nil {
					err = gens.note(epoch, gen)
				}
				mu.Lock()
				if err != nil {
					clientErrs = append(clientErrs, err)
				} else {
					completed++
				}
				mu.Unlock()
			}
		}()
	}

	adminReload := func() (int, ReloadResponse) {
		req, err := http.NewRequest("POST", ts.URL+"/admin/reload", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+chaosToken)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var rr ReloadResponse
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, rr
	}

	// The scenario matrix. Each cycle publishes a fresh generation then
	// attacks the reload path every way the fault layer knows; every
	// fault must leave the serving epoch untouched.
	nextGen := 2
	faultAttempts, wantSuccess := 0, 0
	cycles := 3
	for cycle := 0; cycle < cycles; cycle++ {
		// 1. Clean reload of the next generation.
		art.writeGeneration(t, nextGen)
		status, rr := adminReload()
		if status != http.StatusOK || rr.Outcome != snapshot.OutcomeSuccess {
			t.Fatalf("cycle %d clean reload: status %d outcome %s err %s", cycle, status, rr.Outcome, rr.Error)
		}
		wantSuccess++
		nextGen++

		// 2. Index read truncated mid-stream: fail-closed, no retry. No
		// SkipOps: the artifact is small enough to arrive in one buffered
		// read, so the fault must hit op 0 to bite.
		inj.Arm(fault.PointIndexRead, fault.Plan{Mode: fault.ShortRead, Fires: 99})
		expectRejected(t, adminReload, mgr, "short index read")
		inj.Disarm(fault.PointIndexRead)
		faultAttempts++

		// 3. A flipped bit anywhere in the index artifact.
		inj.Arm(fault.PointIndexRead, fault.Plan{Mode: fault.BitFlip, Fires: 99})
		expectRejected(t, adminReload, mgr, "bit-flipped index read")
		inj.Disarm(fault.PointIndexRead)
		faultAttempts++

		// 4. The loader panics outright.
		inj.Arm(fault.PointLoad, fault.Plan{Mode: fault.Panic})
		expectRejected(t, adminReload, mgr, "load panic")
		inj.Disarm(fault.PointLoad)
		faultAttempts++

		// 5. Graph read truncated.
		inj.Arm(fault.PointGraphRead, fault.Plan{Mode: fault.ShortRead, Fires: 99})
		expectRejected(t, adminReload, mgr, "short graph read")
		inj.Disarm(fault.PointGraphRead)
		faultAttempts++

		// 6. Truncated artifact on disk (torn write that skipped the
		// atomic-rename discipline).
		orig := art.corruptIndex(t, func(b []byte) []byte { return b[:len(b)*2/3] })
		expectRejected(t, adminReload, mgr, "truncated artifact")
		art.publish(t, art.indexPath, orig)
		faultAttempts++

		// 7. Garbage artifact on disk.
		orig = art.corruptIndex(t, func([]byte) []byte { return []byte("not an index at all") })
		expectRejected(t, adminReload, mgr, "garbage artifact")
		art.publish(t, art.indexPath, orig)
		faultAttempts++

		// 8. A transient error that heals within the retry budget: the
		// reload must succeed without operator involvement.
		art.writeGeneration(t, nextGen)
		inj.Arm(fault.PointLoad, fault.Plan{Mode: fault.Error, Fires: 1})
		status, rr = adminReload()
		if status != http.StatusOK || rr.Outcome != snapshot.OutcomeSuccess {
			t.Fatalf("cycle %d transient reload: status %d outcome %s err %s", cycle, status, rr.Outcome, rr.Error)
		}
		inj.Disarm(fault.PointLoad)
		wantSuccess++
		nextGen++
		faultAttempts++

		// 9. Slow I/O: reload succeeds, just late; queries keep flowing
		// on the old epoch while the load crawls.
		art.writeGeneration(t, nextGen)
		inj.Arm(fault.PointIndexRead, fault.Plan{Mode: fault.SlowIO, Delay: 2 * time.Millisecond, Fires: 3})
		status, rr = adminReload()
		if status != http.StatusOK || rr.Outcome != snapshot.OutcomeSuccess {
			t.Fatalf("cycle %d slow reload: status %d outcome %s err %s", cycle, status, rr.Outcome, rr.Error)
		}
		inj.Disarm(fault.PointIndexRead)
		wantSuccess++
		nextGen++
		faultAttempts++
	}
	if faultAttempts < 20 {
		t.Fatalf("only %d injected-fault reload attempts; the acceptance bar is 20", faultAttempts)
	}

	close(stop)
	clients.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, err := range clientErrs {
		t.Errorf("client: %v", err)
	}
	if completed == 0 {
		t.Fatal("no client query completed during the chaos run")
	}
	t.Logf("chaos: %d queries completed across %d epochs, %d fault attempts, %d successful reloads",
		completed, len(gens.m), faultAttempts, wantSuccess)

	// Observability: /statsz carries the epoch block with the exact
	// outcome ledger, and commdb_reload_total exports it.
	snap := srv.Stats()
	if snap.Epochs == nil {
		t.Fatal("statsz missing epoch block")
	}
	if got := snap.Epochs.Reloads[snapshot.OutcomeSuccess]; got != int64(wantSuccess) {
		t.Errorf("success reloads = %d, want %d", got, wantSuccess)
	}
	var rejected int64
	for _, o := range []string{snapshot.OutcomeRejectedCorrupt, snapshot.OutcomeRejectedIO,
		snapshot.OutcomeRejectedPanic, snapshot.OutcomeRejectedValidation} {
		rejected += snap.Epochs.Reloads[o]
	}
	// Scenarios 2-7 are persistent faults (6 per cycle); 8 and 9 heal.
	if want := int64(6 * cycles); rejected != want {
		t.Errorf("rejected reloads = %d, want %d (%v)", rejected, want, snap.Epochs.Reloads)
	}
	if snap.Epochs.Reloads[snapshot.OutcomeRolledBack] != 0 {
		t.Errorf("unexpected rollbacks: %v", snap.Epochs.Reloads)
	}
	if snap.Epochs.Epoch != mgr.Current() || mgr.Current() != int64(1+wantSuccess) {
		t.Errorf("epoch = %d (statsz %d), want %d", mgr.Current(), snap.Epochs.Epoch, 1+wantSuccess)
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var text bytes.Buffer
	if _, err := text.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`commdb_reload_total{outcome="success"} %d`, wantSuccess),
		fmt.Sprintf("commdb_epoch %d", mgr.Current()),
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}

// expectRejected runs one reload that must fail closed: non-200, a
// rejection outcome, and the serving epoch unchanged.
func expectRejected(t *testing.T, reload func() (int, ReloadResponse), mgr *snapshot.Manager, what string) {
	t.Helper()
	before := mgr.Current()
	status, rr := reload()
	if status == http.StatusOK || rr.Outcome == snapshot.OutcomeSuccess {
		t.Fatalf("%s: reload accepted a faulty load (status %d outcome %s)", what, status, rr.Outcome)
	}
	if rr.Error == "" {
		t.Fatalf("%s: rejection carried no error detail", what)
	}
	if got := mgr.Current(); got != before {
		t.Fatalf("%s: serving epoch moved %d → %d on a failed reload", what, before, got)
	}
	if rr.Epoch != before {
		t.Fatalf("%s: response epoch %d, serving %d", what, rr.Epoch, before)
	}
}

// TestAdminReloadAuth locks down the admin endpoint: no token
// configured → 403 for everyone; wrong token → 401; good token → a
// reload runs.
func TestAdminReloadAuth(t *testing.T) {
	g := chaosGraph(t, 1, 8)
	s, err := commdb.Open(g, commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	mgr := snapshot.New(s, snapshot.Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) {
			return commdb.Open(g, commdb.WithParallelism(1))
		},
	})

	post := func(url, token string) int {
		req, err := http.NewRequest("POST", url+"/admin/reload", nil)
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// No token configured: endpoint is disabled outright.
	tsOff := httptest.NewServer(New(s, Config{Snapshots: mgr}).Handler())
	defer tsOff.Close()
	if got := post(tsOff.URL, "whatever"); got != http.StatusForbidden {
		t.Fatalf("tokenless server: status %d, want 403", got)
	}

	// No snapshot manager: not implemented.
	tsNoSnap := httptest.NewServer(New(s, Config{AdminToken: "tok"}).Handler())
	defer tsNoSnap.Close()
	if got := post(tsNoSnap.URL, "tok"); got != http.StatusNotImplemented {
		t.Fatalf("snapshotless server: status %d, want 501", got)
	}

	ts := httptest.NewServer(New(s, Config{Snapshots: mgr, AdminToken: "tok"}).Handler())
	defer ts.Close()
	if got := post(ts.URL, ""); got != http.StatusUnauthorized {
		t.Fatalf("missing token: status %d, want 401", got)
	}
	if got := post(ts.URL, "wrong"); got != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", got)
	}
	if got := post(ts.URL, "tok"); got != http.StatusOK {
		t.Fatalf("good token: status %d, want 200", got)
	}
	if mgr.Current() != 2 {
		t.Fatalf("epoch = %d after authorized reload, want 2", mgr.Current())
	}
}

// TestEpochConsistencyAcrossReload pins the core stream guarantee
// deterministically: a stream started on epoch 1 that is still being
// consumed when a reload lands finishes entirely on epoch 1.
func TestEpochConsistencyAcrossReload(t *testing.T) {
	art := chaosArtifacts{
		graphPath: filepath.Join(t.TempDir(), "g.cdbg"),
		indexPath: filepath.Join(t.TempDir(), "x.cdbx"),
	}
	art.writeGeneration(t, 1)
	loader := snapshot.GraphIndexFileLoader(art.graphPath, art.indexPath, commdb.WithParallelism(1))
	initial, err := loader(nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := snapshot.New(initial, snapshot.Config{Load: loader})
	srv := New(initial, Config{Snapshots: mgr, AdminToken: chaosToken})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Open the stream but do not read it yet: the response is being
	// generated server-side against epoch 1.
	resp, err := http.Post(ts.URL+"/v1/search/all", "application/json",
		bytes.NewReader([]byte(`{"keywords":["alpha","beta"],"rmax":3}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Swap epochs underneath it.
	art.writeGeneration(t, 2)
	if out, err := mgr.Reload(context.Background()); err != nil || out != snapshot.OutcomeSuccess {
		t.Fatalf("reload: %s %v", out, err)
	}

	// Drain the original stream: every record must still be gen 1, and
	// its trailer epoch 1.
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec struct {
			Type       string   `json:"type"`
			CoreLabels []string `json:"core_labels"`
			Epoch      int64    `json:"epoch"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type == RecordCommunity && generationOf(rec.CoreLabels) != 1 {
			t.Fatalf("in-flight stream leaked generation %d", generationOf(rec.CoreLabels))
		}
		if rec.Type == RecordTrailer && rec.Epoch != 1 {
			t.Fatalf("in-flight stream trailer epoch %d, want 1", rec.Epoch)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	// A fresh query lands on the new epoch and the new generation.
	epoch, gen, err := streamOnce(http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 || gen != 2 {
		t.Fatalf("fresh query: epoch %d gen %d, want 2/2", epoch, gen)
	}
}

// stallingWriter is a client that reads slowly: its stallAt-th Write
// blocks for stall before returning.
type stallingWriter struct {
	http.ResponseWriter
	writes, stallAt int
	stall           time.Duration
}

func (w *stallingWriter) Write(p []byte) (int, error) {
	if w.writes++; w.writes == w.stallAt {
		time.Sleep(w.stall)
	}
	return w.ResponseWriter.Write(p)
}

// TestSlowReaderDoesNotRollBack: an emission gap includes the write to
// the client, so a stream whose reader stalls during a fresh epoch's
// probation breaches the emission SLO. The breach is an alert — it is
// counted — and must not discard the freshly loaded epoch.
func TestSlowReaderDoesNotRollBack(t *testing.T) {
	open := func(gen int) *commdb.Searcher {
		s, err := commdb.Open(chaosGraph(t, gen, 40), commdb.WithIndex(4), commdb.WithParallelism(1))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	initial := open(1)
	mgr := snapshot.New(initial, snapshot.Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) { return open(2), nil },
	})
	srv := New(initial, Config{Snapshots: mgr})
	if out, err := mgr.Reload(context.Background()); err != nil || out != snapshot.OutcomeSuccess {
		t.Fatalf("reload: %s %v", out, err)
	}

	req := httptest.NewRequest("POST", "/v1/search/all",
		strings.NewReader(`{"keywords":["alpha","beta"],"rmax":3}`))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(&stallingWriter{ResponseWriter: rec, stallAt: 8, stall: 300 * time.Millisecond}, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"type":"`+RecordTrailer+`"`) {
		t.Fatalf("stream did not complete: status %d\n%s", rec.Code, rec.Body)
	}

	if got := srv.collector.Breaches(); got != 1 {
		t.Fatalf("slo_breaches = %d, want 1 (the alert must still fire)", got)
	}
	if got := mgr.Counts()[snapshot.OutcomeRolledBack]; got != 0 || mgr.Current() != 2 {
		t.Fatalf("serving epoch %d, rolled_back %d: a slow reader rolled the epoch back", mgr.Current(), got)
	}
}
