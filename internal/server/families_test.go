package server

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commdb"
	"commdb/internal/datagen"
	"commdb/internal/delta"
	"commdb/internal/fault"
	"commdb/internal/obs"
	"commdb/internal/relational"
	"commdb/internal/snapshot"
)

// hookedEngine wraps an Engine so a test can pause or stall a stream:
// hook, when set, runs before every advance with the stream's context
// and the advance's ordinal.
type hookedEngine struct {
	Engine
	hook atomic.Pointer[func(ctx context.Context, i int)]
}

func (e *hookedEngine) wrap(ctx context.Context, st Stream, err error) (Stream, error) {
	if err != nil {
		return nil, err
	}
	return &hookedStream{Stream: st, ctx: ctx, e: e}, nil
}

func (e *hookedEngine) All(ctx context.Context, q commdb.Query) (Stream, error) {
	st, err := e.Engine.All(ctx, q)
	return e.wrap(ctx, st, err)
}

func (e *hookedEngine) TopK(ctx context.Context, q commdb.Query) (Stream, error) {
	st, err := e.Engine.TopK(ctx, q)
	return e.wrap(ctx, st, err)
}

type hookedStream struct {
	Stream
	ctx context.Context
	e   *hookedEngine
	i   int
}

func (s *hookedStream) Next() (*commdb.Community, bool) {
	if h := s.e.hook.Load(); h != nil {
		(*h)(s.ctx, s.i)
	}
	s.i++
	return s.Stream.Next()
}

// scrapeFamilies fetches /metricsz, lints it, and returns each family's
// sample lines keyed by the family name its TYPE line declares.
func scrapeFamilies(t *testing.T, url string) map[string]string {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if err := obs.LintPrometheus(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition lint: %v\n%s", err, body)
	}
	out := map[string]string{}
	family := ""
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			family = f[2]
			out[family] = ""
		} else if line != "" && !strings.HasPrefix(line, "#") {
			out[family] += line + "\n"
		}
	}
	return out
}

// familyMoves drives one server configuration through its traffic and
// returns the scrapes taken along the way.
type familyMoves struct {
	name  string
	drive func(t *testing.T) []map[string]string
}

// TestEveryFamilyMoves: every family /metricsz exposes — ranged from
// the scrapes themselves, under every optional attachment — changes
// under a fixed traffic mix, or is on the short explicit list below
// with the reason it may stand still. A family that fails here and has
// no consumer is deleted, not listed.
func TestEveryFamilyMoves(t *testing.T) {
	mayStay := map[string]string{
		"commdb_mem_heap_sys_bytes":  "runtime-owned: grows only when the heap does",
		"commdb_delta_full_build_ms": "set once by the boot-time build; checked non-zero below",
	}
	seen := map[string]bool{}
	moved := map[string]bool{}
	for _, tc := range []familyMoves{
		{"core", driveCoreFamilies},
		{"journal", driveJournalFamilies},
		{"snapshots", driveSnapshotFamilies},
		{"deltas", driveDeltaFamilies},
	} {
		t.Run(tc.name, func(t *testing.T) {
			scrapes := tc.drive(t)
			for _, sc := range scrapes {
				for family, samples := range sc {
					seen[family] = true
					if samples != scrapes[0][family] {
						moved[family] = true
					}
				}
			}
			if tc.name == "deltas" && strings.HasSuffix(scrapes[0]["commdb_delta_full_build_ms"], " 0\n") {
				t.Errorf("commdb_delta_full_build_ms reads zero after boot")
			}
		})
	}
	var still []string
	for family := range seen {
		if !moved[family] && mayStay[family] == "" {
			still = append(still, family)
		}
	}
	sort.Strings(still)
	if len(still) > 0 {
		t.Errorf("families no traffic moved: %v", still)
	}
	for family := range mayStay {
		if !seen[family] {
			t.Errorf("mayStay lists %s, which /metricsz no longer exposes", family)
		}
	}
	t.Logf("/metricsz exposes %d families; %d moved, %d listed as may-stay", len(seen), len(moved), len(mayStay))
}

// driveCoreFamilies: an indexed paper server under cached and uncached
// top-k, a coalesced follower, a queued request, a 429, a cancelled
// stream, a stalled (SLO-breaching) stream, a drained bounded stream
// and a budget stop.
func driveCoreFamilies(t *testing.T) []map[string]string {
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithIndex(8), commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	eng := &hookedEngine{Engine: searcherEngine{s: s}}
	srv := NewWithEngine(eng, Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	topk := func(kws ...string) *http.Response {
		return postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, kws, map[string]any{"k": 2}))
	}
	scrapes := []map[string]string{scrapeFamilies(t, ts.URL)}

	// One execution held mid-stream: a coalesced follower, a queued
	// request and a rejected one pile up behind it.
	hold := func() (release func()) {
		gate := make(chan struct{})
		h := func(ctx context.Context, _ int) {
			select {
			case <-gate:
			case <-ctx.Done():
			}
		}
		eng.hook.Store(&h)
		return func() { close(gate) }
	}
	release := hold()
	var wg sync.WaitGroup
	background := func(kws ...string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/search/topk", "application/json", searchBody(t, kws, map[string]any{"k": 2}))
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("held topk %v: %v %v", kws, resp, err)
				return
			}
			resp.Body.Close()
		}()
	}
	background("a", "b")
	waitFor(t, "leader executing", func() bool { return srv.Stats().QueriesInFlight == 1 })
	background("a", "b")
	waitFor(t, "follower coalesced", func() bool { return srv.Stats().SingleflightShared == 1 })
	background("a", "c") // the one paper query whose projection prunes union nodes
	waitFor(t, "second query queued", func() bool { return srv.Stats().AdmissionWaiting == 1 })
	if resp := topk("b", "c"); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
	}
	scrapes = append(scrapes, scrapeFamilies(t, ts.URL))
	release()
	wg.Wait()

	// A stream whose client goes away while it is held.
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b", "c"}, nil))
	if err != nil {
		t.Fatal(err)
	}
	hold()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "stream executing", func() bool { return srv.Stats().QueriesInFlight == 1 })
	cancel()
	waitFor(t, "cancellation counted", func() bool { return srv.Stats().Canceled == 1 })
	wg.Wait()

	// A stream that stalls before its fifth community breaches the
	// emission SLO. The stall is long enough to stay 32× the median gap
	// on a loaded host (the race detector under a parallel test run).
	stall := func(_ context.Context, i int) {
		if i == 4 {
			time.Sleep(200 * time.Millisecond)
		}
	}
	eng.hook.Store(&stall)
	if tr := drainStream(t, postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b", "c"}, nil))); !tr.Complete {
		t.Fatalf("stalled stream: %+v", tr)
	}
	eng.hook.Store(nil)
	if got := srv.collector.Breaches(); got != 1 {
		t.Fatalf("slo_breaches = %d after a stalled stream, want 1", got)
	}

	if out := decodeTopK(t, topk("b", "a")); !out.Cached {
		t.Fatal("repeated top-k was not served from the cache")
	}
	bounded := drainStream(t, postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b"},
		map[string]any{"limits": map[string]any{"max_results": 1}})))
	if bounded.Complete || srv.Stats().ResultLimitStops != 1 {
		t.Fatalf("bounded stream: %+v, result_limit_stops %d", bounded, srv.Stats().ResultLimitStops)
	}
	resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b", "c"},
		map[string]any{"limits": map[string]any{"max_relaxations": 1}}))
	resp.Body.Close()
	if srv.Stats().BudgetExhausted != 1 {
		t.Fatalf("budget_exhausted = %d after a 1-relaxation budget (status %d), want 1", srv.Stats().BudgetExhausted, resp.StatusCode)
	}
	return append(scrapes, scrapeFamilies(t, ts.URL))
}

// driveJournalFamilies: ops appended to the mutation log on disk reach
// the server's families only through the maintainer tailing that log.
func driveJournalFamilies(t *testing.T) []map[string]string {
	db := func() *relational.Database {
		db, err := datagen.GenerateDBLP(datagen.DBLPParams{Authors: 40, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	ops, err := datagen.Mutations(db(), datagen.MutationParams{N: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m, err := delta.NewMaintainer(db(), delta.Config{R: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newPaperServer(t, Config{Deltas: m.Stats, DeltaMem: m.Footprint})
	before := scrapeFamilies(t, ts.URL)

	path := filepath.Join(t.TempDir(), "mutations.ndjson")
	w, err := delta.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(ops...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- m.Follow(ctx, delta.NewTail(path), time.Millisecond, func(delta.BatchStats) error { return nil })
	}()
	waitFor(t, "logged batch applied and published", func() bool { return m.Stats().Republishes == 1 })
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("follow: %v", err)
	}
	if st := m.Stats(); st.Batches != 1 || st.Rejected != 0 {
		t.Fatalf("followed log: %+v", st)
	}
	return []map[string]string{before, scrapeFamilies(t, ts.URL)}
}

// driveSnapshotFamilies: a reload onto a different, indexed graph, so
// the epoch, the reload outcome and every per-artifact gauge move.
func driveSnapshotFamilies(t *testing.T) []map[string]string {
	paper, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(paper, commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	mgr := snapshot.New(s, snapshot.Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) {
			intro, _ := commdb.IntroExampleGraph()
			return commdb.Open(intro, commdb.WithIndex(8), commdb.WithParallelism(1))
		},
	})
	ts := httptest.NewServer(New(s, Config{Snapshots: mgr}).Handler())
	defer ts.Close()
	before := scrapeFamilies(t, ts.URL)
	if _, err := mgr.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	return []map[string]string{before, scrapeFamilies(t, ts.URL)}
}

// driveDeltaFamilies: a real maintainer applying a data batch (one op
// of it rejected), a publish, and a structural batch.
func driveDeltaFamilies(t *testing.T) []map[string]string {
	// Generating mutations applies them to the database they are drawn
	// from, so the maintainer gets its own copy of the same base.
	dblp := func() *relational.Database {
		db, err := datagen.GenerateDBLP(datagen.DBLPParams{Authors: 60, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	ops, err := datagen.Mutations(dblp(), datagen.MutationParams{N: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	m, err := delta.NewMaintainer(dblp(), delta.Config{R: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newPaperServer(t, Config{Deltas: m.Stats, DeltaMem: m.Footprint})
	before := scrapeFamilies(t, ts.URL)
	if bs, err := m.Apply(append(ops, delta.DeleteOp("Paper", "no-such-key"))); err != nil || bs.Rejected != 1 {
		t.Fatalf("data batch: %+v, %v", bs, err)
	}
	m.NotePublish(time.Millisecond)
	structural := delta.Op{Kind: delta.KindSchema, Table: "Venue",
		Columns: []delta.ColumnDef{{Name: "id", Type: "int"}}, PK: []string{"id"}}
	if bs, err := m.Apply([]delta.Op{structural}); err != nil || !bs.FullRebuild {
		t.Fatalf("structural batch: %+v, %v", bs, err)
	}
	return []map[string]string{before, scrapeFamilies(t, ts.URL)}
}
