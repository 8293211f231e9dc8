package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"commdb"
	"commdb/internal/fault"
	"commdb/internal/snapshot"
)

// fakeCommunity builds a distinguishable community for fake engines.
func fakeCommunity(i int) *commdb.Community {
	base := commdb.NodeID(10 * i)
	return &commdb.Community{
		Core:   commdb.Core{base, base + 1},
		Cost:   float64(i),
		Knodes: []commdb.NodeID{base, base + 1},
		Cnodes: []commdb.NodeID{base + 2},
		Nodes:  []commdb.NodeID{base, base + 1, base + 2},
		Edges:  []commdb.EdgePair{{From: base + 2, To: base}},
	}
}

// fakeStream yields n fake communities; gates[i], when non-nil, blocks
// the i-th Next until the gate closes or the stream's context ends (the
// context cause then becomes the stop reason, like a governed
// enumerator).
type fakeStream struct {
	ctx   context.Context
	n     int
	gates map[int]chan struct{}
	i     int
	err   error
}

func (s *fakeStream) Next() (*commdb.Community, bool) {
	if s.err != nil || s.i >= s.n {
		return nil, false
	}
	if gate := s.gates[s.i]; gate != nil {
		select {
		case <-gate:
		case <-s.ctx.Done():
			s.err = context.Cause(s.ctx)
			return nil, false
		}
	}
	s.i++
	return fakeCommunity(s.i), true
}

func (s *fakeStream) Err() error   { return s.err }
func (s *fakeStream) Close() error { return s.err }

// fakeEngine serves every query with a fresh fakeStream and counts
// executions.
type fakeEngine struct {
	n          int
	gates      map[int]chan struct{}
	executions atomic.Int64
}

func (e *fakeEngine) stream(ctx context.Context) (Stream, error) {
	e.executions.Add(1)
	return &fakeStream{ctx: ctx, n: e.n, gates: e.gates}, nil
}

func (e *fakeEngine) All(ctx context.Context, _ commdb.Query) (Stream, error)  { return e.stream(ctx) }
func (e *fakeEngine) TopK(ctx context.Context, _ commdb.Query) (Stream, error) { return e.stream(ctx) }
func (e *fakeEngine) Graph() *commdb.Graph                                     { return nil }

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func searchBody(t *testing.T, keywords []string, extra map[string]any) *bytes.Reader {
	t.Helper()
	m := map[string]any{"keywords": keywords, "rmax": 8}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

func postJSON(t *testing.T, url string, body *bytes.Reader) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	return resp
}

func decodeTopK(t *testing.T, resp *http.Response) TopKResponse {
	t.Helper()
	defer resp.Body.Close()
	var out TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding topk response: %v", err)
	}
	return out
}

// TestE2EStreamingDelivery proves the streaming contract: the first
// community arrives over the wire while the enumeration is still in
// progress, and the stream closes with a complete trailer.
func TestE2EStreamingDelivery(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{n: 3, gates: map[int]chan struct{}{1: gate}} // 2nd result blocks
	srv := NewWithEngine(eng, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b"}, nil))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first CommunityRecord
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	if first.Type != RecordCommunity || first.Rank != 1 {
		t.Fatalf("first record = %+v, want community rank 1", first)
	}
	// The first community is in hand while the enumeration is provably
	// unfinished: the engine is gated before its second result.
	if snap := srv.Stats(); snap.QueriesInFlight != 1 {
		t.Fatalf("queries in flight = %d while stream gated, want 1", snap.QueriesInFlight)
	}
	close(gate)
	var lines []string
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if len(lines) != 3 { // records 2, 3 and the trailer
		t.Fatalf("got %d remaining lines, want 3: %v", len(lines), lines)
	}
	var trailer Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	if trailer.Type != RecordTrailer || !trailer.Complete || trailer.Count != 3 || trailer.Reason != "" {
		t.Fatalf("trailer = %+v, want complete count=3", trailer)
	}
}

// TestE2EAdmission proves backpressure: with the pool and queue full,
// new queries get 429 with Retry-After while the in-flight ones keep
// running and complete.
func TestE2EAdmission(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{n: 1, gates: map[int]chan struct{}{0: gate}}
	srv := NewWithEngine(eng, Config{MaxConcurrent: 1, MaxQueue: 1, QueueWait: time.Minute, CacheEntries: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		body   TopKResponse
	}
	results := make(chan result, 2)
	// A distinct query per request so the singleflight cannot coalesce
	// them — this test is about admission alone.
	fire := func(kw string) {
		resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{kw, "z"}, nil))
		results <- result{resp.StatusCode, decodeTopK(t, resp)}
	}
	go fire("a")
	waitFor(t, "first query executing", func() bool { return eng.executions.Load() == 1 })
	go fire("b")
	waitFor(t, "second query queued", func() bool { return srv.Stats().AdmissionWaiting == 1 })

	// Pool busy, queue full: the third request must bounce immediately.
	resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"c", "z"}, nil))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	if snap := srv.Stats(); snap.AdmissionRejections != 1 {
		t.Fatalf("admission rejections = %d, want 1", snap.AdmissionRejections)
	}

	// The rejected request did not disturb the admitted ones.
	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Fatalf("admitted query finished with status %d, want 200", r.status)
		}
		if len(r.body.Results) != 1 || !r.body.Complete {
			t.Fatalf("admitted query response = %+v, want 1 complete result", r.body)
		}
	}
}

// TestE2ESingleflight proves coalescing: two concurrent identical
// queries execute the engine once and both receive the full answer.
func TestE2ESingleflight(t *testing.T) {
	gate := make(chan struct{})
	eng := &fakeEngine{n: 2, gates: map[int]chan struct{}{0: gate}}
	srv := NewWithEngine(eng, Config{CacheEntries: -1}) // no cache: coalescing must do the work
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	results := make(chan TopKResponse, 2)
	fire := func() {
		resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b"}, nil))
		if resp.StatusCode != http.StatusOK {
			t.Errorf("status = %d, want 200", resp.StatusCode)
		}
		results <- decodeTopK(t, resp)
	}
	go fire()
	waitFor(t, "leader executing", func() bool { return eng.executions.Load() == 1 })
	go fire()
	waitFor(t, "follower joined the flight", func() bool { return srv.Stats().SingleflightShared == 1 })

	close(gate)
	a, b := <-results, <-results
	if eng.executions.Load() != 1 {
		t.Fatalf("engine executions = %d, want 1 (singleflight)", eng.executions.Load())
	}
	if len(a.Results) != 2 || len(b.Results) != 2 {
		t.Fatalf("coalesced responses have %d and %d results, want 2 and 2", len(a.Results), len(b.Results))
	}
	if !reflect.DeepEqual(a.Results, b.Results) {
		t.Fatalf("coalesced responses differ:\n%+v\n%+v", a.Results, b.Results)
	}
}

// TestE2EShutdownDrain proves graceful shutdown: an in-flight stream is
// canceled through the governor and drains with a trailer naming the
// shutdown, new requests get 503, and Shutdown returns.
func TestE2EShutdownDrain(t *testing.T) {
	gate := make(chan struct{}) // never closed: only shutdown can unblock the stream
	defer close(gate)
	eng := &fakeEngine{n: 2, gates: map[int]chan struct{}{1: gate}}
	srv := NewWithEngine(eng, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, []string{"a", "b"}, nil))
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first record: %v", sc.Err())
	}

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	var trailer Trailer
	sawTrailer := false
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &trailer); err == nil && trailer.Type == RecordTrailer {
			sawTrailer = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading drained stream: %v", err)
	}
	if !sawTrailer {
		t.Fatal("drained stream ended without a trailer")
	}
	if trailer.Complete {
		t.Fatalf("trailer claims completion on a canceled stream: %+v", trailer)
	}
	if !strings.Contains(trailer.Reason, "shutting down") {
		t.Fatalf("trailer reason = %q, want it to name the shutdown", trailer.Reason)
	}
	if trailer.Count != 1 {
		t.Fatalf("trailer count = %d, want the 1 community delivered before shutdown", trailer.Count)
	}

	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for _, path := range []string{"/v1/search/topk", "/v1/search/all"} {
		resp := postJSON(t, ts.URL+path, searchBody(t, []string{"a"}, nil))
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("POST %s after shutdown: status %d, want 503", path, resp.StatusCode)
		}
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after shutdown: status %d, want 503", hresp.StatusCode)
	}
}

// TestE2ECacheIdenticalResults runs against the real engine on the
// paper's graph and a small DBLP over a k sweep: whatever the cache
// serves — a repeat of the same query at the same k, reordered and
// re-cased — is byte-identical to an uncached server's answer, a
// different k is a different entry, and an epoch bump misses.
func TestE2ECacheIdenticalResults(t *testing.T) {
	paper, _ := commdb.PaperExampleGraph()
	db, err := commdb.GenerateDBLP(1000, 2026)
	if err != nil {
		t.Fatal(err)
	}
	dblp, _, err := commdb.GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		g        *commdb.Graph
		keywords [2][]string // a query and a reordered, re-cased spelling of it
		rmax     float64
	}{
		{"paper", paper, [2][]string{{"a", "b", "c"}, {"C", "b", "A"}}, 8},
		{"dblp", dblp, [2][]string{{"web", "parallel"}, {"Parallel", "WEB"}}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := commdb.Open(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			mgr := snapshot.New(s, snapshot.Config{
				Load: func(*fault.Injector) (*commdb.Searcher, error) { return commdb.Open(tc.g) },
			})
			srv := New(s, Config{Snapshots: mgr})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ref := httptest.NewServer(New(s, Config{CacheEntries: -1}).Handler())
			defer ref.Close()

			ask := func(url string, keywords []string, k int) (results string, n int, cached bool) {
				resp := postJSON(t, url+"/v1/search/topk",
					searchBody(t, keywords, map[string]any{"k": k, "rmax": tc.rmax}))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status = %d, want 200", resp.StatusCode)
				}
				defer resp.Body.Close()
				var out struct {
					Results  json.RawMessage `json:"results"`
					Complete bool            `json:"complete"`
					Cached   bool            `json:"cached"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					t.Fatalf("decoding topk response: %v", err)
				}
				var records []json.RawMessage
				if err := json.Unmarshal(out.Results, &records); err != nil || !out.Complete {
					t.Fatalf("k=%d: complete=%v, results %v", k, out.Complete, err)
				}
				return string(out.Results), len(records), out.Cached
			}
			step := func(keywords []string, k int, wantCached bool) {
				t.Helper()
				got, _, cached := ask(ts.URL, keywords, k)
				want, n, refCached := ask(ref.URL, keywords, k)
				if refCached {
					t.Fatal("the CacheEntries: -1 server claims a cache hit")
				}
				if got != want {
					t.Fatalf("k=%d (cached=%v) differs from the uncached answer:\n%s\n%s", k, cached, got, want)
				}
				if cached != wantCached {
					t.Fatalf("k=%d (%d results): cached=%v, want %v", k, n, cached, wantCached)
				}
			}
			step(tc.keywords[0], 20, false)
			step(tc.keywords[0], 10, false)
			step(tc.keywords[0], 5, false)
			step(tc.keywords[1], 20, true)
			step(tc.keywords[0], 40, false)
			step(tc.keywords[1], 5, true)

			snap := srv.Stats()
			if snap.CacheHits != 2 || snap.CacheMisses != 4 || snap.QueriesStarted != 4 || snap.CacheEntries != 4 {
				t.Fatalf("hits=%d misses=%d executions=%d entries=%d, want 2/4/4/4",
					snap.CacheHits, snap.CacheMisses, snap.QueriesStarted, snap.CacheEntries)
			}

			if out, err := mgr.Reload(context.Background()); err != nil || out != snapshot.OutcomeSuccess {
				t.Fatalf("reload: %s %v", out, err)
			}
			step(tc.keywords[0], 5, false)
			if n := srv.Stats().CacheEntries; n != 1 {
				t.Fatalf("%d cache entries after the epoch bump, want only the new epoch's", n)
			}
		})
	}
}

// TestE2ELimitsClamped runs against the real engine: a request asking
// for more results than the server's maximum, for none, or for a
// negative (unlimited) count is clamped, the stream stops at the cap,
// and the trailer reports the tripped budget.
func TestE2ELimitsClamped(t *testing.T) {
	_, ts := newPaperServer(t, Config{MaxLimits: commdb.Limits{MaxResults: 2}})

	for _, limits := range []map[string]any{{"max_results": 100}, {}, {"max_results": -1}} {
		resp := postJSON(t, ts.URL+"/v1/search/all",
			searchBody(t, []string{"a", "b", "c"}, map[string]any{"limits": limits}))
		sc := bufio.NewScanner(resp.Body)
		var records int
		var trailer Trailer
		for sc.Scan() {
			var probe struct {
				Type string `json:"type"`
			}
			if err := json.Unmarshal(sc.Bytes(), &probe); err != nil {
				t.Fatalf("bad line %q: %v", sc.Text(), err)
			}
			if probe.Type == RecordCommunity {
				records++
			} else if err := json.Unmarshal(sc.Bytes(), &trailer); err != nil {
				t.Fatal(err)
			}
		}
		resp.Body.Close()
		if records != 2 {
			t.Fatalf("limits %v: streamed %d communities, want the clamped 2", limits, records)
		}
		if trailer.Complete || !strings.Contains(trailer.Reason, "results") {
			t.Fatalf("limits %v: trailer = %+v, want a results-budget stop", limits, trailer)
		}
	}
}

// TestE2EStress hammers one server with mixed topk/all traffic from
// many goroutines — saturation, coalescing, caching and streaming all
// at once — and checks every response is well-formed. Run with -race.
func TestE2EStress(t *testing.T) {
	srv, ts := newPaperServer(t, Config{MaxConcurrent: 4, MaxQueue: 4, CacheEntries: 8})

	queries := [][]string{{"a", "b", "c"}, {"a", "b"}, {"b", "c"}, {"a"}, {"c", "a", "b"}}
	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				kws := queries[(w+i)%len(queries)]
				if i%2 == 0 {
					resp := postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, kws, map[string]any{"k": 3}))
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("topk status %d", resp.StatusCode)
					}
					resp.Body.Close()
				} else {
					resp := postJSON(t, ts.URL+"/v1/search/all", searchBody(t, kws, map[string]any{"compact": true}))
					if resp.StatusCode == http.StatusOK {
						sc := bufio.NewScanner(resp.Body)
						last := ""
						for sc.Scan() {
							last = sc.Text()
						}
						var trailer Trailer
						if err := json.Unmarshal([]byte(last), &trailer); err != nil || trailer.Type != RecordTrailer {
							errs <- fmt.Errorf("stream did not end in a trailer: %q", last)
						}
					} else if resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("all status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	snap := srv.Stats()
	if snap.QueriesInFlight != 0 {
		t.Errorf("queries in flight after drain = %d", snap.QueriesInFlight)
	}
}

// TestStatszHealthz covers the observability endpoints.
func TestStatszHealthz(t *testing.T) {
	eng := &fakeEngine{n: 1}
	srv := NewWithEngine(eng, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"x"}, nil)).Body.Close()

	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap StatsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding statsz: %v", err)
	}
	if !bytes.Contains(body, []byte(`"cache_hits"`)) || bytes.Contains(body, []byte("semantic")) {
		t.Fatalf("statsz must carry cache_hits and no semantic counter: %s", body)
	}
	if snap.QueriesStarted != 1 || snap.QueriesCompleted != 1 {
		t.Fatalf("statsz executions = %d/%d, want 1/1", snap.QueriesStarted, snap.QueriesCompleted)
	}
	if snap.Latency.Count != 1 {
		t.Fatalf("latency count = %d, want 1", snap.Latency.Count)
	}
}

// TestBadRequests covers request validation.
func TestBadRequests(t *testing.T) {
	_, ts := newPaperServer(t, Config{})

	cases := []struct {
		name string
		body string
	}{
		{"empty keywords", `{"keywords":[],"rmax":8}`},
		{"bad cost", `{"keywords":["a"],"rmax":8,"cost":"median"}`},
		{"negative rmax", `{"keywords":["a"],"rmax":-1}`},
		{"not json", `{{{`},
		{"unknown field", `{"keywords":["a"],"rmax":8,"bogus":1}`},
		{"multi-term keyword", `{"keywords":["two words"],"rmax":8}`},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/search/topk", "/v1/search/all"} {
			resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var e ErrorResponse
			_ = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s on %s: status %d (%s), want 400", tc.name, path, resp.StatusCode, e.Error)
			}
		}
	}

	// Wrong method.
	resp, err := http.Get(ts.URL + "/v1/search/topk")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET topk: status %d, want 405", resp.StatusCode)
	}
}
