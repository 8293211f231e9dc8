package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"commdb"
	"commdb/internal/fault"
	"commdb/internal/prof"
	"commdb/internal/snapshot"
)

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func contains(body []byte, want string) bool {
	return bytes.Contains(body, []byte(want))
}

func getMemz(t *testing.T, url string) MemorySnapshot {
	t.Helper()
	resp, err := http.Get(url + "/debug/memz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/memz status %d", resp.StatusCode)
	}
	var ms MemorySnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ms); err != nil {
		t.Fatal(err)
	}
	return ms
}

// TestMemz: the memory ledger reports the engine's exact footprint,
// the result cache, and the runtime heap view, and its total sums the
// components.
func TestMemz(t *testing.T) {
	_, ts := newPaperServer(t, Config{})
	ms := getMemz(t, ts.URL)

	if len(ms.Components) == 0 || ms.TotalBytes <= 0 {
		t.Fatalf("empty ledger: %+v", ms)
	}
	var sum int64
	for _, c := range ms.Components {
		sum += c.Bytes
	}
	if sum != ms.TotalBytes {
		t.Fatalf("total %d != component sum %d", ms.TotalBytes, sum)
	}
	eng := ms.Components[0]
	if eng.Name != "searcher" {
		t.Fatalf("first component = %q, want searcher", eng.Name)
	}
	if _, ok := eng.Find("graph"); !ok {
		t.Fatal("engine footprint missing graph part")
	}
	var cache *prof.Footprint
	for i := range ms.Components {
		if ms.Components[i].Name == "result_cache" {
			cache = &ms.Components[i]
		}
	}
	if cache == nil {
		t.Fatal("result_cache component missing")
	}
	if ms.Runtime.HeapAllocBytes == 0 || ms.Runtime.HeapSysBytes == 0 {
		t.Fatalf("runtime view empty: %+v", ms.Runtime)
	}

	// A cached answer shows up in the cache component.
	postJSON(t, ts.URL+"/v1/search/topk", searchBody(t, []string{"a", "b"}, nil)).Body.Close()
	after := getMemz(t, ts.URL)
	var cacheAfter prof.Footprint
	for _, c := range after.Components {
		if c.Name == "result_cache" {
			cacheAfter = c
		}
	}
	if cacheAfter.Items != 1 || cacheAfter.Bytes <= 0 {
		t.Fatalf("cache component after a query = %+v", cacheAfter)
	}

}

// snapServer builds a server over a snapshot manager whose loader
// reopens the same graph, so every reload creates a fresh epoch with
// its own artifacts.
func snapServer(t *testing.T, cfg Config) (*snapshot.Manager, *httptest.Server) {
	t.Helper()
	g, _ := commdb.PaperExampleGraph()
	s, err := commdb.Open(g, commdb.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	mgr := snapshot.New(s, snapshot.Config{
		Load: func(*fault.Injector) (*commdb.Searcher, error) {
			return commdb.Open(g, commdb.WithParallelism(1))
		},
	})
	cfg.Snapshots = mgr
	ts := httptest.NewServer(New(s, cfg).Handler())
	t.Cleanup(ts.Close)
	return mgr, ts
}

// TestMemzTwoEpochsDuringProbation (the hot-reload fix): while a fresh
// epoch is on probation the previous epoch stays alive, and the ledger
// reports BOTH — one footprint per live epoch, current first.
func TestMemzTwoEpochsDuringProbation(t *testing.T) {
	mgr, ts := snapServer(t, Config{})

	before := getMemz(t, ts.URL)
	if len(before.Epochs) != 1 || before.Epochs[0].Epoch != 1 {
		t.Fatalf("pre-reload epochs = %+v", before.Epochs)
	}

	if _, err := mgr.Reload(context.Background()); err != nil {
		t.Fatal(err)
	}
	ms := getMemz(t, ts.URL)
	if len(ms.Epochs) != 2 {
		t.Fatalf("during probation: %d live epochs, want 2 (%+v)", len(ms.Epochs), ms.Epochs)
	}
	if ms.Epochs[0].Epoch != 2 || ms.Epochs[1].Epoch != 1 {
		t.Fatalf("epoch order = %+v, want current (2) first", ms.Epochs)
	}
	for i, e := range ms.Epochs {
		if e.Bytes <= 0 {
			t.Fatalf("epoch %d reports %d bytes", e.Epoch, e.Bytes)
		}
		comp := ms.Components[i]
		if comp.Name != fmt.Sprintf("epoch_%d", e.Epoch) || comp.Bytes != e.Bytes {
			t.Fatalf("component %d = %q/%d, epoch summary = %+v", i, comp.Name, comp.Bytes, e)
		}
		if _, ok := comp.Find("graph"); !ok {
			t.Fatalf("epoch %d footprint missing graph part", e.Epoch)
		}
	}
	if sum := ms.Epochs[0].Bytes + ms.Epochs[1].Bytes; ms.TotalBytes < sum {
		t.Fatalf("total %d < per-epoch sum %d", ms.TotalBytes, sum)
	}
}

// TestMemzReloadRace: memz and metricsz scrapes racing concurrent
// reloads never observe a retired epoch (the leases pin both live
// epochs under the manager's lock). Run under -race.
func TestMemzReloadRace(t *testing.T) {
	mgr, ts := snapServer(t, Config{})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				ms := getMemz(t, ts.URL)
				if n := len(ms.Epochs); n < 1 || n > 2 {
					t.Errorf("scrape saw %d live epochs", n)
					return
				}
				for _, e := range ms.Epochs {
					if e.Bytes <= 0 {
						t.Errorf("epoch %d scraped with %d bytes", e.Epoch, e.Bytes)
						return
					}
				}
				resp, err := http.Get(ts.URL + "/metricsz")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, err := mgr.Reload(context.Background()); err != nil &&
			!errors.Is(err, snapshot.ErrReloadInFlight) {
			t.Errorf("reload %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestMemGauges: the commdb_mem_* families are present on /metricsz
// with live values that agree with the ledger.
func TestMemGauges(t *testing.T) {
	_, ts := snapServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	for _, want := range []string{
		"# TYPE commdb_mem_total_bytes gauge",
		"# TYPE commdb_mem_graph_bytes gauge",
		"# TYPE commdb_mem_index_bytes gauge",
		"# TYPE commdb_mem_fulltext_bytes gauge",
		"# TYPE commdb_mem_heap_alloc_bytes gauge",
		"# TYPE commdb_mem_heap_sys_bytes gauge",
		"# TYPE commdb_mem_epochs_live gauge",
		"# TYPE commdb_mem_epoch_bytes gauge",
		`commdb_mem_epoch_bytes{epoch="1"}`,
		"commdb_mem_epochs_live 1",
	} {
		if !contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPprofAdminAuth (satellite: pprof folded into the admin mux):
// /debug/pprof is mounted only with Pprof on, and even then answers
// 403 with no admin token configured and 401 on a bad one.
func TestPprofAdminAuth(t *testing.T) {
	get := func(ts *httptest.Server, token string) int {
		req, err := http.NewRequest("GET", ts.URL+"/debug/pprof/cmdline", nil)
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

	_, tsOff := newPaperServer(t, Config{})
	if got := get(tsOff, "tok"); got != http.StatusNotFound {
		t.Fatalf("pprof off: status %d, want 404", got)
	}
	_, tsNoTok := newPaperServer(t, Config{Pprof: true})
	if got := get(tsNoTok, "whatever"); got != http.StatusForbidden {
		t.Fatalf("no token configured: status %d, want 403", got)
	}
	_, ts := newPaperServer(t, Config{Pprof: true, AdminToken: "tok"})
	if got := get(ts, ""); got != http.StatusUnauthorized {
		t.Fatalf("missing token: status %d, want 401", got)
	}
	if got := get(ts, "wrong"); got != http.StatusUnauthorized {
		t.Fatalf("wrong token: status %d, want 401", got)
	}
	if got := get(ts, "tok"); got != http.StatusOK {
		t.Fatalf("good token: status %d, want 200", got)
	}
}
