package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"commdb"
	"commdb/internal/server"
)

// TestBuildSearcher covers the three searcher flavours and the flag
// validation paths.
func TestBuildSearcher(t *testing.T) {
	s, err := buildSearcher("", "", "paper", false, 8, 0)
	if err != nil {
		t.Fatalf("example searcher: %v", err)
	}
	if s.Indexed() {
		t.Fatal("plain searcher claims an index")
	}

	s, err = buildSearcher("", "", "paper", true, 8, 0)
	if err != nil {
		t.Fatalf("indexed searcher: %v", err)
	}
	if !s.Indexed() {
		t.Fatal("indexed searcher lost its index")
	}

	if _, err := buildSearcher("", "", "", false, 8, 0); err == nil {
		t.Fatal("no graph source should error")
	}
	if _, err := buildSearcher("x", "", "paper", false, 8, 0); err == nil {
		t.Fatal("-graph with -example should error")
	}
	if _, err := buildSearcher("/does/not/exist", "", "", false, 8, 0); err == nil {
		t.Fatal("missing graph file should error")
	}
}

// TestLoadGraphRoundTrip: a graph written with commdb.WriteGraph loads
// back through the -graph path.
func TestLoadGraphRoundTrip(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	path := filepath.Join(t.TempDir(), "g.graph")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := commdb.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := loadGraph(path, "")
	if err != nil {
		t.Fatalf("loadGraph: %v", err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round-trip graph %d/%d, want %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
}

// TestServeSmoke boots the full serving stack the binary assembles —
// indexed searcher, server, handler — and runs one query end to end.
func TestServeSmoke(t *testing.T) {
	s, err := buildSearcher("", "", "paper", true, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	app := server.New(s, server.Config{})
	ts := httptest.NewServer(app.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{"keywords": []string{"a", "b", "c"}, "rmax": 8, "k": 5})
	resp, err := http.Post(ts.URL+"/v1/search/topk", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out server.TopKResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 5 || !out.Complete {
		t.Fatalf("paper query served %d results (complete=%v), want all 5", len(out.Results), out.Complete)
	}
}
