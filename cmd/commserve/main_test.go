package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"commdb"
	"commdb/internal/server"
)

// TestBuildSearcher covers the searcher flavours, which of them come
// with a loader to reload from, and the flag validation paths.
func TestBuildSearcher(t *testing.T) {
	s, loader, err := buildSearcher("", "", "paper", false, 8, 0)
	if err != nil {
		t.Fatalf("example searcher: %v", err)
	}
	if s.Indexed() || loader != nil {
		t.Fatalf("plain example searcher: indexed=%v loader=%v, want neither", s.Indexed(), loader != nil)
	}

	s, loader, err = buildSearcher("", "", "paper", true, 8, 0)
	if err != nil {
		t.Fatalf("indexed searcher: %v", err)
	}
	if !s.Indexed() || loader != nil {
		t.Fatalf("indexed example searcher: indexed=%v loader=%v", s.Indexed(), loader != nil)
	}

	if _, _, err := buildSearcher("", "", "", false, 8, 0); err == nil {
		t.Fatal("no graph source should error")
	}
	if _, _, err := buildSearcher("x", "", "paper", false, 8, 0); err == nil {
		t.Fatal("-graph with -example should error")
	}
	if _, _, err := buildSearcher("/does/not/exist", "", "", false, 8, 0); err == nil {
		t.Fatal("missing graph file should error")
	}
}

// TestLoadGraphRoundTrip: a graph written with commdb.WriteGraph (and
// its index, with WriteIndex) boots through the -graph path's loader,
// the loader reproduces the flavour on reload, and a corrupt index
// artifact fails closed at boot.
func TestLoadGraphRoundTrip(t *testing.T) {
	g, _ := commdb.PaperExampleGraph()
	dir := t.TempDir()
	path, indexPath := filepath.Join(dir, "g.graph"), filepath.Join(dir, "g.index")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := commdb.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()
	indexed, err := commdb.Open(g, commdb.WithIndex(8))
	if err != nil {
		t.Fatal(err)
	}
	var ix bytes.Buffer
	if err := indexed.WriteIndex(&ix); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath, ix.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name, indexPath string
		useIndex, want  bool
	}{
		{"scan", "", false, false},
		{"built index", "", true, true},
		{"index file", indexPath, false, true},
	} {
		s, loader, err := buildSearcher(path, tc.indexPath, "", tc.useIndex, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := s.Graph(); got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: round-trip graph %d/%d, want %d/%d", tc.name,
				got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
		}
		if s.Indexed() != tc.want || loader == nil {
			t.Fatalf("%s: indexed=%v loader=%v, want indexed=%v and a loader", tc.name, s.Indexed(), loader != nil, tc.want)
		}
		again, err := loader(nil)
		if err != nil || again.Indexed() != tc.want || again.Parallelism() != 1 {
			t.Fatalf("%s: reload gave %v, %v — not the booted flavour", tc.name, again, err)
		}
	}

	if err := os.WriteFile(indexPath, ix.Bytes()[:ix.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildSearcher(path, indexPath, "", false, 8, 1); !errors.Is(err, commdb.ErrCorruptIndex) {
		t.Fatalf("truncated index artifact at boot: %v, want ErrCorruptIndex", err)
	}
}

// TestServeSmoke boots the full serving stack the binary assembles —
// indexed searcher, server, handler — and runs one query end to end.
func TestServeSmoke(t *testing.T) {
	s, _, err := buildSearcher("", "", "paper", true, 8, 0)
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
