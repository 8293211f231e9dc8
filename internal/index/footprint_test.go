package index

import (
	"testing"
	"unsafe"

	"commdb/internal/core"
	"commdb/internal/graph"
	"commdb/internal/prof"
)

func sumPartsRec(t *testing.T, f prof.Footprint) {
	t.Helper()
	if len(f.Parts) == 0 {
		return
	}
	var sum int64
	for _, p := range f.Parts {
		sum += p.Bytes
		sumPartsRec(t, p)
	}
	if f.Bytes != sum {
		t.Fatalf("%s: bytes %d != sum of parts %d", f.Name, f.Bytes, sum)
	}
}

func TestIndexFootprintExact(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 8, KeepDistances: true})
	if err != nil {
		t.Fatal(err)
	}
	f := ix.Footprint()
	sumPartsRec(t, f)
	if f.Name != "index" || f.Items != int64(g.Dict().Size()) {
		t.Fatalf("root = %+v", f)
	}

	ftE, ok := f.Find("invertedE")
	if !ok {
		t.Fatal("invertedE part missing")
	}
	wantE := prof.SliceBytes(cap(ix.edges), 24)
	var edgeItems int64
	for _, es := range ix.edges {
		wantE += int64(cap(es)) * int64(unsafe.Sizeof(graph.EdgePair{})) // 8: two int32s, no weight
		edgeItems += int64(len(es))
	}
	if ftE.Bytes != wantE || ftE.Items != edgeItems {
		t.Fatalf("invertedE = %+v, want bytes %d items %d", ftE, wantE, edgeItems)
	}

	ftN, ok := f.Find("invertedN")
	if !ok {
		t.Fatal("invertedN part missing")
	}
	if ftN.Bytes != ix.Fulltext().Bytes() {
		t.Fatalf("invertedN bytes %d != fulltext Bytes %d", ftN.Bytes, ix.Fulltext().Bytes())
	}

	if _, ok := f.Find("dist_sidecar"); !ok {
		t.Fatal("KeepDistances build should report a dist_sidecar part")
	}
	if ix.Bytes() != f.Bytes {
		t.Fatalf("Bytes() = %d, footprint total %d", ix.Bytes(), f.Bytes)
	}

	// Without KeepDistances there is no sidecar part.
	ix2, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix2.Footprint().Find("dist_sidecar"); ok {
		t.Fatal("plain build should not report a sidecar")
	}
}

// Build with a Stages accumulator reports the fulltext and per-term
// Dijkstra phases.
func TestBuildStageTimings(t *testing.T) {
	g, _ := core.PaperGraph()
	st := prof.NewStages()
	if _, err := Build(g, BuildOptions{R: 8, Stages: st}); err != nil {
		t.Fatal(err)
	}
	got := st.SnapshotMS()
	if _, ok := got["fulltext"]; !ok {
		t.Fatalf("fulltext stage missing: %v", got)
	}
	if _, ok := got["term_dijkstra"]; !ok {
		t.Fatalf("term_dijkstra stage missing: %v", got)
	}
}
