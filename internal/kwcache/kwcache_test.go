package kwcache

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"commdb/internal/core"
	"commdb/internal/fulltext"
	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// paperStore builds a warmed store over the paper's running example:
// every keyword of Fig. 4 at the given radius.
func paperStore(t *testing.T, radius float64) (*Store, *fulltext.Index) {
	t.Helper()
	g, _ := core.PaperGraph()
	ft := fulltext.Build(g)
	s, err := New(ft, radius, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Warm([]string{"a", "b", "c"}); got != 3 {
		t.Fatalf("Warm added %d terms, want 3", got)
	}
	return s, ft
}

// liveRun is the ground truth FullSet must reproduce: a live bounded
// reverse Dijkstra from the term's keyword nodes.
func liveRun(g *graph.Graph, ft *fulltext.Index, term string, rmax float64) *sssp.Result {
	ws := sssp.NewWorkspace(g)
	res := sssp.NewResult(g.NumNodes())
	ws.RunFromNodes(sssp.Reverse, ft.Nodes(term), rmax, res)
	return res
}

func sameResult(t *testing.T, term string, rmax float64, got, want *sssp.Result) {
	t.Helper()
	gv, wv := got.Visited(), want.Visited()
	if len(gv) != len(wv) {
		t.Fatalf("%s@%g: settled %d nodes, live run settles %d", term, rmax, len(gv), len(wv))
	}
	for i := range wv {
		if gv[i] != wv[i] {
			t.Fatalf("%s@%g: settle %d is node %d, live run settles %d", term, rmax, i, gv[i], wv[i])
		}
		v := wv[i]
		gd, _ := got.Dist(v)
		wd, _ := want.Dist(v)
		if gd != wd || got.Src(v) != want.Src(v) || got.Via(v) != want.Via(v) {
			t.Fatalf("%s@%g: node %d (dist,src,via)=(%v,%d,%d), live run has (%v,%d,%d)",
				term, rmax, v, gd, got.Src(v), got.Via(v), wd, want.Src(v), want.Via(v))
		}
	}
}

// TestFullSetMatchesLiveRun: a FullSet served by truncation must be
// byte-identical to a live run at the query radius — same settle
// order, distances, sources and via hops — at the store radius and
// below it.
func TestFullSetMatchesLiveRun(t *testing.T) {
	s, ft := paperStore(t, 8)
	g := ft.Graph()
	for _, term := range []string{"a", "b", "c"} {
		for _, rmax := range []float64{8, 6, 4, 2, 0} {
			res := sssp.NewResult(g.NumNodes())
			if !s.FullSet(term, rmax, res) {
				t.Fatalf("FullSet(%s, %g) missed within the store radius", term, rmax)
			}
			sameResult(t, term, rmax, res, liveRun(g, ft, term, rmax))
		}
	}
	if s.Hits() != 15 || s.Misses() != 0 {
		t.Fatalf("hits/misses = %d/%d, want 15/0", s.Hits(), s.Misses())
	}
}

// TestFullSetMisses: an unknown term or a radius beyond the store's
// must fall through to live execution.
func TestFullSetMisses(t *testing.T) {
	s, ft := paperStore(t, 8)
	res := sssp.NewResult(ft.Graph().NumNodes())
	if s.FullSet("zzz", 4, res) {
		t.Fatal("FullSet served a term that was never warmed")
	}
	if s.FullSet("a", 8.5, res) {
		t.Fatal("FullSet served beyond the store radius")
	}
	if s.Hits() != 0 || s.Misses() != 2 {
		t.Fatalf("hits/misses = %d/%d, want 0/2", s.Hits(), s.Misses())
	}
}

// TestWarmSkipsNonTerms: multi-word and empty keywords are skipped,
// warmed terms are not recomputed, and a keyword matching no node gets
// an empty artifact that serves the empty set just as a live run would.
func TestWarmSkipsNonTerms(t *testing.T) {
	g, _ := core.PaperGraph()
	ft := fulltext.Build(g)
	s, err := New(ft, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Warm([]string{"a", "two words", "", "a", "ghost"}); got != 2 {
		t.Fatalf("Warm added %d, want 2 (a + ghost)", got)
	}
	if got := s.Warm([]string{"a"}); got != 0 {
		t.Fatalf("re-warming an existing term added %d, want 0", got)
	}
	res := sssp.NewResult(g.NumNodes())
	if !s.FullSet("ghost", 4, res) {
		t.Fatal("an empty artifact should still serve")
	}
	if len(res.Visited()) != 0 {
		t.Fatalf("ghost term settled %d nodes, want 0", len(res.Visited()))
	}
}

// TestWriteReadRoundtrip: Write then ReadInto reconstructs the store
// exactly — same metadata, same terms, same served sequences — and
// serialization is deterministic (two writes are byte-identical).
func TestWriteReadRoundtrip(t *testing.T) {
	s, ft := paperStore(t, 8)
	var buf, buf2 bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("two writes of the same store differ")
	}
	// The on-disk format is pinned to the bytes its first implementation
	// wrote: moving the framing between packages cannot drift it without
	// a version bump.
	const golden = "bb852d9534a985fb162ea82016a12b15d3d68ce5128aad713ea5edcbd33969b9"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 368 || got != golden {
		t.Fatalf("paper-example store is %d bytes, sha256 %s; want 368 bytes, %s", buf.Len(), got, golden)
	}

	got, err := ReadInto(bytes.NewReader(buf.Bytes()), ft)
	if err != nil {
		t.Fatal(err)
	}
	if got.Radius() != 8 || got.Epoch() != 7 || got.Len() != 3 {
		t.Fatalf("loaded store is radius=%g epoch=%d len=%d, want 8/7/3",
			got.Radius(), got.Epoch(), got.Len())
	}
	g := ft.Graph()
	for _, term := range []string{"a", "b", "c"} {
		res := sssp.NewResult(g.NumNodes())
		if !got.FullSet(term, 5, res) {
			t.Fatalf("loaded store missed %s", term)
		}
		sameResult(t, term, 5, res, liveRun(g, ft, term, 5))
	}
}

// TestReadRejectsCorruption sweeps the whole corruption surface: the
// loader must reject (never panic on, never silently accept) every
// truncation point, every single-bit flip, and trailing garbage.
func TestReadRejectsCorruption(t *testing.T) {
	s, ft := paperStore(t, 8)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()

	mustReject := func(b []byte, what string) {
		t.Helper()
		_, err := ReadInto(bytes.NewReader(b), ft)
		if err == nil {
			t.Fatalf("%s: loader accepted a damaged store", what)
		}
		if !errors.Is(err, ErrCorruptStore) && !errors.Is(err, ErrStoreMismatch) {
			t.Fatalf("%s: error %v wraps neither ErrCorruptStore nor ErrStoreMismatch", what, err)
		}
	}

	for n := 0; n < len(blob); n++ {
		mustReject(blob[:n], "truncated")
	}
	for i := 0; i < len(blob); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), blob...)
			flipped[i] ^= 1 << bit
			mustReject(flipped, "bit-flipped")
		}
	}
	mustReject(append(append([]byte(nil), blob...), 0), "trailing garbage")
	// An 11-byte uvarint: the decoder, not the reader, reports it.
	mustReject([]byte(storeMagic+"\xe2\xde\xde\xde\xde\xde\xde\xde\xde\xde\xff0"), "overlong varint")
}

// TestReadRejectsWrongGraph: a structurally intact store fails closed
// against a graph it was not built over.
func TestReadRejectsWrongGraph(t *testing.T) {
	s, _ := paperStore(t, 8)
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := core.IntroGraph()
	_, err := ReadInto(bytes.NewReader(buf.Bytes()), fulltext.Build(other))
	if err == nil {
		t.Fatal("loader attached artifacts to the wrong graph")
	}
	if !errors.Is(err, ErrStoreMismatch) {
		t.Fatalf("error %v does not wrap ErrStoreMismatch", err)
	}

	// Same shape, different content: rebuild the paper graph with one
	// edge weight changed. Checksums are intact, so only the structural
	// via-chain gate can catch it.
	g2 := reweightedPaperGraph(t)
	_, err = ReadInto(bytes.NewReader(buf.Bytes()), fulltext.Build(g2))
	if err == nil {
		t.Fatal("loader attached artifacts to a reweighted graph")
	}
	if !errors.Is(err, ErrStoreMismatch) && !errors.Is(err, ErrCorruptStore) {
		t.Fatalf("reweighted: error %v wraps neither sentinel", err)
	}
}

// reweightedPaperGraph rebuilds the paper example with the weight of
// v1→v2 changed from 5 to 4: identical node and edge counts, same
// keyword postings, different shortest paths.
func reweightedPaperGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	kw := map[int][]string{
		4: {"a"}, 13: {"a"},
		2: {"b"}, 8: {"b"},
		3: {"c"}, 6: {"c"}, 9: {"c"}, 11: {"c"},
	}
	ids := make([]graph.NodeID, 14)
	for i := 1; i <= 13; i++ {
		ids[i] = b.AddNode("", kw[i]...)
	}
	type e struct {
		u, v int
		w    float64
	}
	edges := []e{
		{1, 2, 4}, {1, 3, 3}, {1, 4, 6},
		{2, 3, 4},
		{4, 6, 3}, {4, 8, 4},
		{5, 2, 5}, {5, 4, 6}, {5, 9, 4},
		{7, 4, 1}, {7, 6, 2}, {7, 8, 6},
		{8, 13, 7},
		{9, 10, 2}, {9, 13, 5},
		{10, 8, 3},
		{11, 10, 2}, {11, 12, 3},
		{12, 11, 3}, {12, 13, 3},
	}
	for _, ed := range edges {
		b.AddEdge(ids[ed.u], ids[ed.v], ed.w)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
