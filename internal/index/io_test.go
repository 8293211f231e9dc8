package index

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"commdb/internal/core"
	"commdb/internal/graph"
)

func TestIndexIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(811))
	g, kws := randomKeywordGraph(t, rng, 40, 160, 3)
	ix, err := Build(g, BuildOptions{R: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	ix2, err := ReadInto(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if ix2.R() != 7 {
		t.Fatalf("R = %v, want 7", ix2.R())
	}
	for _, kw := range kws {
		a, b := ix.EdgePostings(kw), ix2.EdgePostings(kw)
		if len(a) != len(b) {
			t.Fatalf("term %s: %d vs %d postings", kw, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("term %s posting %d: %v vs %v", kw, i, a[i], b[i])
			}
		}
	}
	// Projection over the loaded index gives identical graphs.
	p1, err := ix.Project(kws[:2], 6)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ix2.Project(kws[:2], 6)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Sub.G.NumNodes() != p2.Sub.G.NumNodes() || p1.Sub.G.NumEdges() != p2.Sub.G.NumEdges() {
		t.Fatalf("projection differs after round trip: (%d,%d) vs (%d,%d)",
			p1.Sub.G.NumNodes(), p1.Sub.G.NumEdges(), p2.Sub.G.NumNodes(), p2.Sub.G.NumEdges())
	}
}

func TestIndexIORejectsMismatchedGraph(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	other, _ := core.IntroGraph()
	if _, err := ReadInto(&buf, other); err == nil {
		t.Fatal("loading an index against a different graph should fail")
	}
}

// loadClosed attempts a load and requires it to fail closed: an error
// wrapping ErrCorruptIndex or ErrIndexMismatch, no index, no panic.
// Returns false (with the test failed) when the load accepted the
// artifact — callers use that to tell "corruption detected" apart from
// "corruption happened to cancel out" in exhaustive sweeps.
func loadClosed(t *testing.T, data []byte, g *graph.Graph, what string) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Fatalf("%s: load panicked: %v", what, p)
		}
	}()
	ix, err := ReadInto(bytes.NewReader(data), g)
	if err == nil {
		t.Fatalf("%s: corrupt artifact accepted", what)
	}
	if ix != nil {
		t.Fatalf("%s: error AND partial index returned", what)
	}
	if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("%s: error %v wraps neither ErrCorruptIndex nor ErrIndexMismatch", what, err)
	}
}

// smallArtifact builds a compact serialized index plus its graph, the
// corpus for the exhaustive corruption sweeps.
func smallArtifact(t testing.TB) ([]byte, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(4242))
	g, _ := randomKeywordGraph(t, rng, 12, 36, 2)
	ix, err := Build(g, BuildOptions{R: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), g
}

func TestIndexIOTruncateEveryPrefix(t *testing.T) {
	data, g := smallArtifact(t)
	for n := 0; n < len(data); n++ {
		loadClosed(t, data[:n], g, fmt.Sprintf("prefix of %d/%d bytes", n, len(data)))
	}
}

func TestIndexIOFlipEveryByte(t *testing.T) {
	data, g := smallArtifact(t)
	mut := make([]byte, len(data))
	for i := 0; i < len(data); i++ {
		for _, bit := range []byte{0x01, 0x80} {
			copy(mut, data)
			mut[i] ^= bit
			// A flip is allowed to survive only if CRCs still verify —
			// impossible for a single-bit flip over CRC32-protected
			// sections, so every one must be rejected.
			loadClosed(t, mut, g, fmt.Sprintf("byte %d bit %02x flipped", i, bit))
		}
	}
}

// overlongVarint is the magic followed by an 11-byte uvarint: more than
// 64 bits, which the decoder reports itself rather than via the reader.
var overlongVarint = []byte(idxMagic + "\xe2\xde\xde\xde\xde\xde\xde\xde\xde\xde\xff0")

// FuzzReadInto hardens the index reader against arbitrary bytes: a load
// never panics; a rejected load returns no index and an error wrapping
// ErrCorruptIndex or ErrIndexMismatch (a bytes.Reader has no transient
// failures); an accepted load is a complete index — it serializes and
// loads back equal.
func FuzzReadInto(f *testing.F) {
	valid, g := smallArtifact(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), 0x00))
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte(idxMagic))
	f.Add([]byte{})
	f.Add(overlongVarint)

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := ReadInto(bytes.NewReader(data), g)
		if err != nil {
			if ix != nil {
				t.Fatal("error AND partial index returned")
			}
			if !errors.Is(err, ErrCorruptIndex) && !errors.Is(err, ErrIndexMismatch) {
				t.Fatalf("error %v wraps neither ErrCorruptIndex nor ErrIndexMismatch", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			t.Fatalf("accepted index does not serialize: %v", err)
		}
		again, err := ReadInto(&buf, g)
		if err != nil || !again.Equal(ix) {
			t.Fatalf("accepted index does not round-trip (err %v)", err)
		}
	})
}

// TestIndexIOGoldenBytes pins the on-disk format: the paper example's
// index serializes to exactly the bytes the format's first
// implementation wrote, so moving the framing between packages cannot
// drift it without a version bump.
func TestIndexIOGoldenBytes(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "8e225402142042dc2659983dce0c9396fe4a184317a1c09598bec5d28ed6109d"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 390 || got != want {
		t.Fatalf("paper-example index is %d bytes, sha256 %s; want 390 bytes, %s", buf.Len(), got, want)
	}
}

// TestIndexIOErrClassification: each named way an artifact can be wrong
// fails closed with the sentinel callers classify on — corruption
// (permanent for the artifact) versus a structurally valid index built
// over another graph.
func TestIndexIOErrClassification(t *testing.T) {
	data, g := smallArtifact(t)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte{}, data...)) }
	b := graph.NewBuilder()
	b.AddNode("z", "zeta")
	other, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		g    *graph.Graph
		want error
	}{
		{"empty", nil, g, ErrCorruptIndex},
		{"bad magic", []byte("garbage"), g, ErrCorruptIndex},
		{"magic only", []byte(idxMagic), g, ErrCorruptIndex},
		{"truncated in the header", data[:8], g, ErrCorruptIndex},
		{"truncated in the postings", data[:len(data)/2], g, ErrCorruptIndex},
		{"footer missing", data[:len(data)-len(idxFooter)], g, ErrCorruptIndex},
		{"version is an overlong varint", overlongVarint, g, ErrCorruptIndex},
		{"trailing byte", mutate(func(b []byte) []byte { return append(b, 0x00) }), g, ErrCorruptIndex},
		// Byte 4 is the uvarint version (2 → one byte): a stale v1 artifact.
		{"version rewritten to 1", mutate(func(b []byte) []byte { b[4] = 1; return b }), g, ErrCorruptIndex},
		{"intact, but another graph", data, other, ErrIndexMismatch},
	} {
		loadClosed(t, tc.data, tc.g, tc.name)
		if _, err := ReadInto(bytes.NewReader(tc.data), tc.g); !errors.Is(err, tc.want) {
			t.Errorf("%s: error %v does not wrap %v", tc.name, err, tc.want)
		}
	}
}

func TestIndexIOEmptyPostings(t *testing.T) {
	// A graph whose dictionary has terms with no invertedE entries
	// (an isolated carrier has no edge within R) round-trips cleanly.
	b := graph.NewBuilder()
	b.AddNode("a", "only")
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, BuildOptions{R: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadInto(&buf, g); err != nil {
		t.Fatal(err)
	}
}

// TestIndexIOParallelEdgesMinWeight: postings carry no weight, so Write
// takes it from the graph — for parallel edges that must be the minimum
// (the only one shortest paths use, and the one the load gate checks).
// The bytes are the ones the weight-carrying implementation wrote, and
// they reload through the live-graph gate.
func TestIndexIOParallelEdgesMinWeight(t *testing.T) {
	b := graph.NewBuilder()
	u := b.AddNode("u", "x")
	v := b.AddNode("v", "y")
	w := b.AddNode("w", "x")
	for _, e := range []struct {
		from, to graph.NodeID
		wt       float64
	}{{u, v, 5}, {u, v, 2}, {u, v, 3}, {u, w, 4}, {u, w, 1}, {v, w, 1}, {v, w, 1}, {w, u, 7}} {
		b.AddEdge(e.from, e.to, e.wt)
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := Build(g, BuildOptions{R: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "77d715027f93f63a24a89da5b10942a82a7b9f7dadd3e3616db76f30e2e7a835"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); buf.Len() != 79 || got != want {
		t.Fatalf("parallel-edge index is %d bytes, sha256 %s; want 79 bytes, %s", buf.Len(), got, want)
	}
	back, err := ReadInto(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("reload through the gate: %v", err)
	}
	if !back.Equal(ix) {
		t.Fatal("reloaded index differs")
	}
}

// TestIndexIOCursorHubAndParallelEdges: the load gate walks one cursor
// per term instead of scanning OutEdges(From) per posting. A hub with
// 10k out-edges, many of them parallel, still round-trips, and an index
// reloaded onto the same topology with one edge reweighted — the
// lightest of a parallel group, or a hub edge — is still refused.
func TestIndexIOCursorHubAndParallelEdges(t *testing.T) {
	type edge struct {
		from, to graph.NodeID
		wt       float64
	}
	const n = 3000
	rng := rand.New(rand.NewSource(12))
	var edges []edge
	for i := 0; i < 10000; i++ { // node 0 is the hub; most targets repeat
		edges = append(edges, edge{0, graph.NodeID(1 + rng.Intn(n-1)), float64(rng.Intn(3) + 1)})
	}
	for i := 0; i < n; i++ {
		edges = append(edges, edge{graph.NodeID(1 + rng.Intn(n-1)), graph.NodeID(rng.Intn(n)), float64(rng.Intn(3) + 1)})
	}
	freeze := func(es []edge) *graph.Graph {
		b := graph.NewBuilder()
		for i := 0; i < n; i++ {
			b.AddNode("", "hot") // every edge is in the term's posting list
		}
		for _, e := range es {
			b.AddEdge(e.from, e.to, e.wt)
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := freeze(edges)
	if g.OutDegree(0) != 10000 {
		t.Fatalf("hub out-degree %d", g.OutDegree(0))
	}
	ix, err := Build(g, BuildOptions{R: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.EdgePostings("hot")) < 1000 {
		t.Fatalf("only %d postings: the hub is not indexed", len(ix.EdgePostings("hot")))
	}
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadInto(bytes.NewReader(buf.Bytes()), g)
	if err != nil {
		t.Fatalf("reload through the gate: %v", err)
	}
	if !back.Equal(ix) {
		t.Fatal("reloaded index differs")
	}

	// Reweight the lightest edge of the hub's last parallel group: the
	// group's minimum moves, the topology does not.
	adj := g.OutEdges(0)
	last := adj[len(adj)-1].To
	minWt, _ := g.EdgeWeight(0, last)
	reweighted := append([]edge(nil), edges...)
	for i, e := range reweighted {
		if e.from == 0 && e.to == last && e.wt == minWt {
			reweighted[i].wt = minWt + 0.5
		}
	}
	if _, err := ReadInto(bytes.NewReader(buf.Bytes()), freeze(reweighted)); !errors.Is(err, ErrIndexMismatch) {
		t.Fatalf("index loaded onto a reweighted graph: %v, want ErrIndexMismatch", err)
	}
}
