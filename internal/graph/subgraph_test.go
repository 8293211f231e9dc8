package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

func TestInducedSubgraph(t *testing.T) {
	g, ids := buildDiamond(t)
	a, c, _, e := ids[0], ids[1], ids[2], ids[3]
	s, err := Induced(g, []NodeID{a, c, e})
	if err != nil {
		t.Fatal(err)
	}
	if s.G.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", s.G.NumNodes())
	}
	// Surviving edges: a->c (1), c->e (3), e->a (5). a->d and d->e drop.
	if s.G.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", s.G.NumEdges())
	}
	la, ok := s.FromParent(a)
	if !ok {
		t.Fatal("a should map into subgraph")
	}
	lc, _ := s.FromParent(c)
	if w, ok := s.G.EdgeWeight(la, lc); !ok || w != 1 {
		t.Fatalf("edge a->c in subgraph = %v,%v", w, ok)
	}
	if s.ToParent[la] != a {
		t.Fatal("ToParent should invert FromParent")
	}
	if _, ok := s.FromParent(ids[2]); ok {
		t.Fatal("d should not map into subgraph")
	}
	// Terms survive with shared dictionary.
	ka, _ := g.Dict().ID("ka")
	if !s.G.HasTerm(la, ka) {
		t.Fatal("term ka should survive projection")
	}
	if s.G.Dict() != g.Dict() {
		t.Fatal("dictionary must be shared")
	}
}

func TestExtractExplicitEdges(t *testing.T) {
	g, ids := buildDiamond(t)
	a, c, d, e := ids[0], ids[1], ids[2], ids[3]
	s, err := Extract(g, []NodeID{a, c, d, e}, []EdgePair{{a, c}, {d, e}})
	if err != nil {
		t.Fatal(err)
	}
	if s.G.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", s.G.NumEdges())
	}
}

func TestExtractZeroEdges(t *testing.T) {
	g, ids := buildDiamond(t)
	s, err := Extract(g, []NodeID{ids[0]}, []EdgePair{})
	if err != nil {
		t.Fatal(err)
	}
	if s.G.NumNodes() != 1 || s.G.NumEdges() != 0 {
		t.Fatalf("got %d nodes %d edges", s.G.NumNodes(), s.G.NumEdges())
	}
}

func TestExtractErrors(t *testing.T) {
	g, ids := buildDiamond(t)
	a, c := ids[0], ids[1]
	if _, err := Extract(g, []NodeID{a}, []EdgePair{{a, c}}); err == nil {
		t.Fatal("edge endpoint outside node list should error")
	}
	if _, err := Extract(g, []NodeID{a, c}, []EdgePair{{c, a}}); err == nil {
		t.Fatal("non-existent parent edge should error")
	}
	if _, err := Induced(g, []NodeID{a, a}); err == nil {
		t.Fatal("duplicate node should error")
	}
	if _, err := Induced(g, []NodeID{99}); err == nil {
		t.Fatal("out-of-range node should error")
	}
}

func TestInducedRandomAgreesWithDirectCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		b := NewBuilder()
		n := rng.Intn(40) + 5
		for i := 0; i < n; i++ {
			b.AddNode("")
		}
		for i := 0; i < n*3; i++ {
			b.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), float64(rng.Intn(9)+1))
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var nodes []NodeID
		in := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				nodes = append(nodes, NodeID(i))
				in[i] = true
			}
		}
		if len(nodes) == 0 {
			continue
		}
		s, err := Induced(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		// Count edges with both endpoints inside directly.
		want := 0
		for u := 0; u < n; u++ {
			if !in[u] {
				continue
			}
			for _, e := range g.OutEdges(NodeID(u)) {
				if in[e.To] {
					want++
				}
			}
		}
		if s.G.NumEdges() != want {
			t.Fatalf("trial %d: induced has %d edges, want %d", trial, s.G.NumEdges(), want)
		}
	}
}

// TestExtractRejects: every way a caller can break Extract's contract
// is refused with its own message, none repaired.
func TestExtractRejects(t *testing.T) {
	g, ids := buildDiamond(t)
	a, c, d, e := ids[0], ids[1], ids[2], ids[3]
	for _, tc := range []struct {
		name  string
		nodes []NodeID
		edges []EdgePair
		want  string
	}{
		{"unsorted nodes", []NodeID{c, a}, nil, "nodes must be strictly ascending"},
		{"duplicate node", []NodeID{a, c, c}, nil, "nodes must be strictly ascending"},
		{"node outside parent", []NodeID{a, 99}, nil, "outside parent"},
		{"edges out of order by From", []NodeID{a, c, d, e}, []EdgePair{{d, e}, {a, c}}, "edges must be strictly ascending"},
		{"edges out of order by To", []NodeID{a, c, d, e}, []EdgePair{{a, d}, {a, c}}, "edges must be strictly ascending"},
		{"duplicate edge", []NodeID{a, c}, []EdgePair{{a, c}, {a, c}}, "edges must be strictly ascending"},
		{"edge absent from parent", []NodeID{a, c}, []EdgePair{{c, a}}, "does not exist in parent"},
		{"tail outside node list", []NodeID{c, e}, []EdgePair{{a, c}}, "endpoint not in node list"},
		{"head outside node list", []NodeID{a, e}, []EdgePair{{a, c}}, "endpoint not in node list"},
	} {
		for _, extract := range []func(*Graph, []NodeID, []EdgePair) (*Subgraph, error){Extract, ExtractTopology} {
			_, err := extract(g, tc.nodes, tc.edges)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
			}
		}
	}
}

// builderSubgraph is the reference construction: the same subgraph
// through a Builder, which sorts adjacency itself.
func builderSubgraph(t *testing.T, g *Graph, nodes []NodeID, edges []EdgePair, induced bool) *Graph {
	t.Helper()
	local := map[NodeID]NodeID{}
	b := NewBuilderWithDict(g.Dict())
	for _, v := range nodes {
		local[v] = b.AddNodeTermIDs(g.Label(v), g.Terms(v))
		if wt := g.NodeWeight(v); wt != 0 {
			b.SetNodeWeight(local[v], wt)
		}
	}
	if induced {
		for _, u := range nodes {
			for _, e := range g.OutEdges(u) {
				if lv, ok := local[e.To]; ok {
					b.AddEdge(local[u], lv, e.Weight)
				}
			}
		}
	}
	for _, e := range edges {
		w, _ := g.EdgeWeight(e.From, e.To)
		b.AddEdge(local[e.From], local[e.To], w)
	}
	sub, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// TestExtractMatchesBuilder: the direct CSR construction is
// byte-for-byte the graph a Builder freezes from the same nodes and
// edges — parallel edges, node weights and the nil-when-all-zero weight
// slice included — for Extract and for Induced.
func TestExtractMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	serialized := func(g *Graph) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for trial := 0; trial < 200; trial++ {
		b := NewBuilder()
		n := rng.Intn(40) + 2
		for i := 0; i < n; i++ {
			id := b.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("t%d", rng.Intn(5)))
			if trial%2 == 1 && rng.Intn(3) == 0 {
				b.SetNodeWeight(id, float64(rng.Intn(4)))
			}
		}
		for i := 0; i < n*3; i++ {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			b.AddEdge(u, v, float64(rng.Intn(9)+1))
			if rng.Intn(3) == 0 {
				b.AddEdge(u, v, float64(rng.Intn(9)+1))
			}
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var nodes []NodeID
		for v := 0; v < n; v++ {
			if rng.Intn(3) > 0 {
				nodes = append(nodes, NodeID(v))
			}
		}
		var edges []EdgePair // a random subset of the distinct induced edges
		for _, u := range nodes {
			prev := NodeID(-1)
			for _, e := range g.OutEdges(u) {
				if _, in := slices.BinarySearch(nodes, e.To); in && e.To != prev && rng.Intn(2) == 0 {
					edges = append(edges, EdgePair{u, e.To})
				}
				prev = e.To
			}
		}
		s, err := Extract(g, nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		want := builderSubgraph(t, g, nodes, edges, false)
		if !bytes.Equal(serialized(s.G), serialized(want)) {
			t.Fatalf("trial %d: Extract differs from the Builder construction", trial)
		}
		if (s.G.NodeWeights() == nil) != (want.NodeWeights() == nil) {
			t.Fatalf("trial %d: node weights nil=%v, want nil=%v", trial, s.G.NodeWeights() == nil, want.NodeWeights() == nil)
		}
		// The reverse adjacency is not serialized; hold it to the Builder's.
		for v := 0; v < len(nodes); v++ {
			if !slices.Equal(s.G.InEdges(NodeID(v)), want.InEdges(NodeID(v))) {
				t.Fatalf("trial %d: in-edges of local node %d: %v, want %v", trial, v, s.G.InEdges(NodeID(v)), want.InEdges(NodeID(v)))
			}
		}
		top, err := ExtractTopology(g, nodes, edges)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < len(nodes); v++ {
			if !slices.Equal(top.G.OutEdges(NodeID(v)), want.OutEdges(NodeID(v))) || top.G.NodeWeight(NodeID(v)) != want.NodeWeight(NodeID(v)) {
				t.Fatalf("trial %d: ExtractTopology differs at local node %d", trial, v)
			}
		}
		ind, err := Induced(g, nodes)
		if err != nil {
			t.Fatal(err)
		}
		wantInd := builderSubgraph(t, g, nodes, nil, true)
		if !bytes.Equal(serialized(ind.G), serialized(wantInd)) {
			t.Fatalf("trial %d: Induced differs from the Builder construction", trial)
		}
		for v := 0; v < len(nodes); v++ {
			if !slices.Equal(ind.G.InEdges(NodeID(v)), wantInd.InEdges(NodeID(v))) {
				t.Fatalf("trial %d: Induced in-edges of local node %d differ", trial, v)
			}
		}
	}
}

// TestEdgeCursorAgreesWithScan: the cursor and the binary-searching
// EdgeWeight return what a linear scan for the lightest parallel edge
// does — on a 10k-out-degree hub walked in order, with gaps, and for
// absent targets — and report an out-of-order name absent.
func TestEdgeCursorAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBuilder()
	const n = 12000
	for i := 0; i < n; i++ {
		b.AddNode("")
	}
	for i := 0; i < 10000; i++ { // node 0 is the hub
		v := NodeID(rng.Intn(n))
		b.AddEdge(0, v, float64(rng.Intn(9)+1))
		if rng.Intn(4) == 0 {
			b.AddEdge(0, v, float64(rng.Intn(9)+1))
		}
	}
	for i := 0; i < 3*n; i++ {
		b.AddEdge(NodeID(1+rng.Intn(n-1)), NodeID(rng.Intn(n)), float64(rng.Intn(9)+1))
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	scan := func(u, v NodeID) (float64, bool) {
		best, ok := 0.0, false
		for _, e := range g.OutEdges(u) {
			if e.To == v && (!ok || e.Weight < best) {
				best, ok = e.Weight, true
			}
		}
		return best, ok
	}
	cur := g.EdgeCursor()
	for u := NodeID(0); u < 200; u++ {
		for v := NodeID(0); v < n; v += NodeID(1 + rng.Intn(3)) {
			wantW, wantOK := scan(u, v)
			if w, ok := cur.Weight(u, v); w != wantW || ok != wantOK {
				t.Fatalf("cursor (%d,%d) = %v,%v, scan %v,%v", u, v, w, ok, wantW, wantOK)
			}
			if w, ok := g.EdgeWeight(u, v); w != wantW || ok != wantOK {
				t.Fatalf("EdgeWeight(%d,%d) = %v,%v, scan %v,%v", u, v, w, ok, wantW, wantOK)
			}
		}
	}
	first, last := g.OutEdges(0)[0].To, g.OutEdges(0)[g.OutDegree(0)-1].To
	cur = g.EdgeCursor()
	if _, ok := cur.Weight(0, last); !ok {
		t.Fatal("hub's last edge not found")
	}
	if _, ok := cur.Weight(0, first); ok && first != last {
		t.Fatal("an edge named out of order must be reported absent")
	}
}
