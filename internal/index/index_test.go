package index

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"commdb/internal/core"
	"commdb/internal/graph"
	"commdb/internal/sssp"
)

func randomKeywordGraph(t testing.TB, rng *rand.Rand, n, m, nkw int) (*graph.Graph, []string) {
	t.Helper()
	kws := make([]string, nkw)
	for i := range kws {
		kws[i] = fmt.Sprintf("k%d", i)
	}
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		var terms []string
		for _, kw := range kws {
			if rng.Intn(5) == 0 {
				terms = append(terms, kw)
			}
		}
		b.AddNode(fmt.Sprintf("n%d", i), terms...)
	}
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), float64(rng.Intn(5)+1))
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g, kws
}

// TestEdgePostingsBruteForce checks invertedE against the definition:
// an edge belongs to term w's list iff both endpoints reach a node
// containing w within R.
func TestEdgePostingsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(25) + 5
		g, kws := randomKeywordGraph(t, rng, n, n*3, 3)
		R := float64(rng.Intn(8) + 2)
		ix, err := Build(g, BuildOptions{R: R})
		if err != nil {
			t.Fatal(err)
		}
		ws := sssp.NewWorkspace(g)
		res := sssp.NewResult(n)
		for _, kw := range kws {
			post := ix.Fulltext().Nodes(kw)
			if len(post) == 0 {
				if ix.EdgePostings(kw) != nil {
					t.Fatalf("term %s has no nodes but %d edges", kw, len(ix.EdgePostings(kw)))
				}
				continue
			}
			ws.RunFromNodes(sssp.Reverse, post, R, res)
			want := map[graph.EdgePair]bool{}
			for u := 0; u < n; u++ {
				if !res.Contains(graph.NodeID(u)) {
					continue
				}
				for _, e := range g.OutEdges(graph.NodeID(u)) {
					if res.Contains(e.To) {
						want[graph.EdgePair{From: graph.NodeID(u), To: e.To}] = true
					}
				}
			}
			got := ix.EdgePostings(kw)
			gotSet := map[graph.EdgePair]bool{}
			for _, e := range got {
				gotSet[e] = true
			}
			if len(gotSet) != len(want) {
				t.Fatalf("trial %d term %s: %d postings, want %d", trial, kw, len(gotSet), len(want))
			}
			for e := range want {
				if !gotSet[e] {
					t.Fatalf("trial %d term %s: missing edge %v", trial, kw, e)
				}
			}
		}
	}
}

// runAllOn enumerates COMM-all and returns cores in parent-graph IDs
// with costs, plus the sorted node sets of every community.
func runAllOn(t *testing.T, g *graph.Graph, toParent []graph.NodeID, kws []string, rmax float64) map[string]communityFacts {
	t.Helper()
	e, err := core.NewEngine(g, nil, kws, rmax)
	if err != nil {
		t.Fatal(err)
	}
	it := core.NewAll(e)
	out := map[string]communityFacts{}
	for {
		r, ok := it.Next()
		if !ok {
			return out
		}
		mapped := make(core.Core, len(r.Core))
		for i, v := range r.Core {
			mapped[i] = mapID(v, toParent)
		}
		nodes := make([]graph.NodeID, len(r.Nodes))
		for i, v := range r.Nodes {
			nodes[i] = mapID(v, toParent)
		}
		sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
		centers := make([]graph.NodeID, len(r.Cnodes))
		for i, v := range r.Cnodes {
			centers[i] = mapID(v, toParent)
		}
		sort.Slice(centers, func(i, j int) bool { return centers[i] < centers[j] })
		key := mapped.Key()
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate core %s", key)
		}
		out[key] = communityFacts{cost: r.Cost, nodes: nodes, centers: centers}
		if len(out) > 100000 {
			t.Fatal("runaway enumeration")
		}
	}
}

type communityFacts struct {
	cost    float64
	nodes   []graph.NodeID
	centers []graph.NodeID
}

func mapID(v graph.NodeID, toParent []graph.NodeID) graph.NodeID {
	if toParent == nil {
		return v
	}
	return toParent[v]
}

// TestProjectionEquivalence is the paper's Section VI guarantee: an
// l-keyword query answered on the projected graph returns exactly the
// communities of the full graph — same cores, costs, centers, and node
// sets — for any Rmax ≤ R.
func TestProjectionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(521))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30) + 6
		g, kws := randomKeywordGraph(t, rng, n, n*3, 2)
		R := float64(rng.Intn(8) + 3)
		rmax := R - float64(rng.Intn(3))
		ix, err := Build(g, BuildOptions{R: R})
		if err != nil {
			t.Fatal(err)
		}
		proj, err := ix.Project(kws, rmax)
		if err != nil {
			t.Fatal(err)
		}
		direct := runAllOn(t, g, nil, kws, rmax)
		projected := runAllOn(t, proj.Sub.G, proj.Sub.ToParent, kws, rmax)

		if len(direct) != len(projected) {
			t.Fatalf("trial %d (n=%d R=%v rmax=%v, proj %d nodes): direct %d communities, projected %d",
				trial, n, R, rmax, proj.Sub.G.NumNodes(), len(direct), len(projected))
		}
		for key, want := range direct {
			got, ok := projected[key]
			if !ok {
				t.Fatalf("trial %d: core %s missing from projected run", trial, key)
			}
			if math.Abs(got.cost-want.cost) > 1e-9 {
				t.Fatalf("trial %d core %s: projected cost %v, direct %v", trial, key, got.cost, want.cost)
			}
			if !nodeSlicesEqual(got.nodes, want.nodes) {
				t.Fatalf("trial %d core %s: projected nodes %v, direct %v", trial, key, got.nodes, want.nodes)
			}
			if !nodeSlicesEqual(got.centers, want.centers) {
				t.Fatalf("trial %d core %s: projected centers %v, direct %v", trial, key, got.centers, want.centers)
			}
		}
		// Projection must never be larger than the graph.
		if proj.Sub.G.NumNodes() > g.NumNodes() {
			t.Fatal("projection larger than parent")
		}
		if proj.Ratio < 0 || proj.Ratio > 1 {
			t.Fatalf("ratio %v out of range", proj.Ratio)
		}
	}
}

func nodeSlicesEqual(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestProjectionPaperExample: projecting the Fig. 4 graph for {a,b,c}
// with Rmax = 8 keeps the query answer identical and drops at least
// nothing essential.
func TestProjectionPaperExample(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := ix.Project([]string{"a", "b", "c"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	direct := runAllOn(t, g, nil, []string{"a", "b", "c"}, 8)
	projected := runAllOn(t, proj.Sub.G, proj.Sub.ToParent, []string{"a", "b", "c"}, 8)
	if len(direct) != 5 || len(projected) != 5 {
		t.Fatalf("direct %d, projected %d, want 5", len(direct), len(projected))
	}
	for key, want := range direct {
		if got := projected[key]; math.Abs(got.cost-want.cost) > 1e-9 {
			t.Fatalf("core %s cost %v vs %v", key, got.cost, want.cost)
		}
	}
}

// TestProjectionMissingKeyword yields an empty graph.
func TestProjectionMissingKeyword(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		t.Fatal(err)
	}
	proj, err := ix.Project([]string{"a", "zzz"}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if proj.Sub.G.NumNodes() != 0 {
		t.Fatalf("projection for absent keyword has %d nodes", proj.Sub.G.NumNodes())
	}
}

// TestProjectionErrors: Rmax beyond R, no keywords, bad keyword.
func TestProjectionErrors(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Project([]string{"a"}, 6); err == nil {
		t.Fatal("Rmax beyond R should error")
	}
	if _, err := ix.Project(nil, 5); err == nil {
		t.Fatal("no keywords should error")
	}
	if _, err := ix.Project([]string{"two words"}, 5); err == nil {
		t.Fatal("multi-term keyword should error")
	}
	if _, err := Build(g, BuildOptions{R: -1}); err == nil {
		t.Fatal("negative R should error")
	}
}

// TestBuildDeterministic: builds with different worker counts produce
// identical postings.
func TestBuildDeterministic(t *testing.T) {
	g, kws := randomKeywordGraph(t, rand.New(rand.NewSource(541)), 40, 160, 3)
	a, err := Build(g, BuildOptions{R: 6, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, BuildOptions{R: 6, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, kw := range kws {
		pa, pb := a.EdgePostings(kw), b.EdgePostings(kw)
		if len(pa) != len(pb) {
			t.Fatalf("term %s: %d vs %d postings", kw, len(pa), len(pb))
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatalf("term %s posting %d differs: %v vs %v", kw, i, pa[i], pb[i])
			}
		}
	}
}

// TestStatsAndAccessors covers the reporting surface.
func TestStatsAndAccessors(t *testing.T) {
	g, _ := core.PaperGraph()
	ix, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Graph() != g || ix.R() != 8 {
		t.Fatal("accessors")
	}
	if ix.Bytes() <= 0 {
		t.Fatal("Bytes should be positive")
	}
	s := ix.ComputeStats()
	if s.Terms != g.Dict().Size() || s.EdgeLists == 0 || s.TotalEdges == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BuildTime <= 0 {
		t.Fatal("BuildTime should be recorded")
	}
	if ix.EdgePostings("nonexistent") != nil {
		t.Fatal("unknown term should have nil postings")
	}
}

// BenchmarkIndexBuild measures one full invertedN+invertedE build over
// a mid-size random graph — the paper's one-time indexing cost.
func BenchmarkIndexBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(99))
	gb := graph.NewBuilder()
	words := make([]string, 50)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	const n = 5000
	for i := 0; i < n; i++ {
		var ts []string
		for _, w := range words {
			if rng.Intn(40) == 0 {
				ts = append(ts, w)
			}
		}
		gb.AddNode("", ts...)
	}
	for i := 0; i < n*4; i++ {
		gb.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), rng.Float64()*4+1)
	}
	g, err := gb.Freeze()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, BuildOptions{R: 8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProject measures Algorithm 6 alone on the same graph.
func BenchmarkProject(b *testing.B) {
	rng := rand.New(rand.NewSource(98))
	g, kws := randomKeywordGraph(b, rng, 5000, 20000, 3)
	ix, err := Build(g, BuildOptions{R: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Project(kws[:2], 7); err != nil {
			b.Fatal(err)
		}
	}
}
