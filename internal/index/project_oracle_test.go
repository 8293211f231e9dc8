package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"

	"commdb/internal/core"
	"commdb/internal/fulltext"
	"commdb/internal/govern"
	"commdb/internal/graph"
	"commdb/internal/sssp"
)

// oracleProject is Algorithm 6 as it stood before the sorted-merge
// rewrite, kept verbatim as the reference: Go maps for V', W', E' and
// V_c, a sort of the map keys, and two Builder-based extractions. The
// rewrite must build exactly this graph.
func oracleProject(ix *Index, keywords []string, rmax float64) (*graph.Subgraph, error) {
	if rmax > ix.r {
		return nil, fmt.Errorf("index: Rmax %v exceeds index radius %v", rmax, ix.r)
	}
	if len(keywords) == 0 {
		return nil, core.ErrNoKeywords
	}
	g := ix.g

	nodeSet := map[graph.NodeID]struct{}{}   // V'
	wSet := map[graph.NodeID]struct{}{}      // W'
	edgeSet := map[graph.EdgePair]struct{}{} // E'
	var vc map[graph.NodeID]struct{}         // V_c

	for _, kw := range keywords {
		terms := fulltext.Tokenize(kw)
		if len(terms) != 1 {
			return nil, fmt.Errorf("index: keyword %q does not tokenize to a single term", kw)
		}
		wi := ix.nodes.Nodes(terms[0])
		if len(wi) == 0 {
			return oracleExtract(g, nil, []graph.EdgePair{})
		}
		vi := map[graph.NodeID]struct{}{}
		for _, v := range wi {
			wSet[v] = struct{}{}
			vi[v] = struct{}{}
			nodeSet[v] = struct{}{}
		}
		for _, e := range ix.EdgePostings(terms[0]) {
			edgeSet[e] = struct{}{}
			vi[e.From] = struct{}{}
			vi[e.To] = struct{}{}
			nodeSet[e.From] = struct{}{}
			nodeSet[e.To] = struct{}{}
		}
		if vc == nil {
			vc = vi
		} else {
			for v := range vc {
				if _, ok := vi[v]; !ok {
					delete(vc, v)
				}
			}
		}
	}
	if len(vc) == 0 {
		return oracleExtract(g, nil, []graph.EdgePair{})
	}

	nodes := make([]graph.NodeID, 0, len(nodeSet))
	for v := range nodeSet {
		nodes = append(nodes, v)
	}
	oracleSortNodeIDs(nodes)
	edges := make([]graph.EdgePair, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	oracleSortEdgePairs(edges)
	union, err := oracleExtract(g, nodes, edges)
	if err != nil {
		return nil, err
	}

	ws := sssp.NewWorkspace(union.G)
	fwd := sssp.NewResult(union.G.NumNodes())
	rev := sssp.NewResult(union.G.NumNodes())
	var centerSeeds, kwSeeds []graph.NodeID
	for v := range vc {
		lv, _ := union.FromParent(v)
		centerSeeds = append(centerSeeds, lv)
	}
	for v := range wSet {
		lv, _ := union.FromParent(v)
		kwSeeds = append(kwSeeds, lv)
	}
	// The keep radius is rmax widened by the rounding slack, as in
	// narrow: the engine sums a center's distance from the keyword end.
	keepR := sssp.Widen(rmax, union.G.NumNodes())
	ws.RunFromNodes(sssp.Forward, centerSeeds, keepR, fwd)
	ws.RunFromNodes(sssp.Reverse, kwSeeds, keepR, rev)

	keep := map[graph.NodeID]struct{}{}
	var vp []graph.NodeID
	for _, lv := range fwd.Visited() {
		ds, _ := fwd.Dist(lv)
		dt, ok := rev.Dist(lv)
		if ok && ds+dt <= keepR {
			pv := union.ToParent[lv]
			keep[pv] = struct{}{}
			vp = append(vp, pv)
		}
	}
	oracleSortNodeIDs(vp)
	var ep []graph.EdgePair
	for _, e := range edges {
		if _, ok := keep[e.From]; !ok {
			continue
		}
		if _, ok := keep[e.To]; !ok {
			continue
		}
		ep = append(ep, e)
	}
	return oracleExtract(g, vp, ep)
}

func oracleSortNodeIDs(a []graph.NodeID) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

func oracleSortEdgePairs(a []graph.EdgePair) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].From != a[j].From {
			return a[i].From < a[j].From
		}
		return a[i].To < a[j].To
	})
}

// oracleExtract is the Builder round trip graph.Extract used to be: any
// node order, a linear EdgeWeight scan per edge, adjacency sorted by
// Freeze. Its Subgraph is assembled from the new type's public fields.
func oracleExtract(g *graph.Graph, nodes []graph.NodeID, edges []graph.EdgePair) (*graph.Subgraph, error) {
	fromParent := map[graph.NodeID]graph.NodeID{}
	b := graph.NewBuilderWithDict(g.Dict())
	for local, parent := range nodes {
		if parent < 0 || int(parent) >= g.NumNodes() {
			return nil, fmt.Errorf("graph: subgraph node %d outside parent", parent)
		}
		if _, dup := fromParent[parent]; dup {
			return nil, fmt.Errorf("graph: node %d listed twice", parent)
		}
		fromParent[parent] = graph.NodeID(local)
		id := b.AddNodeTermIDs(g.Label(parent), g.Terms(parent))
		if wt := g.NodeWeight(parent); wt != 0 {
			b.SetNodeWeight(id, wt)
		}
	}
	for _, ep := range edges {
		lu, okU := fromParent[ep.From]
		lv, okV := fromParent[ep.To]
		if !okU || !okV {
			return nil, fmt.Errorf("graph: edge (%d,%d) endpoint not in node list", ep.From, ep.To)
		}
		w, ok := 0.0, false
		for _, e := range g.OutEdges(ep.From) { // the old linear EdgeWeight
			if e.To == ep.To && (!ok || e.Weight < w) {
				w, ok = e.Weight, true
			}
		}
		if !ok {
			return nil, fmt.Errorf("graph: edge (%d,%d) does not exist in parent", ep.From, ep.To)
		}
		b.AddEdge(lu, lv, w)
	}
	sub, err := b.Freeze()
	if err != nil {
		return nil, err
	}
	return &graph.Subgraph{G: sub, ToParent: append([]graph.NodeID(nil), nodes...)}, nil
}

func graphBytes(t testing.TB, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameProjection fails unless got is the oracle's subgraph: equal
// ToParent, byte-identical serialized graph, shared dictionary, and
// node weights nil exactly when the oracle's are.
func sameProjection(t testing.TB, what string, got, want *graph.Subgraph) {
	t.Helper()
	if !slices.Equal(got.ToParent, want.ToParent) {
		t.Fatalf("%s: ToParent %v, oracle %v", what, got.ToParent, want.ToParent)
	}
	if !slices.IsSorted(got.ToParent) {
		t.Fatalf("%s: ToParent not ascending: %v", what, got.ToParent)
	}
	if !bytes.Equal(graphBytes(t, got.G), graphBytes(t, want.G)) {
		t.Fatalf("%s: projected graph differs from the oracle's (%d/%d nodes, %d/%d edges)", what,
			got.G.NumNodes(), want.G.NumNodes(), got.G.NumEdges(), want.G.NumEdges())
	}
	if got.G.Dict() != want.G.Dict() {
		t.Fatalf("%s: dictionary not shared with the parent", what)
	}
	if (got.G.NodeWeights() == nil) != (want.G.NodeWeights() == nil) {
		t.Fatalf("%s: node weights nil=%v, oracle nil=%v", what, got.G.NodeWeights() == nil, want.G.NodeWeights() == nil)
	}
	for lv, pv := range got.ToParent {
		if back, ok := got.FromParent(pv); !ok || int(back) != lv {
			t.Fatalf("%s: FromParent(%d) = %d,%v, want %d", what, pv, back, ok, lv)
		}
	}
}

// oracleGraph draws a graph that exercises what the two constructions
// could disagree on: parallel edges with different weights, node
// weights (on odd trials only, so the nil-when-all-zero case is hit),
// keywords with few carriers, and — when sparse — disconnected
// keywords, which empty V_c.
func oracleGraph(t testing.TB, rng *rand.Rand, trial int) (*graph.Graph, []string) {
	t.Helper()
	n := rng.Intn(60) + 4
	kws := []string{"k0", "k1", "k2", "k3", "k4"}
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		var terms []string
		for j, kw := range kws {
			if rng.Intn(3+2*j) == 0 {
				terms = append(terms, kw)
			}
		}
		id := b.AddNode(fmt.Sprintf("n%d", i), terms...)
		if trial%2 == 1 && rng.Intn(4) == 0 {
			b.SetNodeWeight(id, float64(rng.Intn(3)))
		}
	}
	m := n * (1 + rng.Intn(3))
	if trial%5 == 0 {
		m = n / 2 // sparse: keywords fall into different components
	}
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		b.AddEdge(u, v, float64(rng.Intn(5)+1))
		if rng.Intn(4) == 0 { // a parallel edge, lighter or heavier
			b.AddEdge(u, v, float64(rng.Intn(5)+1))
		}
	}
	g, err := b.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	return g, kws
}

// oracleQuery draws 1-5 keywords, sometimes repeating one and
// sometimes naming one nothing carries.
func oracleQuery(rng *rand.Rand, kws []string) []string {
	q := make([]string, rng.Intn(5)+1)
	for i := range q {
		q[i] = kws[rng.Intn(len(kws))]
	}
	if len(q) > 1 && rng.Intn(4) == 0 {
		q[len(q)-1] = q[0] // duplicate keyword
	}
	if rng.Intn(10) == 0 {
		q[rng.Intn(len(q))] = "absent"
	}
	return q
}

// TestProjectOracle: on random graphs the rewritten projection builds
// the very graph the map-based one did.
func TestProjectOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1906))
	empty, emptyVc, nonEmpty := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		g, kws := oracleGraph(t, rng, trial)
		R := float64(rng.Intn(8) + 2)
		ix, err := Build(g, BuildOptions{R: R})
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 4; q++ {
			query := oracleQuery(rng, kws)
			rmax := R
			if rng.Intn(2) == 0 {
				rmax = R * rng.Float64()
			}
			what := fmt.Sprintf("trial %d query %v rmax %v", trial, query, rmax)
			want, err := oracleProject(ix, query, rmax)
			if err != nil {
				t.Fatalf("%s: oracle: %v", what, err)
			}
			got, err := ix.Project(query, rmax)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			sameProjection(t, what, got.Sub, want)
			switch {
			case want.G.NumNodes() > 0:
				nonEmpty++
			case slices.Contains(query, "absent"):
				empty++
			default:
				emptyVc++
			}
		}
	}
	if empty == 0 || emptyVc == 0 || nonEmpty < 200 {
		t.Fatalf("generator lost coverage: %d missing-keyword, %d empty-V_c, %d non-empty projections", empty, emptyVc, nonEmpty)
	}
}

// oracleFixture is one mid-size graph with its index and a set of
// queries with the oracle's answers, for the pool tests.
func oracleFixture(t testing.TB) (*Index, [][]string, []*graph.Subgraph) {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	g, kws := randomKeywordGraph(t, rng, 400, 1400, 5)
	ix, err := Build(g, BuildOptions{R: 6})
	if err != nil {
		t.Fatal(err)
	}
	var queries [][]string
	var want []*graph.Subgraph
	for i := 0; i < 25; i++ {
		q := oracleQuery(rng, kws)
		sub, err := oracleProject(ix, q, 6)
		if err != nil {
			t.Fatal(err)
		}
		queries, want = append(queries, q), append(want, sub)
	}
	return ix, queries, want
}

// TestProjectConcurrent: projections sharing one Index (and so one
// scratch pool) never see each other's marks. Run under -race.
func TestProjectConcurrent(t *testing.T) {
	ix, queries, want := oracleFixture(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*31 + i) % len(queries)
				got, err := ix.Project(queries[k], 6)
				if err != nil {
					t.Errorf("worker %d query %v: %v", w, queries[k], err)
					return
				}
				if !slices.Equal(got.Sub.ToParent, want[k].ToParent) ||
					!bytes.Equal(graphBytes(t, got.Sub.G), graphBytes(t, want[k].G)) {
					t.Errorf("worker %d query %v: differs from the fresh-scratch result", w, queries[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestProjectScratchSurvivesAbort: a projection stopped by its budget
// returns the stop reason and leaves half-written marks behind; the
// next projections on the same pool are unaffected.
func TestProjectScratchSurvivesAbort(t *testing.T) {
	ix, queries, want := oracleFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for k, q := range queries {
		if slices.Contains(q, "absent") {
			continue // returns the empty projection before the first poll
		}
		_, err := ix.ProjectTrace(q, 6, govern.New(ctx, govern.Limits{}), nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query %v under a cancelled context: %v, want the stop reason", q, err)
		}
		got, err := ix.Project(queries[k], 6)
		if err != nil {
			t.Fatal(err)
		}
		sameProjection(t, fmt.Sprintf("query %v after an abort", q), got.Sub, want[k])
	}
}

// TestProjectScratchEpochWrap: when the epoch counter wraps, marks
// stamped 2^32 projections ago must not read as current.
func TestProjectScratchEpochWrap(t *testing.T) {
	ix, queries, want := oracleFixture(t)
	// Plant a scratch about to wrap whose every mark carries the stamp
	// the wrap lands on. sync.Pool may drop a Put (it does at random
	// under -race), so retry until the planted scratch comes back.
	planted := &projScratch{marks: make([]nodeMark, ix.g.NumNodes()), epoch: ^uint32(0)}
	var sc *projScratch
	for try := 0; sc != planted; try++ {
		if try == 1000 {
			t.Fatal("pool never returned the planted scratch")
		}
		for i := range planted.marks {
			planted.marks[i] = nodeMark{stamp: 1, seen: 3, carrier: true}
		}
		planted.epoch = ^uint32(0)
		ix.scratch.Put(planted)
		sc = ix.getScratch()
	}
	if sc.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", sc.epoch)
	}
	for v, m := range sc.marks {
		if m != (nodeMark{}) {
			t.Fatalf("mark of node %d survived the wrap: %+v", v, m)
		}
	}
	// And end to end: a projection whose checkout wraps is still right.
	for k, q := range queries {
		planted.epoch = ^uint32(0)
		for i := range planted.marks {
			planted.marks[i] = nodeMark{stamp: 1, seen: 3, carrier: true}
		}
		ix.scratch.Put(planted)
		got, err := ix.Project(q, 6)
		if err != nil {
			t.Fatal(err)
		}
		sameProjection(t, fmt.Sprintf("query %v across an epoch wrap", q), got.Sub, want[k])
	}
}

// TestProjectAllocs: what a projection allocates depends on what it
// projects, not on the size of the indexed graph. The same component is
// indexed alone and padded with a million isolated nodes; before the
// rewrite the padded projection allocated 8 MB more (two fromParent
// arrays of g.NumNodes()).
func TestProjectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a million-node graph")
	}
	build := func(pad int) *Index {
		rng := rand.New(rand.NewSource(5))
		b := graph.NewBuilder()
		const n = 3000
		for i := 0; i < n; i++ {
			var terms []string
			for _, kw := range []string{"k0", "k1"} {
				if rng.Intn(20) == 0 {
					terms = append(terms, kw)
				}
			}
			b.AddNode(fmt.Sprintf("n%d", i), terms...)
		}
		for i := 0; i < 3*n; i++ {
			b.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), float64(rng.Intn(3)+1))
		}
		for i := 0; i < pad; i++ {
			b.AddNode("")
		}
		g, err := b.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		ix, err := Build(g, BuildOptions{R: 5})
		if err != nil {
			t.Fatal(err)
		}
		return ix
	}
	// The cheapest of several projections: a projection that found the
	// pool empty (the GC emptied it, or -race's sync.Pool dropped the
	// Put) pays for a new scratch, and that is not what is measured.
	perProject := func(ix *Index) (uint64, int) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		best, nodes := ^uint64(0), 0
		var before, after runtime.MemStats
		for i := 0; i < 12; i++ {
			runtime.ReadMemStats(&before)
			proj, err := ix.Project([]string{"k0", "k1"}, 5)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			nodes = proj.Sub.G.NumNodes()
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best, nodes
	}
	plain, plainNodes := perProject(build(0))
	padded, paddedNodes := perProject(build(1_000_000))
	if plainNodes == 0 || plainNodes != paddedNodes {
		t.Fatalf("projections differ: %d vs %d nodes", plainNodes, paddedNodes)
	}
	t.Logf("bytes per Project: %d on 3k nodes, %d padded to 1M (%d-node projection)", plain, padded, plainNodes)
	if padded > 2*plain {
		t.Fatalf("a projection on the padded graph allocates %d bytes, %d unpadded: it grows with g.NumNodes()", padded, plain)
	}
}
