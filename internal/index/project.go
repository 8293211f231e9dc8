package index

import (
	"fmt"
	"slices"
	"sync"

	"commdb/internal/core"
	"commdb/internal/fulltext"
	"commdb/internal/govern"
	"commdb/internal/graph"
	"commdb/internal/obs"
	"commdb/internal/sssp"
)

// Projection is the result of Algorithm 6: a small subgraph G_P of the
// database graph that answers one l-keyword query exactly, plus the
// node mapping back into G_D.
type Projection struct {
	// Sub is the projected graph with the parent mapping.
	Sub *graph.Subgraph
	// Ratio is |V(G_P)| / |V(G_D)|, the search-space reduction the
	// paper reports (max 1.2% / avg 0.4% on DBLP).
	Ratio float64
}

// Project runs Algorithm 6 for the given keywords and radius; rmax must
// not exceed the build radius R. A keyword no node carries projects the
// empty graph. The cost is linear in the posting lists merged plus two
// bounded Dijkstra passes over their union, never in the database graph.
func (ix *Index) Project(keywords []string, rmax float64) (*Projection, error) {
	return ix.ProjectTrace(keywords, rmax, nil, nil)
}

// nodeMark is one node's state in one projection, valid only while
// stamp equals the scratch's epoch (the sssp.Workspace trick), so a
// projection pays only for the nodes its postings name.
type nodeMark struct {
	stamp uint32
	// seen counts the leading keywords that all reach the node: keyword
	// i raises it from i to i+1 only, so a node some keyword missed
	// stays below l, and seen == l is membership in V_c.
	seen    int32
	carrier bool // in W': carries some keyword
}

// projScratch is a projection's working memory, recycled through
// Index.scratch. It is transient, not part of the index: Footprint does
// not count it and the GC may drop it.
type projScratch struct {
	marks    []nodeMark          // dense over the indexed graph
	epoch    uint32              // marks stamped otherwise are stale
	nodes    []graph.NodeID      // V': first-touch order, then sorted
	merged   [2][]graph.EdgePair // E' as it grows, alternating
	centers  []sssp.Seed         // V_c, union-local
	carriers []sssp.Seed         // W', union-local
	tail     sssp.Tail           // union-local
	keep     keepScratch         // union-local
}

// getScratch checks a scratch out of the pool under a fresh epoch.
func (ix *Index) getScratch() *projScratch {
	sc, _ := ix.scratch.Get().(*projScratch)
	if sc == nil {
		sc = &projScratch{marks: make([]nodeMark, ix.g.NumNodes())}
	}
	sc.epoch++
	if sc.epoch == 0 { // wrapped: wipe, or 2^32-projections-old stamps match
		clear(sc.marks)
		sc.epoch = 1
	}
	sc.nodes = sc.nodes[:0]
	return sc
}

// touch records that keyword i reaches v and returns v's mark.
func (sc *projScratch) touch(v graph.NodeID, i int32) *nodeMark {
	m := &sc.marks[v]
	if m.stamp != sc.epoch {
		*m = nodeMark{stamp: sc.epoch}
		sc.nodes = append(sc.nodes, v)
	}
	if m.seen == i {
		m.seen = i + 1
	}
	return m
}

// ProjectTrace is Project under a governance budget and a query trace;
// either may be nil. The gathers poll the budget and the two Dijkstra
// passes charge it; a tripped budget aborts with the stop reason (a
// truncated projection would silently change answers, so there is no
// partial one). The trace gets a "project" span, the project_* counters
// and the two passes' work reports.
func (ix *Index) ProjectTrace(keywords []string, rmax float64, bud *govern.Budget, tr *obs.Trace) (*Projection, error) {
	defer tr.StartSpan("project")()
	if rmax > ix.r {
		return nil, fmt.Errorf("index: Rmax %v exceeds index radius %v", rmax, ix.r)
	}
	if len(keywords) == 0 {
		return nil, core.ErrNoKeywords
	}
	g := ix.g
	sc := ix.getScratch()
	defer ix.scratch.Put(sc)

	// Gather (Algorithm 6 lines 2-9), one pass per keyword: W_i from
	// invertedN, E_i from invertedE, V_i = W_i ∪ endpoints(E_i). The
	// marks accumulate V', W' and V_c; E' is the running merge of the
	// E_i, which Build stores (From, To)-sorted.
	var edges []graph.EdgePair
	for i, kw := range keywords {
		terms := fulltext.Tokenize(kw)
		if len(terms) != 1 {
			return nil, fmt.Errorf("index: keyword %q does not tokenize to a single term", kw)
		}
		wi := ix.nodes.Nodes(terms[0])
		if len(wi) == 0 {
			return Empty(g), nil // missing keyword
		}
		for _, v := range wi {
			sc.touch(v, int32(i)).carrier = true
		}
		// One poll per posting list: they run to millions of edges.
		if err := bud.Poll(); err != nil {
			return nil, fmt.Errorf("index: projection aborted: %w", err)
		}
		post := ix.EdgePostings(terms[0])
		from := graph.NodeID(-1)
		for _, e := range post {
			if e.From != from {
				from = e.From
				sc.touch(from, int32(i))
			}
			sc.touch(e.To, int32(i))
		}
		sc.merged[i&1] = mergePostings(sc.merged[i&1], edges, post)
		edges = sc.merged[i&1]
	}

	// A union-local ID is the node's rank in sorted V'.
	nodes := sc.nodes
	slices.Sort(nodes)
	sc.centers, sc.carriers = sc.centers[:0], sc.carriers[:0]
	for lv, v := range nodes {
		m := sc.marks[v]
		if int(m.seen) == len(keywords) {
			sc.centers = append(sc.centers, sssp.Seed{Node: graph.NodeID(lv)})
		}
		if m.carrier {
			sc.carriers = append(sc.carriers, sssp.Seed{Node: graph.NodeID(lv)})
		}
	}
	if len(sc.centers) == 0 {
		return Empty(g), nil // no node is reached by every keyword
	}

	// The union graph G'(V', E') of lines 10-13, topology only.
	union, err := graph.ExtractTopology(g, nodes, edges)
	if err != nil {
		return nil, err
	}
	tr.Add(obs.ProjectUnionNodes, int64(len(nodes)))
	tr.Add(obs.ProjectUnionEdges, int64(len(edges)))

	// Reverse from all keyword nodes (virtual t), to the radius narrow's
	// forward pass prunes against; narrow runs that pass from the
	// candidate centers (virtual s) toward it, as in core's Algorithm 4.
	ws := sssp.NewWorkspace(union.G)
	ws.SetBudget(bud)
	ws.SetTrace(tr)
	rev := sssp.NewResult(len(nodes))
	ws.Run(sssp.Reverse, sc.carriers, TailRadius(rmax, len(nodes)), rev)
	sc.tail.Reset(len(nodes), rev)
	sub, err := narrow(g, union, sc.centers, &sc.tail, rmax, ws, sssp.NewResult(len(nodes)), &sc.keep, bud)
	if err != nil {
		return nil, err
	}
	kept := sub.G.NumNodes()
	tr.Add(obs.ProjectNodesKept, int64(kept))
	tr.Add(obs.ProjectNodesDropped, int64(len(nodes)-kept))
	tr.Add(obs.ProjectEdgesKept, int64(sub.G.NumEdges()))
	return &Projection{Sub: sub, Ratio: float64(kept) / float64(g.NumNodes())}, nil
}

// keepScratch is narrow's working memory, sized to the graph it
// narrows: the kept set and its ascending member list.
type keepScratch struct {
	set   graph.NodeSet
	nodes []graph.NodeID
}

// TailRadius is the radius narrow needs the keyword-side runs of a
// projection over a graph of n nodes to go to: the keep radius
// sssp.Widen(rmax, n), widened once more for RunToward's pruning.
func TailRadius(rmax float64, n int) float64 {
	return sssp.Widen(sssp.Widen(rmax, n), n)
}

// narrow is Algorithm 6's lines 14-15, the step every projection
// shares, on union: the union graph G' of the keywords' balls, read off
// the postings on the indexed path and off the full-set runs on the
// plain one; h is union.G, and the centers and tail are in its IDs. The
// forward pass runs from the candidate centers toward tail (runs in the
// other direction from the keyword nodes, to TailRadius(rmax, |h|)); a
// node is kept when ds + dt ≤ Widen(rmax, |h|), and G_P is the kept
// nodes with every edge of h among them, cut out of g in the one pass
// that tests the edges. The keep test is widened because ds is summed
// from the center end and the engine's distances from the keyword end:
// a node on a center's path at exactly Rmax can be an ulp past it
// summed the other way (DESIGN.md, Algorithm 6). ws is bound to h and
// carries bud; a tripped budget aborts with the stop reason, since a
// truncated pass would silently drop answers.
func narrow(g *graph.Graph, union *graph.Subgraph, centers []sssp.Seed, tail *sssp.Tail, rmax float64,
	ws *sssp.Workspace, fwd *sssp.Result, sc *keepScratch, bud *govern.Budget) (*graph.Subgraph, error) {
	h := union.G
	keep := sssp.Widen(rmax, h.NumNodes())
	ws.RunToward(sssp.Forward, centers, keep, fwd, tail)
	if err := bud.Err(); err != nil {
		return nil, fmt.Errorf("index: projection aborted: %w", err)
	}
	sc.set.Reset(h.NumNodes())
	for _, v := range fwd.Visited() {
		ds, _ := fwd.Dist(v)
		if dt, ok := tail.Dist(v); ok && ds+dt <= keep {
			sc.set.Add(v)
		}
	}
	sc.set.Seal()
	sc.nodes = sc.set.AppendMembers(sc.nodes[:0])
	return graph.InducedOn(g, h, union.ToParent, sc.nodes, &sc.set), nil
}

// setScratch is ProjectSets' working memory, recycled through
// setScratches: the keyword sets' tail over the searched graph (192 KB
// per million nodes with its rank table) and the union graph's pieces.
type setScratch struct {
	tail    sssp.Tail // the keyword sets together, over g
	local   sssp.Tail // the same, over the union graph
	keep    keepScratch
	centers []sssp.Seed // union-local
	members []graph.NodeID
	head    []int32
	in      []graph.Edge
}

var setScratches = sync.Pool{New: func() any { return new(setScratch) }}

// ProjectSets is Section VI's projection without an index, the plain
// query's. sets[i] is keyword i's full-set run Neighbor(V_i) on g, to
// radius TailRadius(rmax, g.NumNodes()), as the engine computes it
// (kwcache serves it the same way). It builds from them what the
// indexed path reads off its postings, the union graph G' of the l
// balls: every node a set settled, and every in-edge u → v of such a
// node that the reverse runs relax within the radius, dt(v) + w (plus
// v's node weight) ≤ radius, where dt is the least of v's l distances.
// The candidate centers V_c are the nodes every set settles within
// rmax, and narrow runs on G' toward the sets' least distances, as the
// indexed path runs on its own union graph. Every node and edge on a
// path of length ≤ rmax from a center to a keyword node lies in G', so
// G_P answers exactly as g does (DESIGN.md, Algorithm 6).
//
// A tripped budget aborts with the stop reason. The trace gets the
// project_* counters; the caller opens the "project" span, which covers
// the set runs too.
func ProjectSets(g *graph.Graph, sets []*sssp.Result, rmax float64, pool *sssp.Pool, bud *govern.Budget, tr *obs.Trace) (*Projection, error) {
	if err := bud.Poll(); err != nil {
		return nil, fmt.Errorf("index: projection aborted: %w", err)
	}
	if len(sets) == 0 {
		return Empty(g), nil
	}
	sc := setScratches.Get().(*setScratch)
	defer setScratches.Put(sc)

	sc.tail.Reset(g.NumNodes(), sets...)
	small := sets[0]
	for _, r := range sets {
		if r.Len() < small.Len() {
			small = r
		}
	}
	sc.centers = sc.centers[:0]
	for _, v := range small.Visited() { // settle order: nearest first
		if d, _ := small.Dist(v); d > rmax {
			break
		}
		all := true
		for _, r := range sets {
			if d, ok := r.Dist(v); !ok || d > rmax {
				all = false
				break
			}
		}
		if all {
			lv, _ := sc.tail.Rank(v)
			sc.centers = append(sc.centers, sssp.Seed{Node: lv})
		}
	}
	if len(sc.centers) == 0 {
		return Empty(g), nil
	}

	// The union graph G': a union-local ID is the node's rank in the
	// tail, so the local tail is the same distances by rank.
	radius := TailRadius(rmax, g.NumNodes())
	sc.tail.Compact(&sc.local)
	sc.members = sc.tail.AppendMembers(sc.members[:0])
	sc.head, sc.in = append(sc.head[:0], 0), sc.in[:0]
	nw := g.NodeWeights()
	for lv, v := range sc.members {
		dt, _ := sc.local.Dist(graph.NodeID(lv))
		for _, e := range g.InEdges(v) {
			nd := dt + e.Weight // as the reverse run relaxes it
			if nw != nil {
				nd += nw[v]
			}
			if nd > radius {
				continue
			}
			if lu, ok := sc.tail.Rank(e.To); ok {
				sc.in = append(sc.in, graph.Edge{To: lu, Weight: e.Weight})
			}
		}
		sc.head = append(sc.head, int32(len(sc.in)))
	}
	union := graph.FromInEdges(g, sc.members, sc.head, sc.in)
	tr.Add(obs.ProjectUnionNodes, int64(len(sc.members)))
	tr.Add(obs.ProjectUnionEdges, int64(len(sc.in)))

	ws := pool.Get(union.G)
	ws.SetBudget(bud)
	ws.SetTrace(tr)
	sub, err := narrow(g, union, sc.centers, &sc.local, rmax, ws, sssp.NewResult(len(sc.members)), &sc.keep, bud)
	pool.Put(ws)
	if err != nil {
		return nil, err
	}
	kept := sub.G.NumNodes()
	tr.Add(obs.ProjectNodesKept, int64(kept))
	tr.Add(obs.ProjectNodesDropped, int64(len(sc.members)-kept))
	tr.Add(obs.ProjectEdgesKept, int64(sub.G.NumEdges()))
	return &Projection{Sub: sub, Ratio: float64(kept) / float64(g.NumNodes())}, nil
}

// mergePostings merges two (From, To)-sorted posting lists into dst's
// storage (reallocated, exactly, when too small), dropping the
// duplicates of postings both lists hold. dst must not alias a or b.
func mergePostings(dst, a, b []graph.EdgePair) []graph.EdgePair {
	if cap(dst) < len(a)+len(b) {
		dst = make([]graph.EdgePair, 0, len(a)+len(b))
	}
	dst = dst[:0]
	for len(a) > 0 && len(b) > 0 {
		ka, kb := postingKey(a[0]), postingKey(b[0])
		if ka > kb {
			dst, b = append(dst, b[0]), b[1:]
			continue
		}
		if ka == kb {
			b = b[1:]
		}
		dst, a = append(dst, a[0]), a[1:]
	}
	return append(append(dst, a...), b...)
}

// Empty is the projection of a query nothing answers: no nodes.
func Empty(g *graph.Graph) *Projection {
	sub, _ := graph.Extract(g, nil, nil) // nothing listed, so nothing to reject
	return &Projection{Sub: sub}
}
