package index

import (
	"fmt"
	"slices"

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
	keep     []bool              // union-local: on a short s→t path
	vp       []graph.NodeID
	ep       []graph.EdgePair
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
			return emptyProjection(g), nil // missing keyword
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
		return emptyProjection(g), nil // no node is reached by every keyword
	}

	// The union graph G'(V', E') of lines 10-13, topology only.
	union, err := graph.ExtractTopology(g, nodes, edges)
	if err != nil {
		return nil, err
	}
	tr.Add(obs.ProjectUnionNodes, int64(len(nodes)))
	tr.Add(obs.ProjectUnionEdges, int64(len(edges)))

	// Reverse from all keyword nodes (virtual t), to the widened radius
	// RunToward prunes against, then forward from the candidate centers
	// (virtual s) toward it, as in core's Algorithm 4.
	ws := sssp.NewWorkspace(union.G)
	ws.SetBudget(bud)
	ws.SetTrace(tr)
	fwd := sssp.NewResult(len(nodes))
	rev := sssp.NewResult(len(nodes))
	ws.Run(sssp.Reverse, sc.carriers, sssp.Widen(rmax, len(nodes)), rev)
	ws.RunToward(sssp.Forward, sc.centers, rmax, fwd, rev)
	if err := bud.Err(); err != nil {
		return nil, fmt.Errorf("index: projection aborted: %w", err)
	}

	// Lines 14-15: keep nodes on short center→keyword paths and the
	// edges among them; the union CSR in local order is Extract's order.
	sc.keep = slices.Grow(sc.keep[:0], len(nodes))[:len(nodes)]
	clear(sc.keep)
	for _, lv := range fwd.Visited() {
		ds, _ := fwd.Dist(lv)
		dt, ok := rev.Dist(lv)
		sc.keep[lv] = ok && ds+dt <= rmax
	}
	sc.vp, sc.ep = sc.vp[:0], sc.ep[:0]
	for lu, u := range nodes {
		if !sc.keep[lu] {
			continue
		}
		sc.vp = append(sc.vp, u)
		for _, e := range union.G.OutEdges(graph.NodeID(lu)) {
			if sc.keep[e.To] {
				sc.ep = append(sc.ep, graph.EdgePair{From: u, To: nodes[e.To]})
			}
		}
	}
	sub, err := graph.Extract(g, sc.vp, sc.ep)
	if err != nil {
		return nil, err
	}
	tr.Add(obs.ProjectNodesKept, int64(len(sc.vp)))
	tr.Add(obs.ProjectNodesDropped, int64(len(nodes)-len(sc.vp)))
	tr.Add(obs.ProjectEdgesKept, int64(len(sc.ep)))
	return &Projection{Sub: sub, Ratio: float64(len(sc.vp)) / float64(g.NumNodes())}, nil
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

func emptyProjection(g *graph.Graph) *Projection {
	sub, _ := graph.Extract(g, nil, nil) // nothing listed, so nothing to reject
	return &Projection{Sub: sub}
}
