package index

import (
	"fmt"
	"sort"

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

// Project runs Algorithm 6 for the given keywords and radius. rmax must
// not exceed the index's build radius R. When some keyword was not
// indexed the projection still works through invertedN alone (its edge
// list is simply what the other keywords contribute), so callers should
// index every term they expect in queries.
func (ix *Index) Project(keywords []string, rmax float64) (*Projection, error) {
	return ix.ProjectBudget(keywords, rmax, nil)
}

// ProjectBudget is Project under a governance budget: the posting
// gathers poll it and the two virtual-node passes charge it. A tripped
// budget aborts with the stop reason — a truncated projection would
// silently change query answers, so there is no partial projection.
func (ix *Index) ProjectBudget(keywords []string, rmax float64, bud *govern.Budget) (*Projection, error) {
	return ix.ProjectTrace(keywords, rmax, bud, nil)
}

// ProjectTrace is ProjectBudget under a query trace: the projection
// records a "project" span and the project_* counters (union size, kept
// vs. dropped nodes, kept edges), and its two virtual-node Dijkstra
// passes report their work. tr may be nil for an untraced projection.
func (ix *Index) ProjectTrace(keywords []string, rmax float64, bud *govern.Budget, tr *obs.Trace) (*Projection, error) {
	defer tr.StartSpan("project")()
	if rmax > ix.r {
		return nil, fmt.Errorf("index: Rmax %v exceeds index radius %v", rmax, ix.r)
	}
	if len(keywords) == 0 {
		return nil, core.ErrNoKeywords
	}
	g := ix.g

	// Per-keyword gather (Algorithm 6 lines 2-9): W_i from invertedN,
	// E_i from invertedE, V_i = W_i ∪ endpoints(E_i); running unions
	// W', E', V' and the candidate-center intersection V_c.
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
			// Missing keyword: no community can exist; project the
			// empty graph.
			return emptyProjection(g)
		}
		vi := map[graph.NodeID]struct{}{}
		for _, v := range wi {
			wSet[v] = struct{}{}
			vi[v] = struct{}{}
			nodeSet[v] = struct{}{}
		}
		// One poll per posting list: frequent terms carry edge lists in
		// the millions, the dominant cost of a projection.
		if err := bud.Poll(); err != nil {
			return nil, fmt.Errorf("index: projection aborted: %w", err)
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
		return emptyProjection(g)
	}

	// Materialize the union graph G'(V', E') to run the two virtual-
	// node passes on (lines 10-13).
	nodes := make([]graph.NodeID, 0, len(nodeSet))
	for v := range nodeSet {
		nodes = append(nodes, v)
	}
	sortNodeIDs(nodes)
	edges := make([]graph.EdgePair, 0, len(edgeSet))
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sortEdgePairs(edges)
	union, err := graph.Extract(g, nodes, edges)
	if err != nil {
		return nil, err
	}

	tr.Add("project_union_nodes", int64(len(nodes)))
	tr.Add("project_union_edges", int64(len(edges)))

	// Forward pass from the candidate centers (virtual s), reverse pass
	// from all keyword nodes (virtual t).
	ws := sssp.NewWorkspace(union.G)
	ws.SetBudget(bud)
	ws.SetTrace(tr)
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
	ws.RunFromNodes(sssp.Forward, centerSeeds, rmax, fwd)
	ws.RunFromNodes(sssp.Reverse, kwSeeds, rmax, rev)
	if err := bud.Err(); err != nil {
		return nil, fmt.Errorf("index: projection aborted: %w", err)
	}

	// Line 14-15: keep nodes on short center→keyword paths, and the
	// edges among them.
	keep := map[graph.NodeID]struct{}{}
	var vp []graph.NodeID
	for _, lv := range fwd.Visited() {
		ds, _ := fwd.Dist(lv)
		dt, ok := rev.Dist(lv)
		if ok && ds+dt <= rmax {
			pv := union.ToParent[lv]
			keep[pv] = struct{}{}
			vp = append(vp, pv)
		}
	}
	sortNodeIDs(vp)
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
	sub, err := graph.Extract(g, vp, ep)
	if err != nil {
		return nil, err
	}
	tr.Add("project_nodes_kept", int64(len(vp)))
	tr.Add("project_nodes_dropped", int64(len(nodes)-len(vp)))
	tr.Add("project_edges_kept", int64(len(ep)))
	return &Projection{Sub: sub, Ratio: ratio(len(vp), g.NumNodes())}, nil
}

func emptyProjection(g *graph.Graph) (*Projection, error) {
	sub, err := graph.Extract(g, nil, []graph.EdgePair{})
	if err != nil {
		return nil, err
	}
	return &Projection{Sub: sub, Ratio: 0}, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sortNodeIDs(a []graph.NodeID) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

func sortEdgePairs(a []graph.EdgePair) {
	sort.Slice(a, func(i, j int) bool {
		if a[i].From != a[j].From {
			return a[i].From < a[j].From
		}
		return a[i].To < a[j].To
	})
}
