package graph

import (
	"fmt"
	"slices"
)

// Subgraph is a graph cut out of a parent graph together with the
// mapping between the two ID spaces. The term dictionary is shared with
// the parent, so interned keyword IDs remain valid.
type Subgraph struct {
	// G is the extracted graph with dense local IDs.
	G *Graph
	// ToParent maps a local node ID to its ID in the parent graph. It
	// is strictly ascending (a local ID is a rank), so sorted lists
	// stay sorted across the mapping in both directions.
	ToParent []NodeID
}

// FromParent translates a parent node ID to the local ID (false if the
// node is not in the subgraph) by binary search over ToParent.
func (s *Subgraph) FromParent(v NodeID) (NodeID, bool) {
	i, ok := slices.BinarySearch(s.ToParent, v)
	return NodeID(i), ok
}

// Induced extracts the subgraph of g induced by nodes: all listed nodes
// and every edge of g whose endpoints are both listed, parallel edges
// included. nodes must be strictly ascending.
func Induced(g *Graph, nodes []NodeID) (*Subgraph, error) {
	return extract(g, nodes, nil, true, true)
}

// Extract builds the subgraph of g containing exactly the given nodes
// and edges. nodes must be strictly ascending, edges strictly ascending
// by (From, To), every edge an edge of g (its weight is copied from g,
// the smallest of a group of parallel edges) with both endpoints
// listed; anything else is an error, never a repaired input. Sorted
// input makes this one pass with no sort and nothing sized to g: local
// IDs are ranks, so the edges arrive in forward CSR order.
func Extract(g *Graph, nodes []NodeID, edges []EdgePair) (*Subgraph, error) {
	return extract(g, nodes, edges, false, true)
}

// ExtractTopology is Extract without labels and terms (Label and Terms
// must not be called on the result): for a graph that exists only to
// run shortest paths on, like a projection's union graph.
func ExtractTopology(g *Graph, nodes []NodeID, edges []EdgePair) (*Subgraph, error) {
	return extract(g, nodes, edges, false, false)
}

func extract(g *Graph, nodes []NodeID, edges []EdgePair, induced, text bool) (*Subgraph, error) {
	n := len(nodes)
	sub := &Graph{outHead: make([]int32, n+1), dict: g.dict}
	s := &Subgraph{G: sub, ToParent: slices.Clone(nodes)}
	for i, v := range nodes {
		if v < 0 || int(v) >= g.NumNodes() {
			return nil, fmt.Errorf("graph: subgraph node %d outside parent", v)
		}
		if i > 0 && v <= nodes[i-1] {
			return nil, fmt.Errorf("graph: subgraph node %d listed after %d: nodes must be strictly ascending", v, nodes[i-1])
		}
		if wt := g.NodeWeight(v); wt != 0 {
			if sub.nodeWeight == nil { // stays nil when every weight is zero
				sub.nodeWeight = make([]float64, n)
			}
			sub.nodeWeight[i] = wt
		}
	}

	if induced { // forward CSR, in input order
		for lu, u := range nodes {
			for _, e := range g.OutEdges(u) {
				if lv, ok := s.FromParent(e.To); ok {
					sub.outEdge = append(sub.outEdge, Edge{To: lv, Weight: e.Weight})
				}
			}
			sub.outHead[lu+1] = int32(len(sub.outEdge))
		}
	} else {
		sub.outEdge = make([]Edge, len(edges))
		cur := g.EdgeCursor()
		lu := 0                         // rank of the current From; only moves forward
		p := EdgePair{From: -1, To: -1} // previous edge; sorts before every valid one
		for i, e := range edges {
			if e.From < p.From || (e.From == p.From && e.To <= p.To) {
				return nil, fmt.Errorf("graph: edge (%d,%d) listed after (%d,%d): edges must be strictly ascending by (From, To)",
					e.From, e.To, p.From, p.To)
			}
			p = e
			for lu < n && nodes[lu] < e.From {
				lu++
			}
			lv, ok := s.FromParent(e.To)
			if !ok || lu == n || nodes[lu] != e.From {
				return nil, fmt.Errorf("graph: edge (%d,%d) endpoint not in node list", e.From, e.To)
			}
			w, ok := cur.Weight(e.From, e.To)
			if !ok {
				return nil, fmt.Errorf("graph: edge (%d,%d) does not exist in parent", e.From, e.To)
			}
			sub.outEdge[i] = Edge{To: lv, Weight: w}
			sub.outHead[lu+1]++
		}
		for i := range nodes {
			sub.outHead[i+1] += sub.outHead[i]
		}
	}

	// Reverse CSR. Walking the forward lists in order hands each node
	// its in-edges already in (To, Weight) order. head[v+2] counts v's
	// in-edges, so after the prefix sum head[v+1] is where v's run
	// starts, and filling advances it to where v+1's does: head[:n+1]
	// ends up the finished inHead.
	head := make([]int32, n+2)
	for _, e := range sub.outEdge {
		head[e.To+2]++
	}
	for v := range nodes {
		head[v+2] += head[v+1]
	}
	sub.inEdge = make([]Edge, len(sub.outEdge))
	for u := range nodes {
		for _, e := range sub.OutEdges(NodeID(u)) {
			sub.inEdge[head[e.To+1]] = Edge{To: NodeID(u), Weight: e.Weight}
			head[e.To+1]++
		}
	}
	sub.inHead = head[:n+1]

	if text {
		sub.labels = make([]string, n)
		sub.termHead = make([]int32, n+1)
		for lv, v := range nodes {
			sub.labels[lv] = g.labels[v]
			sub.termHead[lv+1] = sub.termHead[lv] + int32(len(g.Terms(v)))
		}
		sub.termList = make([]int32, 0, sub.termHead[n])
		for _, v := range nodes {
			sub.termList = append(sub.termList, g.Terms(v)...)
		}
	}
	return s, nil
}
