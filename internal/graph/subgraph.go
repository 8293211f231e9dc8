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
	if err := checkNodes(g, nodes); err != nil {
		return nil, err
	}
	var set NodeSet
	set.Reset(g.NumNodes())
	for _, v := range nodes {
		set.Add(v)
	}
	set.Seal()
	return InducedOn(g, g, nil, nodes, &set), nil
}

// InducedOn is the subgraph of h induced by nodes, with every edge of h
// among them (parallel edges included), cut out as a subgraph of g: h's
// node v stands for g's node toParent[v] (a nil toParent means h is g),
// whose ID, node weight, label and terms the subgraph takes. nodes must
// be exactly set's members as set.Seal listed them, ascending and
// strictly increasing under toParent. It is one pass over the listed
// nodes' out-edges, each head's local ID a Rank of set, and nothing is
// validated: callers build nodes and set together.
func InducedOn(g, h *Graph, toParent, nodes []NodeID, set *NodeSet) *Subgraph {
	n := len(nodes)
	sub := &Graph{outHead: make([]int32, n+1), dict: g.dict}
	s := &Subgraph{G: sub, ToParent: slices.Clone(nodes)}
	if toParent != nil {
		for lv, v := range nodes {
			s.ToParent[lv] = toParent[v]
		}
	}
	for lu, u := range nodes {
		for _, e := range h.OutEdges(u) {
			if lv, ok := set.Rank(e.To); ok {
				sub.outEdge = append(sub.outEdge, Edge{To: lv, Weight: e.Weight})
			}
		}
		sub.outHead[lu+1] = int32(len(sub.outEdge))
	}
	s.finish(g, true)
	return s
}

// Extract builds the subgraph of g containing exactly the given nodes
// and edges. nodes must be strictly ascending, edges strictly ascending
// by (From, To), every edge an edge of g (its weight is copied from g,
// the smallest of a group of parallel edges) with both endpoints
// listed; anything else is an error, never a repaired input. Sorted
// input makes this one pass with no sort and nothing sized to g: local
// IDs are ranks, so the edges arrive in forward CSR order.
func Extract(g *Graph, nodes []NodeID, edges []EdgePair) (*Subgraph, error) {
	return extract(g, nodes, edges, true)
}

// ExtractTopology is Extract without labels and terms (Label and Terms
// must not be called on the result): for a graph that exists only to
// run shortest paths on, like a projection's union graph.
func ExtractTopology(g *Graph, nodes []NodeID, edges []EdgePair) (*Subgraph, error) {
	return extract(g, nodes, edges, false)
}

// FromInEdges is the topology-only subgraph of g on nodes (strictly
// ascending) with the given in-edges: local node i's are
// in[head[i]:head[i+1]], each Edge.To the local ID of its source, in the
// (To, Weight) order adjacency lists keep. As with ExtractTopology,
// Label and Terms must not be called on the result. Nothing is
// validated; the caller's slices are not retained.
func FromInEdges(g *Graph, nodes []NodeID, head []int32, in []Edge) *Subgraph {
	n := len(nodes)
	sub := &Graph{outHead: make([]int32, n+1), dict: g.dict}
	s := &Subgraph{G: sub, ToParent: slices.Clone(nodes)}
	// Forward CSR by counting sort on the source. Walking the heads in
	// ascending order keeps each source's list in (To, Weight) order.
	for _, e := range in {
		sub.outHead[e.To+1]++
	}
	for u := range nodes {
		sub.outHead[u+1] += sub.outHead[u]
	}
	next := slices.Clone(sub.outHead[:n])
	sub.outEdge = make([]Edge, len(in))
	for v := range nodes {
		for _, e := range in[head[v]:head[v+1]] {
			sub.outEdge[next[e.To]] = Edge{To: NodeID(v), Weight: e.Weight}
			next[e.To]++
		}
	}
	s.finish(g, false)
	return s
}

// checkNodes validates a subgraph's node list: in g, strictly ascending.
func checkNodes(g *Graph, nodes []NodeID) error {
	for i, v := range nodes {
		if v < 0 || int(v) >= g.NumNodes() {
			return fmt.Errorf("graph: subgraph node %d outside parent", v)
		}
		if i > 0 && v <= nodes[i-1] {
			return fmt.Errorf("graph: subgraph node %d listed after %d: nodes must be strictly ascending", v, nodes[i-1])
		}
	}
	return nil
}

func extract(g *Graph, nodes []NodeID, edges []EdgePair, text bool) (*Subgraph, error) {
	if err := checkNodes(g, nodes); err != nil {
		return nil, err
	}
	n := len(nodes)
	sub := &Graph{outHead: make([]int32, n+1), dict: g.dict}
	s := &Subgraph{G: sub, ToParent: slices.Clone(nodes)}
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
	s.finish(g, text)
	return s, nil
}

// finish completes a subgraph whose ToParent and forward CSR are set:
// node weights, the reverse CSR and, with text, labels and terms, all
// taken from the parent g.
func (s *Subgraph) finish(g *Graph, text bool) {
	sub, nodes := s.G, s.ToParent
	n := len(nodes)
	for i, v := range nodes {
		if wt := g.NodeWeight(v); wt != 0 {
			if sub.nodeWeight == nil { // stays nil when every weight is zero
				sub.nodeWeight = make([]float64, n)
			}
			sub.nodeWeight[i] = wt
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
}

// AppendInducedEdges appends to dst the edges of g from u to the
// members of nodes (ascending), parallel edges included, in the order
// OutEdges(u) lists them: the edges Induced(g, nodes) keeps at u. The
// two sorted lists are intersected by galloping, so a hub of degree d
// meeting k nodes costs O(k·log d), and a short list meeting many
// nodes O(d·log k), never a search per edge.
func AppendInducedEdges(dst []EdgePair, g *Graph, u NodeID, nodes []NodeID) []EdgePair {
	out := g.OutEdges(u)
	i, j := 0, 0
	for i < len(out) && j < len(nodes) {
		switch to, v := out[i].To, nodes[j]; {
		case to < v:
			i += gallop(len(out)-i, func(k int) bool { return out[i+k].To >= v })
		case to > v:
			j += gallop(len(nodes)-j, func(k int) bool { return nodes[j+k] >= to })
		default:
			dst = append(dst, EdgePair{From: u, To: to})
			i++
		}
	}
	return dst
}

// gallop returns the least k in [1, n] with ge(k) true, or n when there
// is none; ge must be monotone and ge(0) false. It probes 1, 2, 4, …
// and then binary-searches the last doubling, so the cost is logarithmic
// in the answer, not in n.
func gallop(n int, ge func(k int) bool) int {
	lo, hi := 0, 1 // ge(lo) false
	for hi < n && !ge(hi) {
		lo, hi = hi, 2*hi
	}
	hi = min(hi, n)
	for lo+1 < hi { // ge(lo) false; ge(hi) true, or hi == n
		m := (lo + hi) / 2
		if ge(m) {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}
