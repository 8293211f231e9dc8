// Package graph implements the weighted directed database graph G_D of
// the paper: nodes are tuples of a relational database, edges are
// foreign-key references, and every node carries the terms (keywords)
// extracted from its tuple's text attributes.
//
// Graphs are immutable once frozen from a Builder. Adjacency is stored
// in compressed sparse row (CSR) form in both directions, so forward
// Dijkstra (source expansion) and reverse Dijkstra (the paper's
// virtual-sink trick in Neighbor and GetCommunity) are both cache
// friendly and allocation free.
package graph

import (
	"cmp"
	"slices"
	"sync"

	"commdb/internal/prof"
)

// NodeID identifies a node within a Graph. IDs are dense, starting at 0.
type NodeID = int32

// Edge is one adjacency entry: the neighbouring node and the weight of
// the connecting directed edge. In the forward lists To is the head of
// the edge; in the reverse lists To is the tail.
type Edge struct {
	To     NodeID
	Weight float64
}

// EdgePair names a directed edge of a graph by its endpoints.
type EdgePair struct {
	From NodeID
	To   NodeID
}

// Graph is an immutable weighted directed graph with per-node labels
// and term lists. Create graphs with a Builder.
type Graph struct {
	outHead []int32
	outEdge []Edge
	inHead  []int32
	inEdge  []Edge

	labels []string
	// termHead/termList store each node's interned term IDs in CSR form.
	termHead []int32
	termList []int32
	dict     *Dict

	// nodeWeight is nil when every node weighs zero (the paper's
	// default; footnote 1 notes node weights as a supported extension).
	nodeWeight []float64

	// foot caches the exact accounting tree; graphs are immutable so
	// it is computed once and scrapes stay cheap.
	footOnce sync.Once
	foot     prof.Footprint
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.outHead) - 1 }

// NumEdges reports the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.outEdge) }

// OutEdges returns the edges leaving v. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) OutEdges(v NodeID) []Edge {
	return g.outEdge[g.outHead[v]:g.outHead[v+1]]
}

// InEdges returns the edges entering v; each entry's To field holds the
// tail (source) of the incoming edge. The returned slice aliases the
// graph's storage and must not be modified.
func (g *Graph) InEdges(v NodeID) []Edge {
	return g.inEdge[g.inHead[v]:g.inHead[v+1]]
}

// OutDegree reports the number of edges leaving v.
func (g *Graph) OutDegree(v NodeID) int { return int(g.outHead[v+1] - g.outHead[v]) }

// InDegree reports the number of edges entering v.
func (g *Graph) InDegree(v NodeID) int { return int(g.inHead[v+1] - g.inHead[v]) }

// Label returns the display label of v (for tuples, typically
// "Table:PrimaryKey" or the tuple's human-readable text).
func (g *Graph) Label(v NodeID) string { return g.labels[v] }

// Terms returns the interned term IDs of v. The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Terms(v NodeID) []int32 {
	return g.termList[g.termHead[v]:g.termHead[v+1]]
}

// HasTerm reports whether node v contains the interned term id.
func (g *Graph) HasTerm(v NodeID, term int32) bool {
	for _, t := range g.Terms(v) {
		if t == term {
			return true
		}
	}
	return false
}

// Dict returns the term dictionary shared by all nodes of the graph.
func (g *Graph) Dict() *Dict { return g.dict }

// NodeWeight returns the weight of node v (zero unless the builder set
// one). Path costs count the node weights of every node on a path
// except the path's source.
func (g *Graph) NodeWeight(v NodeID) float64 {
	if g.nodeWeight == nil {
		return 0
	}
	return g.nodeWeight[v]
}

// NodeWeights exposes the raw node weight slice (nil when all zero);
// shortest-path code uses it to avoid per-node method calls.
func (g *Graph) NodeWeights() []float64 { return g.nodeWeight }

// EdgeWeight returns the weight of the directed edge (u,v) and whether
// such an edge exists. If parallel edges exist, the smallest weight is
// returned.
func (g *Graph) EdgeWeight(u, v NodeID) (float64, bool) {
	c := g.EdgeCursor()
	return c.Weight(u, v)
}

// EdgeCursor resolves a (From, To)-ascending sequence of edge names to
// the weights EdgeWeight would return, in one forward walk over
// OutEdges(From) per run of equal From: for readers of sorted edge lists.
type EdgeCursor struct {
	g    *Graph
	from NodeID
	adj  []Edge // what is left of OutEdges(from)
}

// EdgeCursor returns a cursor positioned before every edge of g.
func (g *Graph) EdgeCursor() EdgeCursor { return EdgeCursor{g: g, from: -1} }

// Weight is EdgeWeight(from, to) for the next edge of the sequence; an
// edge named out of order is reported absent. Adjacency is sorted by
// (To, Weight), so the first entry reaching to is the lightest of its
// parallel group.
func (c *EdgeCursor) Weight(from, to NodeID) (float64, bool) {
	if from != c.from {
		c.from, c.adj = from, c.g.OutEdges(from)
	}
	if len(c.adj) > 0 && c.adj[0].To < to {
		c.adj = c.adj[1:] // the usual step: off the entry the last call matched
		if len(c.adj) > 0 && c.adj[0].To < to {
			i, _ := slices.BinarySearchFunc(c.adj, to, func(e Edge, to NodeID) int { return cmp.Compare(e.To, to) })
			c.adj = c.adj[i:]
		}
	}
	if len(c.adj) == 0 || c.adj[0].To != to {
		return 0, false
	}
	return c.adj[0].Weight, true
}

// Bytes reports the exact retained memory of the graph structure in
// bytes (adjacency, terms, labels, dictionary). It is the root total
// of Footprint.
func (g *Graph) Bytes() int64 { return g.Footprint().Bytes }
