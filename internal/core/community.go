// Package core implements the paper's primary contribution: finding
// multi-center communities for l-keyword queries over a database graph.
//
// A community (Definition 2.1) is the induced subgraph determined by a
// core — one keyword node per query keyword — together with every
// center node that reaches all core nodes within Rmax and every path
// node lying on a short enough center→keyword path. The package
// provides the paper's three subproblems (Neighbor, BestCore,
// GetCommunity), the polynomial-delay COMM-all enumerator (Algorithm 1)
// and the COMM-k top-k enumerator (Algorithm 5) with interactive k
// enlargement.
package core

import (
	"fmt"
	"sort"
	"strings"

	"commdb/internal/graph"
)

// Core is the identity of a community: Core[i] is the keyword node
// ("knode") chosen for the i-th query keyword. Two communities are
// duplicates exactly when their cores are position-wise equal.
type Core []graph.NodeID

// Equal reports position-wise equality.
func (c Core) Equal(o Core) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of the core.
func (c Core) Clone() Core { return append(Core(nil), c...) }

// Key renders the core as a compact unique string, used as a map key by
// the expanding baselines' duplication pool and by tests.
func (c Core) Key() string {
	var b strings.Builder
	for i, v := range c {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}

// String renders the core for human consumption.
func (c Core) String() string { return "[" + c.Key() + "]" }

// Community is a fully materialized result (Definition 2.1): the
// multi-center induced subgraph determined by Core.
type Community struct {
	// Core identifies the community; Core[i] contains keyword i.
	Core Core
	// Cost is the minimum over all centers of the total shortest-path
	// weight from the center to every core node (Section II).
	Cost float64
	// Knodes are the distinct keyword nodes (the set view of Core).
	Knodes []graph.NodeID
	// Cnodes are the centers: nodes within Rmax of every core node.
	Cnodes []graph.NodeID
	// Pnodes are the path nodes: on some center→knode path of length
	// at most Rmax, and neither knodes nor cnodes themselves.
	Pnodes []graph.NodeID
	// Nodes is the sorted union Knodes ∪ Cnodes ∪ Pnodes.
	Nodes []graph.NodeID
	// Edges are the edges of the subgraph induced by Nodes.
	Edges []graph.EdgePair
}

// HasNode reports whether v belongs to the community, by binary search
// over the sorted node list.
func (r *Community) HasNode(v graph.NodeID) bool {
	i := sort.Search(len(r.Nodes), func(i int) bool { return r.Nodes[i] >= v })
	return i < len(r.Nodes) && r.Nodes[i] == v
}

// Bytes estimates the logical memory footprint of the materialized
// community, used by the benchmark harness's memory accounting.
func (r *Community) Bytes() int64 {
	return int64(len(r.Core)+len(r.Knodes)+len(r.Cnodes)+len(r.Pnodes)+len(r.Nodes))*4 +
		int64(len(r.Edges))*8 + 64
}

// CoreCost holds a core with its cost, the unit of enumeration when
// communities are not materialized.
type CoreCost struct {
	Core Core
	Cost float64
}
