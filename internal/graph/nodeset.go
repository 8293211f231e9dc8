package graph

import "math/bits"

// NodeSet is a set of a graph's nodes, one bit per node, so a graph of
// a million nodes takes 128 KB: small enough to stay in cache while a
// shortest-path pass tests every relaxation against it. After Seal it
// also answers each member's rank (its position in the ascending
// member list) in O(1), which is how a subgraph's local IDs are found
// without a search per edge.
//
// The zero value is an empty set over no nodes; Reset sizes it. A
// NodeSet is reusable: Reset keeps the storage.
type NodeSet struct {
	words []uint64
	// base[w] is the rank of the first member in word w, as of Seal.
	base []int32
}

// Reset empties the set and sizes it for a graph of n nodes. It clears
// n/64 words, so a set reused across queries costs 1/64 of a node
// scan per use, however many members it held.
func (s *NodeSet) Reset(n int) {
	w := (n + 63) / 64
	if cap(s.words) < w {
		s.words = make([]uint64, w)
		s.base = make([]int32, w)
		return
	}
	s.words = s.words[:w]
	s.base = s.base[:w]
	clear(s.words)
}

// Add inserts v.
func (s *NodeSet) Add(v NodeID) { s.words[v>>6] |= 1 << (uint(v) & 63) }

// Seal fixes the members' ranks for Rank and returns their number.
// Adding members afterwards invalidates the ranks.
func (s *NodeSet) Seal() int {
	rank := int32(0)
	for wi, w := range s.words {
		s.base[wi] = rank
		rank += int32(bits.OnesCount64(w))
	}
	return int(rank)
}

// AppendMembers appends the members to dst in ascending order.
func (s *NodeSet) AppendMembers(dst []NodeID) []NodeID {
	for wi, w := range s.words {
		for w != 0 {
			dst = append(dst, NodeID(wi<<6|bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Rank returns v's position in the ascending member list and whether v
// is a member. Valid after Seal.
func (s *NodeSet) Rank(v NodeID) (NodeID, bool) {
	w := s.words[v>>6]
	bit := uint64(1) << (uint(v) & 63)
	if w&bit == 0 {
		return 0, false
	}
	return NodeID(s.base[v>>6]) + NodeID(bits.OnesCount64(w&(bit-1))), true
}
