package kwcache

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"commdb/internal/artifact"
	"commdb/internal/fulltext"
	"commdb/internal/graph"
)

// Binary serialization of the artifact store, so hot-keyword neighbor
// sets survive restarts and can be prebuilt offline (cmd/indexbuild
// -kwcache-out). The format shares the v2 index format's framing
// (internal/artifact) and fail-closed discipline: a loader either
// reconstructs exactly the store that was written — validated
// structurally against the live graph — or returns an error wrapping
// ErrCorruptStore / ErrStoreMismatch, never a short-but-plausible
// store. Layout:
//
//	magic "CDBK"
//	header section:  version | radius bits | epoch | node count
//	                 | edge count | term count | CRC32-C of the section
//	terms section:   per term (sorted by term string): term | seed ids
//	                 (delta-coded, strictly increasing) | settle
//	                 sequence as (node, dist, src, via) tuples in settle
//	                 order | CRC32-C of the section
//	footer magic "KBDC", then EOF (trailing bytes are corruption)
//
// On load every entry passes a sanity gate against the live graph and
// fulltext: seed sets must equal the live keyword postings, every
// settled node's via hop must be a real edge whose weight reproduces
// the stored distance exactly, sources must propagate along via hops,
// and distances must be non-decreasing within the radius. An artifact
// built over a different data generation therefore fails closed even
// when its checksums are intact; the recorded epoch is operator-facing
// versioning, not the correctness gate.
const (
	storeMagic   = "CDBK"
	storeFooter  = "KBDC"
	storeVersion = 1
)

// ErrCorruptStore marks a serialized artifact store that failed
// validation: truncated or flipped bytes, checksum mismatches,
// out-of-bounds nodes, broken settle-order invariants, trailing
// garbage. Match with errors.Is. Corruption is permanent — retrying
// the load cannot help; rebuild the artifacts.
var ErrCorruptStore = errors.New("kwcache: corrupt artifact store")

// ErrStoreMismatch marks a structurally valid store built over a
// different graph generation than the one it is being attached to.
var ErrStoreMismatch = errors.New("kwcache: artifacts do not match graph")

// Write serializes the store to w. Terms are written in sorted order,
// which the loader enforces, so two stores with the same contents are
// byte-identical on disk.
func (s *Store) Write(w io.Writer) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	cw := artifact.NewWriter(w, storeMagic)
	cw.Uvarint(storeVersion)
	cw.Float(s.radius)
	cw.Varint(s.epoch)
	cw.Uvarint(uint64(s.g.NumNodes()))
	cw.Uvarint(uint64(s.g.NumEdges()))
	cw.Uvarint(uint64(len(s.terms)))
	cw.EndSection()

	terms := make([]string, 0, len(s.terms))
	for t := range s.terms {
		terms = append(terms, t)
	}
	sortStrings(terms)
	for _, t := range terms {
		e := s.terms[t]
		cw.Uvarint(uint64(len(t)))
		cw.Bytes([]byte(t))
		cw.Uvarint(uint64(len(e.seeds)))
		prev := int64(-1)
		for _, v := range e.seeds {
			cw.Uvarint(uint64(int64(v) - prev)) // strictly increasing: delta ≥ 1
			prev = int64(v)
		}
		cw.Uvarint(uint64(len(e.visited)))
		for i, v := range e.visited {
			cw.Uvarint(uint64(v))
			cw.Float(e.dist[i])
			cw.Uvarint(uint64(e.src[i]))
			cw.Uvarint(uint64(e.via[i]))
		}
	}
	cw.EndSection()
	return cw.Finish(storeFooter)
}

// ReadInto deserializes a store written by Write, attaching it to the
// live fulltext index (and through it, the graph). Loading is
// fail-closed: any truncation, checksum mismatch, bounds violation,
// settle-order violation, seed set differing from the live keyword
// postings, via hop that is not a live edge reproducing the stored
// distance, or trailing garbage returns an error wrapping
// ErrCorruptStore (or ErrStoreMismatch for wrong-generation artifacts)
// and no store. It never panics on hostile input.
func ReadInto(r io.Reader, ft *fulltext.Index) (*Store, error) {
	g := ft.Graph()
	cr, err := artifact.NewReader(r, storeMagic, "kwcache", ErrCorruptStore)
	if err != nil {
		return nil, err
	}
	ver, err := cr.Uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != storeVersion {
		return nil, cr.Corruptf("unsupported version %d (want %d; rebuild the artifacts)", ver, storeVersion)
	}
	radius, err := cr.Float("radius")
	if err != nil {
		return nil, err
	}
	if math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0 {
		return nil, cr.Corruptf("non-finite or negative radius %v", radius)
	}
	epoch, err := cr.Varint("epoch")
	if err != nil {
		return nil, err
	}
	nodes, err := cr.Uvarint("node count")
	if err != nil {
		return nil, err
	}
	if int(nodes) != g.NumNodes() {
		return nil, fmt.Errorf("%w: built over %d nodes, graph has %d",
			ErrStoreMismatch, nodes, g.NumNodes())
	}
	edges, err := cr.Uvarint("edge count")
	if err != nil {
		return nil, err
	}
	if int(edges) != g.NumEdges() {
		return nil, fmt.Errorf("%w: built over %d edges, graph has %d",
			ErrStoreMismatch, edges, g.NumEdges())
	}
	termCount, err := cr.Uvarint("term count")
	if err != nil {
		return nil, err
	}
	if err := cr.EndSection("header"); err != nil {
		return nil, err
	}

	s, err := New(ft, radius, epoch)
	if err != nil {
		return nil, err
	}
	n := int64(g.NumNodes())
	nw := g.NodeWeights()
	// Per-term settle bookkeeping, stamp-reused across terms: settled[v]
	// == stamp marks v settled in the current term, with its running
	// dist/src for the via-chain checks.
	settled := make([]int32, n)
	distOf := make([]float64, n)
	srcOf := make([]graph.NodeID, n)
	prevTerm := ""
	for t := uint64(0); t < termCount; t++ {
		stamp := int32(t) + 1
		tl, err := cr.Uvarint("term length")
		if err != nil {
			return nil, err
		}
		if tl > 1<<16 {
			return nil, cr.Corruptf("term %d length %d is implausible", t, tl)
		}
		tb := make([]byte, tl)
		if err := cr.Bytes(tb, "term"); err != nil {
			return nil, err
		}
		term := string(tb)
		if toks := fulltext.Tokenize(term); len(toks) != 1 || toks[0] != term {
			return nil, cr.Corruptf("term %d %q is not a normalized single term", t, term)
		}
		if t > 0 && term <= prevTerm {
			return nil, cr.Corruptf("term %q breaks sorted order after %q", term, prevTerm)
		}
		prevTerm = term

		seedCount, err := cr.Uvarint("seed count")
		if err != nil {
			return nil, err
		}
		if int64(seedCount) > n {
			return nil, cr.Corruptf("term %q claims %d seeds in a graph of %d nodes", term, seedCount, n)
		}
		seeds := make([]graph.NodeID, 0, seedCount)
		prev := int64(-1)
		for i := uint64(0); i < seedCount; i++ {
			d, err := cr.Uvarint("seed delta")
			if err != nil {
				return nil, err
			}
			v := prev + int64(d)
			if d == 0 || v >= n {
				return nil, cr.Corruptf("term %q seed %d (%d) out of bounds or order", term, i, v)
			}
			prev = v
			seeds = append(seeds, graph.NodeID(v))
		}
		// The live-postings gate: the artifact's seed set must be exactly
		// the keyword's current node set, or the artifact belongs to
		// another generation of the data.
		live := append([]graph.NodeID(nil), ft.Nodes(term)...)
		sortNodes(live)
		if !equalNodes(seeds, live) {
			return nil, fmt.Errorf("%w: term %q has %d stored seeds vs %d live keyword nodes (or differing ids)",
				ErrStoreMismatch, term, len(seeds), len(live))
		}

		visCount, err := cr.Uvarint("settle count")
		if err != nil {
			return nil, err
		}
		if int64(visCount) > n {
			return nil, cr.Corruptf("term %q settles %d nodes in a graph of %d", term, visCount, n)
		}
		e := &entry{
			seeds:   seeds,
			visited: make([]graph.NodeID, 0, visCount),
			dist:    make([]float64, 0, visCount),
			src:     make([]graph.NodeID, 0, visCount),
			via:     make([]graph.NodeID, 0, visCount),
		}
		prevDist := 0.0
		for i := uint64(0); i < visCount; i++ {
			v64, err := cr.Uvarint("settled node")
			if err != nil {
				return nil, err
			}
			d, err := cr.Float("settled distance")
			if err != nil {
				return nil, err
			}
			src64, err := cr.Uvarint("settled source")
			if err != nil {
				return nil, err
			}
			via64, err := cr.Uvarint("settled via")
			if err != nil {
				return nil, err
			}
			v, src, via := int64(v64), int64(src64), int64(via64)
			if v >= n || src >= n || via >= n {
				return nil, cr.Corruptf("term %q settle %d (%d,%d,%d) outside graph of %d nodes", term, i, v, src, via, n)
			}
			if settled[v] == stamp {
				return nil, cr.Corruptf("term %q settles node %d twice", term, v)
			}
			if math.IsNaN(d) || d < prevDist || d > radius {
				return nil, cr.Corruptf("term %q settle %d distance %v breaks order (prev %v, radius %v)",
					term, i, d, prevDist, radius)
			}
			prevDist = d
			if via == v {
				// A self-via is a seed settled at its seed distance (zero).
				if d != 0 || src != v || !containsNode(seeds, graph.NodeID(v)) {
					return nil, cr.Corruptf("term %q settle %d: node %d self-via but not a zero-distance seed", term, i, v)
				}
			} else {
				// The via chain gate: via must already be settled, the
				// original edge v→via must exist, and its weight (plus the
				// via node's weight, per the reverse-run convention) must
				// reproduce the stored distance exactly — a wrong-generation
				// graph fails here even with intact checksums.
				if settled[via] != stamp {
					return nil, cr.Corruptf("term %q settle %d: via %d not settled before %d", term, i, via, v)
				}
				w, ok := g.EdgeWeight(graph.NodeID(v), graph.NodeID(via))
				if !ok {
					return nil, fmt.Errorf("%w: term %q settle (%d→%d) is not an edge of the live graph",
						ErrStoreMismatch, term, v, via)
				}
				want := distOf[via] + w
				if nw != nil {
					want += nw[via]
				}
				if d != want {
					return nil, fmt.Errorf("%w: term %q node %d distance %v does not reproduce via %d (+%v = %v)",
						ErrStoreMismatch, term, v, d, via, w, want)
				}
				if graph.NodeID(src) != srcOf[via] {
					return nil, cr.Corruptf("term %q node %d source %d disagrees with via %d's source %d",
						term, v, src, via, srcOf[via])
				}
			}
			settled[v] = stamp
			distOf[v] = d
			srcOf[v] = graph.NodeID(src)
			e.visited = append(e.visited, graph.NodeID(v))
			e.dist = append(e.dist, d)
			e.src = append(e.src, graph.NodeID(src))
			e.via = append(e.via, graph.NodeID(via))
		}
		// Completeness: a live run settles every seed (distance zero is
		// always within a non-negative radius).
		for _, sd := range seeds {
			if settled[sd] != stamp {
				return nil, cr.Corruptf("term %q seed %d missing from its settle sequence", term, sd)
			}
		}
		s.terms[term] = e
	}
	if err := cr.EndSection("terms"); err != nil {
		return nil, err
	}
	if err := cr.Finish(storeFooter); err != nil {
		return nil, err
	}
	return s, nil
}

func sortStrings(s []string) { sort.Strings(s) }

func sortNodes(s []graph.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

func equalNodes(a, b []graph.NodeID) bool {
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

func containsNode(sorted []graph.NodeID, v graph.NodeID) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}
