package index

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"commdb/internal/artifact"
	"commdb/internal/fulltext"
	"commdb/internal/graph"
)

// Binary serialization of the inverted edge index so the expensive
// build (one bounded shortest-path pass per distinct term — the 355s
// the paper reports for DBLP) is paid once. invertedN is not stored: it
// is reconstructed from the graph in a single scan on load.
//
// Format v2 is fail-closed: a loader either reconstructs exactly the
// index that was written or returns an error wrapping ErrCorruptIndex
// — never a short-but-plausible index. Layout (internal/artifact's
// checksummed section framing):
//
//	magic "CDBX"
//	header section:  version | R bits | term count | node count
//	                 | CRC32-C of the section
//	postings section: per term, posting count then (from, to, weight)
//	                 triples sorted by (from, to), from delta-coded;
//	                 the weight is the graph's (postings hold none)
//	                 | CRC32-C of the section
//	footer magic "XBDC", then EOF (trailing bytes are corruption)
//
// On load every posting passes a sanity gate against the live graph:
// endpoints in bounds, (from, to) strictly increasing within a term,
// and the edge present in the graph with the exact stored weight — so
// an index from the wrong graph generation is rejected even when its
// checksums are intact. v1 files (no checksums) are rejected; rebuild
// them with cmd/indexbuild.
const (
	idxMagic   = "CDBX"
	idxFooter  = "XBDC"
	idxVersion = 2
)

// ErrCorruptIndex marks a serialized index that failed validation:
// truncated or flipped bytes, checksum mismatches, out-of-bounds or
// non-monotonic postings, trailing garbage. Loading such an artifact
// never yields a partial index; match with errors.Is. Corruption is a
// permanent property of the artifact — retrying the load cannot help.
var ErrCorruptIndex = errors.New("index: corrupt index artifact")

// ErrIndexMismatch marks a structurally valid index that was built
// over a different graph than the one it is being attached to. Like
// corruption it is permanent for the (artifact, graph) pair.
var ErrIndexMismatch = errors.New("index: index does not match graph")

// Write serializes the index's invertedE and radius to w. The graph
// itself is serialized separately (graph.Write); ReadInto checks that
// the two match. Postings are written in the sorted (From, To) order
// Build produces, which the loader verifies as a monotonicity gate.
// Each posting's weight comes from the graph through a
// graph.EdgeCursor: the minimum weight of a group of parallel edges, the
// only one shortest paths use and the one the load gate re-derives.
func (ix *Index) Write(w io.Writer) error {
	cw := artifact.NewWriter(w, idxMagic)
	cw.Uvarint(idxVersion)
	cw.Float(ix.r)
	cw.Uvarint(uint64(len(ix.edges)))
	cw.Uvarint(uint64(ix.g.NumNodes()))
	cw.EndSection()
	for _, posts := range ix.edges {
		cw.Uvarint(uint64(len(posts)))
		prevFrom := int64(0)
		cur := ix.g.EdgeCursor()
		for _, e := range posts {
			wt, ok := cur.Weight(e.From, e.To)
			if !ok {
				return fmt.Errorf("index: posting (%d,%d) is not an edge of the indexed graph", e.From, e.To)
			}
			cw.Varint(int64(e.From) - prevFrom)
			prevFrom = int64(e.From)
			cw.Uvarint(uint64(e.To))
			cw.Float(wt)
		}
	}
	cw.EndSection()
	return cw.Finish(idxFooter)
}

// ReadInto deserializes an index written by Write, attaching it to the
// graph it was built from. Loading is fail-closed: any truncation,
// checksum mismatch, bounds violation, non-monotonic posting list,
// posting absent from g, or trailing garbage returns an error wrapping
// ErrCorruptIndex (or ErrIndexMismatch for a wrong-graph artifact) and
// no index. It never panics on hostile input.
func ReadInto(r io.Reader, g *graph.Graph) (*Index, error) {
	start := time.Now()
	cr, err := artifact.NewReader(r, idxMagic, "index", ErrCorruptIndex)
	if err != nil {
		return nil, err
	}
	ver, err := cr.Uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != idxVersion {
		return nil, cr.Corruptf("unsupported version %d (want %d; rebuild with cmd/indexbuild)", ver, idxVersion)
	}
	radius, err := cr.Float("radius")
	if err != nil {
		return nil, err
	}
	if math.IsNaN(radius) || math.IsInf(radius, 0) || radius < 0 {
		return nil, cr.Corruptf("non-finite or negative radius %v", radius)
	}
	terms, err := cr.Uvarint("term count")
	if err != nil {
		return nil, err
	}
	if int(terms) != g.Dict().Size() {
		return nil, fmt.Errorf("%w: built over %d terms, graph has %d",
			ErrIndexMismatch, terms, g.Dict().Size())
	}
	nodes, err := cr.Uvarint("node count")
	if err != nil {
		return nil, err
	}
	if int(nodes) != g.NumNodes() {
		return nil, fmt.Errorf("%w: built over %d nodes, graph has %d",
			ErrIndexMismatch, nodes, g.NumNodes())
	}
	if err := cr.EndSection("header"); err != nil {
		return nil, err
	}

	ix := &Index{
		g:     g,
		r:     radius,
		nodes: fulltext.Build(g),
		edges: make([][]graph.EdgePair, terms),
	}
	n := int64(g.NumNodes())
	for t := uint64(0); t < terms; t++ {
		cnt, err := cr.Uvarint("posting count")
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			continue
		}
		capHint := int(cnt)
		if capHint > 1<<16 {
			capHint = 1 << 16
		}
		posts := make([]graph.EdgePair, 0, capHint)
		prevFrom, prevTo := int64(0), int64(-1)
		cur := g.EdgeCursor()
		for i := uint64(0); i < cnt; i++ {
			df, err := cr.Varint("posting delta")
			if err != nil {
				return nil, err
			}
			from := prevFrom + df
			to64, err := cr.Uvarint("posting target")
			if err != nil {
				return nil, err
			}
			to := int64(to64)
			wt, err := cr.Float("posting weight")
			if err != nil {
				return nil, err
			}
			if from < 0 || from >= n || to < 0 || to >= n {
				return nil, cr.Corruptf("term %d posting (%d,%d) outside graph of %d nodes", t, from, to, n)
			}
			// Monotonicity: Build sorts each term's postings strictly by
			// (From, To), so any other order means corrupted deltas.
			if i > 0 && (from < prevFrom || (from == prevFrom && to <= prevTo)) {
				return nil, cr.Corruptf("term %d posting %d (%d,%d) breaks (from,to) order after (%d,%d)",
					t, i, from, to, prevFrom, prevTo)
			}
			prevFrom, prevTo = from, to
			// The live-graph gate: the posting must be a real edge with
			// the exact weight the build saw, or the artifact belongs to
			// another generation of the data (the order check above is
			// what lets one forward cursor do the lookups).
			if w, ok := cur.Weight(graph.NodeID(from), graph.NodeID(to)); !ok || w != wt {
				return nil, fmt.Errorf("%w: term %d posting (%d,%d,%v) is not an edge of the live graph",
					ErrIndexMismatch, t, from, to, wt)
			}
			posts = append(posts, graph.EdgePair{From: graph.NodeID(from), To: graph.NodeID(to)})
		}
		ix.edges[t] = posts
	}
	if err := cr.EndSection("postings"); err != nil {
		return nil, err
	}
	if err := cr.Finish(idxFooter); err != nil {
		return nil, err
	}
	ix.buildTime = time.Since(start) // load time stands in for build time
	return ix, nil
}
