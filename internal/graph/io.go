package graph

import (
	"errors"
	"io"
	"math"

	"commdb/internal/artifact"
)

// Binary serialization of graphs, on internal/artifact's checksummed
// section framing (the index file's):
//
//	magic "CDBG"
//	header section:  version | n | m | node-weight flag [| n weights]
//	strings section: dictionary size, words, then the n labels
//	terms section:   per node, term count then term ids
//	edges section:   per node, out-degree then (delta-coded to, weight)
//	footer magic "GBDC", then EOF
//
// Every section ends in its CRC32-C, so a flipped byte anywhere — in a
// label, a weight — fails the load with ErrCorruptGraph instead of
// loading as a different graph. Counts and IDs are varints; weights are
// IEEE-754 bits. v2 files (no checksums) are rejected; regenerate them
// with cmd/datagen.
const (
	ioMagic   = "CDBG"
	ioFooter  = "GBDC"
	ioVersion = 3
)

// ErrCorruptGraph marks a serialized graph that failed validation:
// truncated or flipped bytes, checksum mismatches, out-of-range ids,
// trailing garbage, an older format version. It is permanent for the
// file — reading the same bytes again cannot succeed; match with
// errors.Is. Other I/O failures pass through unwrapped.
var ErrCorruptGraph = errors.New("graph: corrupt graph file")

// Write serializes g to w.
func Write(w io.Writer, g *Graph) error {
	cw := artifact.NewWriter(w, ioMagic)
	n := g.NumNodes()
	cw.Uvarint(ioVersion)
	cw.Uvarint(uint64(n))
	cw.Uvarint(uint64(g.NumEdges()))
	if g.nodeWeight == nil {
		cw.Uvarint(0)
	} else {
		cw.Uvarint(1)
		for _, wt := range g.nodeWeight {
			cw.Float(wt)
		}
	}
	cw.EndSection()

	cw.Uvarint(uint64(g.dict.Size()))
	for _, word := range g.dict.words {
		putString(cw, word)
	}
	for _, l := range g.labels {
		putString(cw, l)
	}
	cw.EndSection()

	for v := 0; v < n; v++ {
		ts := g.Terms(NodeID(v))
		cw.Uvarint(uint64(len(ts)))
		for _, t := range ts {
			cw.Uvarint(uint64(t))
		}
	}
	cw.EndSection()

	for v := 0; v < n; v++ {
		es := g.OutEdges(NodeID(v))
		cw.Uvarint(uint64(len(es)))
		prev := int64(0)
		for _, e := range es {
			// Destinations are sorted ascending, so deltas are >= 0
			// (0 between parallel edges).
			cw.Uvarint(uint64(int64(e.To) - prev))
			prev = int64(e.To)
			cw.Float(e.Weight)
		}
	}
	cw.EndSection()
	return cw.Finish(ioFooter)
}

// Read deserializes a graph written by Write. Loading is fail-closed:
// truncation, a checksum mismatch, an out-of-range id or count, or
// trailing bytes return an error wrapping ErrCorruptGraph and no graph.
// It never panics on hostile input.
func Read(r io.Reader) (*Graph, error) {
	cr, err := artifact.NewReader(r, ioMagic, "graph", ErrCorruptGraph)
	if err != nil {
		return nil, err
	}
	ver, err := cr.Uvarint("version")
	if err != nil {
		return nil, err
	}
	if ver != ioVersion {
		return nil, cr.Corruptf("unsupported format version %d (want %d; regenerate with cmd/datagen)", ver, ioVersion)
	}
	n64, err := cr.Uvarint("node count")
	if err != nil {
		return nil, err
	}
	m64, err := cr.Uvarint("edge count")
	if err != nil {
		return nil, err
	}
	if n64 > math.MaxInt32 || m64 > 1<<40 { // node ids are int32
		return nil, cr.Corruptf("implausible sizes n=%d m=%d", n64, m64)
	}
	n, m := int(n64), int(m64)
	hasWeights, err := cr.Uvarint("node-weight flag")
	if err != nil {
		return nil, err
	}
	if hasWeights > 1 {
		return nil, cr.Corruptf("node-weight flag %d", hasWeights)
	}
	// Counts come from untrusted input: never pre-allocate by claimed
	// size (a hostile header would OOM the reader); grow with the bytes
	// actually present.
	var nodeWeights []float64
	if hasWeights == 1 {
		nodeWeights = make([]float64, 0, clampCap(n))
		for i := 0; i < n; i++ {
			wt, err := cr.Float("node weight")
			if err != nil {
				return nil, err
			}
			nodeWeights = append(nodeWeights, wt)
		}
	}
	if err := cr.EndSection("header"); err != nil {
		return nil, err
	}

	dict := NewDict()
	dn, err := cr.Uvarint("dictionary size")
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < dn; i++ {
		w, err := getString(cr, "dictionary word")
		if err != nil {
			return nil, err
		}
		dict.Intern(w)
	}
	b := NewBuilderWithDict(dict)
	labels := make([]string, 0, clampCap(n))
	for i := 0; i < n; i++ {
		l, err := getString(cr, "label")
		if err != nil {
			return nil, err
		}
		labels = append(labels, l)
	}
	if err := cr.EndSection("strings"); err != nil {
		return nil, err
	}

	for i := 0; i < n; i++ {
		tn, err := cr.Uvarint("term count")
		if err != nil {
			return nil, err
		}
		ts := make([]int32, 0, clampCap(int(tn)))
		for j := uint64(0); j < tn; j++ {
			t, err := cr.Uvarint("term id")
			if err != nil {
				return nil, err
			}
			if t >= uint64(dict.Size()) {
				return nil, cr.Corruptf("term id %d outside dictionary", t)
			}
			ts = append(ts, int32(t))
		}
		b.AddNodeTermIDs(labels[i], ts)
	}
	if err := cr.EndSection("terms"); err != nil {
		return nil, err
	}

	total := 0
	for v := 0; v < n; v++ {
		en, err := cr.Uvarint("out-degree")
		if err != nil {
			return nil, err
		}
		prev := uint64(0)
		for j := uint64(0); j < en; j++ {
			delta, err := cr.Uvarint("edge target")
			if err != nil {
				return nil, err
			}
			if delta >= n64 || prev+delta >= n64 {
				return nil, cr.Corruptf("edge (%d,%d+%d) outside graph of %d nodes", v, prev, delta, n)
			}
			prev += delta
			w, err := cr.Float("edge weight")
			if err != nil {
				return nil, err
			}
			b.AddEdge(NodeID(v), NodeID(prev), w)
			total++
		}
	}
	if total != m {
		return nil, cr.Corruptf("header says %d edges, body has %d", m, total)
	}
	if err := cr.EndSection("edges"); err != nil {
		return nil, err
	}
	if err := cr.Finish(ioFooter); err != nil {
		return nil, err
	}
	for i, wt := range nodeWeights {
		if wt != 0 {
			b.SetNodeWeight(NodeID(i), wt)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		return nil, cr.Corruptf("%v", err)
	}
	return g, nil
}

func putString(w *artifact.Writer, s string) {
	w.Uvarint(uint64(len(s)))
	w.Bytes([]byte(s))
}

// maxStringLen bounds any serialized string (labels, dictionary words);
// longer length prefixes indicate corruption.
const maxStringLen = 1 << 24

func getString(r *artifact.Reader, what string) (string, error) {
	n, err := r.Uvarint(what + " length")
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", r.Corruptf("%s length %d exceeds limit", what, n)
	}
	buf := make([]byte, n)
	if err := r.Bytes(buf, what); err != nil {
		return "", err
	}
	return string(buf), nil
}

// clampCap bounds an untrusted count used only as an allocation hint.
func clampCap(n int) int {
	const limit = 1 << 16
	if n < 0 {
		return 0
	}
	if n > limit {
		return limit
	}
	return n
}
