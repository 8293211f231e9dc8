package graph

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRead hardens the binary graph reader: arbitrary input must yield
// a valid graph or an error wrapping ErrCorruptGraph (a bytes.Reader has
// no transient failures), never a panic or runaway allocation.
func FuzzRead(f *testing.F) {
	// Seed with a valid serialized graph and a few mutations.
	b := NewBuilder()
	u := b.AddNode("u", "kw")
	v := b.AddNode("v")
	b.AddEdge(u, v, 1.5)
	b.SetNodeWeight(v, 2)
	g, err := b.Freeze()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte("CDBG"))
	f.Add([]byte{})
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	mutated := append([]byte(nil), valid...)
	if len(mutated) > 8 {
		mutated[6] ^= 0xFF
	}
	f.Add(mutated)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Guard against absurd length prefixes turning into huge
		// allocations by bounding the input.
		if len(data) > 1<<16 {
			return
		}
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			if g != nil {
				t.Fatal("error AND partial graph returned")
			}
			if !errors.Is(err, ErrCorruptGraph) {
				t.Fatalf("error %v does not wrap ErrCorruptGraph", err)
			}
			return
		}
		// A successfully parsed graph must be internally consistent.
		if g.NumNodes() < 0 || g.NumEdges() < 0 {
			t.Fatal("negative sizes")
		}
		for v := 0; v < g.NumNodes(); v++ {
			for _, e := range g.OutEdges(NodeID(v)) {
				if e.To < 0 || int(e.To) >= g.NumNodes() {
					t.Fatalf("edge to %d outside graph", e.To)
				}
			}
		}
	})
}
