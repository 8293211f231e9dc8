// Package prof is the resource-accounting and profiling layer: exact
// byte/cardinality footprints for the long-lived data structures
// (graph CSR, invertedN/invertedE postings, fulltext, result cache,
// snapshot epochs, delta maintainer) and named stage timers for the
// build and delta-apply pipelines.
//
// The accounting model is deliberate about what it counts:
//
//   - Footprints are *exact over the retained backing arrays*: a
//     []int32 of cap n is counted as 4n bytes plus the 24-byte slice
//     header. They are not process RSS — Go runtime overhead (spans,
//     GC metadata, stacks, allocator slack) is reported separately
//     from runtime.MemStats and never mixed into structure bytes.
//   - A composite Footprint's Bytes is always the sum of its Parts'
//     Bytes (enforced by Group and locked by tests), so drilling into
//     the tree never loses or double-counts a byte.
//   - Items is the structure's own cardinality (nodes, edges,
//     postings, cache entries) and is NOT summed across parts: a
//     graph's "items" is its node count, not nodes+edges.
package prof

import "fmt"

// Footprint is one node in a memory-accounting tree: a named
// structure (or part of one) with its exact retained byte size and
// element count. Composite footprints built with Group satisfy
// Bytes == sum of Parts' Bytes.
type Footprint struct {
	Name  string      `json:"name"`
	Bytes int64       `json:"bytes"`
	Items int64       `json:"items,omitempty"`
	Parts []Footprint `json:"parts,omitempty"`
}

// Group assembles a composite footprint whose Bytes is exactly the
// sum of its parts' Bytes. Items is left zero for the caller to set
// (cardinality does not sum meaningfully across heterogeneous parts).
func Group(name string, parts ...Footprint) Footprint {
	f := Footprint{Name: name, Parts: parts}
	for _, p := range parts {
		f.Bytes += p.Bytes
	}
	return f
}

// Find returns the first footprint named name in a depth-first walk
// of the tree rooted at f (including f itself).
func (f Footprint) Find(name string) (Footprint, bool) {
	if f.Name == name {
		return f, true
	}
	for _, p := range f.Parts {
		if m, ok := p.Find(name); ok {
			return m, true
		}
	}
	return Footprint{}, false
}

// SliceBytes is the exact retained size of a slice with the given
// capacity and element size: the backing array plus the 24-byte
// slice header (ptr, len, cap on 64-bit).
func SliceBytes(capacity, elemSize int) int64 {
	return int64(capacity)*int64(elemSize) + sliceHeaderBytes
}

const sliceHeaderBytes = 24

// StringBytes is the exact retained size of a string value: its byte
// content plus the 16-byte string header (ptr, len on 64-bit).
func StringBytes(s string) int64 { return int64(len(s)) + 16 }

// FormatBytes renders a byte count in human units (B, KiB, MiB, GiB)
// with one decimal, for CLI reports.
func FormatBytes(n int64) string {
	const (
		kib = 1 << 10
		mib = 1 << 20
		gib = 1 << 30
	)
	switch {
	case n >= gib:
		return fmt.Sprintf("%.1f GiB", float64(n)/gib)
	case n >= mib:
		return fmt.Sprintf("%.1f MiB", float64(n)/mib)
	case n >= kib:
		return fmt.Sprintf("%.1f KiB", float64(n)/kib)
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// WriteText renders the footprint tree as an indented CLI report:
//
//	searcher      12.3 MiB
//	  graph        4.1 MiB  (27431 items)
//	    out_edges  2.0 MiB  (131072 items)
//
// Used by graphinfo -mem and the commsearch REPL mem command.
func (f Footprint) WriteText(w interface{ WriteString(string) (int, error) }) {
	f.writeText(w, 0)
}

func (f Footprint) writeText(w interface{ WriteString(string) (int, error) }, depth int) {
	for i := 0; i < depth; i++ {
		w.WriteString("  ")
	}
	line := fmt.Sprintf("%-24s %10s", f.Name, FormatBytes(f.Bytes))
	if f.Items > 0 {
		line += fmt.Sprintf("  (%d items)", f.Items)
	}
	w.WriteString(line + "\n")
	for _, p := range f.Parts {
		p.writeText(w, depth+1)
	}
}
