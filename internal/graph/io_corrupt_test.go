package graph_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"commdb/internal/core"
	"commdb/internal/graph"
)

// paperFile serializes the paper's Fig. 4 graph.
func paperFile(t testing.TB) []byte {
	t.Helper()
	g, _ := core.PaperGraph()
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsFlippedBit: one flipped bit inside a label or an edge
// weight must fail the load. Without section checksums both files load
// — as a different graph, which the index load gate then validates
// postings against.
func TestReadRejectsFlippedBit(t *testing.T) {
	data := paperFile(t)
	label := bytes.Index(data, []byte("v13"))
	weight := bytes.Index(data, []byte{0, 0, 0, 0, 0, 0, 0x1c, 0x40}) // 7.0, the weight of v8→v13
	if label < 0 || weight < 0 {
		t.Fatalf("label at %d, weight at %d: the paper graph file changed shape", label, weight)
	}
	for name, off := range map[string]int{"label byte": label + 2, "edge-weight byte": weight + 5} {
		b := append([]byte{}, data...)
		b[off] ^= 0x01
		if _, err := graph.Read(bytes.NewReader(b)); !errors.Is(err, graph.ErrCorruptGraph) {
			t.Errorf("%s flipped at offset %d: Read returned %v, want ErrCorruptGraph", name, off, err)
		}
	}
	// And so must every other single-bit flip in the file.
	for i := range data {
		for bit := 0; bit < 8; bit++ {
			b := append([]byte{}, data...)
			b[i] ^= 1 << bit
			if _, err := graph.Read(bytes.NewReader(b)); !errors.Is(err, graph.ErrCorruptGraph) {
				t.Fatalf("bit %d of byte %d flipped: Read returned %v, want ErrCorruptGraph", bit, i, err)
			}
		}
	}
}

// TestReadTruncateEveryPrefix: every proper prefix of a valid file is a
// corrupt graph, never a shorter graph and never a panic.
func TestReadTruncateEveryPrefix(t *testing.T) {
	data := paperFile(t)
	for n := 0; n < len(data); n++ {
		g, err := graph.Read(bytes.NewReader(data[:n]))
		if g != nil || !errors.Is(err, graph.ErrCorruptGraph) {
			t.Fatalf("prefix %d/%d: graph=%v err=%v, want ErrCorruptGraph", n, len(data), g != nil, err)
		}
	}
}

// failingReader fails with a non-EOF error after n good bytes.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// TestReadErrClassification: each named way a graph file can be wrong
// fails closed under ErrCorruptGraph (permanent for the file), while a
// device error passes through unwrapped so callers may retry.
func TestReadErrClassification(t *testing.T) {
	data := paperFile(t)
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte{}, data...)) }
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("not a graph at all")},
		{"magic only", []byte("CDBG")},
		{"v2 file", append([]byte("CDBG\x02"), data[5:]...)},
		{"truncated in the header", data[:6]},
		{"truncated in the body", data[:len(data)/2]},
		{"footer missing", data[:len(data)-4]},
		{"bad footer", mutate(func(b []byte) []byte { b[len(b)-1] ^= 0x20; return b })},
		{"trailing garbage", append(append([]byte{}, data...), 0)},
		{"flipped checksum", mutate(func(b []byte) []byte { b[len(b)-5] ^= 0x01; return b })},
		{"overlong varint", []byte("CDBG\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01")},
	} {
		g, err := graph.Read(bytes.NewReader(tc.data))
		if g != nil || !errors.Is(err, graph.ErrCorruptGraph) {
			t.Errorf("%s: graph=%v err=%v, want ErrCorruptGraph", tc.name, g != nil, err)
		}
	}

	device := errors.New("device on fire")
	_, err := graph.Read(&failingReader{data: data[:len(data)/2], err: device})
	if !errors.Is(err, device) || errors.Is(err, graph.ErrCorruptGraph) {
		t.Fatalf("device error mid-read: got %v, want it passed through unclassified", err)
	}
	if _, err := graph.Read(&failingReader{data: data, err: io.EOF}); err != nil {
		t.Fatalf("intact file: %v", err)
	}
}
