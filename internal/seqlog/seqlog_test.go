package seqlog

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sealed frames objs as a log numbered from first.
func sealed(first int64, objs ...string) []byte {
	var b bytes.Buffer
	for i, o := range objs {
		b.Write(Seal([]byte(o), first+int64(i)))
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// TestSealOpen: a sealed line is one JSON object ending in the frame,
// Open returns exactly what Seal was given — also when the payload
// itself carries fields named like the frame's — and every single-byte
// corruption of the line is detected.
func TestSealOpen(t *testing.T) {
	for _, obj := range []string{
		`{"op":"insert","table":"T","values":[1,"x"]}`,
		`{"keywords":["evil,\"crc\":123","b,\"seq\":9"]}`,
		`{"a":1,"seq":5,"crc":7}`,
	} {
		line := Seal([]byte(obj), 17)
		if !bytes.HasPrefix(line, []byte(obj[:len(obj)-1])) || !bytes.Contains(line, []byte(`,"seq":17,"crc":`)) {
			t.Fatalf("sealed line %s does not extend %s with the frame", line, obj)
		}
		got, seq, err := Open(line)
		if err != nil || seq != 17 || string(got) != obj {
			t.Fatalf("Open(%s) = %s, %d, %v; want %s, 17", line, got, seq, err, obj)
		}
		for i := range line {
			for _, bit := range []byte{0x01, 0x20} {
				mut := append([]byte(nil), line...)
				mut[i] ^= bit
				if got, seq, err := Open(mut); err == nil {
					t.Fatalf("byte %d ^ %#x opened cleanly as %s seq %d", i, bit, got, seq)
				}
			}
		}
	}
	for _, bad := range []string{``, `{}`, `{"a":1}`, `{"a":1,"crc":5}`, `{"a":1,"seq":0,"crc":5}`, `{"a":1,"seq":1,"crc":x}`} {
		if _, _, err := Open([]byte(bad)); err == nil {
			t.Errorf("Open(%q) accepted a line without a valid frame", bad)
		}
	}
}

// FuzzOpen: Open never panics on arbitrary bytes; Seal then Open is the
// identity on any non-empty JSON object and sequence number ≥ 1; and a
// sealed line with any single byte changed is rejected.
func FuzzOpen(f *testing.F) {
	f.Add([]byte(`{"op":"insert","table":"T","values":[1,"x"]}`), int64(17), uint(3), byte(0x01))
	f.Add([]byte(`{"keywords":["evil,\"crc\":123","b,\"seq\":9"]}`), int64(1), uint(40), byte(0x20))
	f.Add([]byte(`{"a":1,"seq":5,"crc":7}`), int64(9223372036854775807), uint(1<<20), byte(0xff))
	f.Add([]byte(`{"a":1,"seq":1,"crc":3}`), int64(0), uint(0), byte(0))
	f.Add([]byte(` { "spaced" : [ 1 , 2 ] } `), int64(2), uint(5), byte(0x10))
	f.Add([]byte(`{}`), int64(3), uint(1), byte(0x02))
	f.Fuzz(func(t *testing.T, data []byte, seq int64, pos uint, flip byte) {
		Open(data) // must not panic

		var obj bytes.Buffer
		if seq < 1 || json.Compact(&obj, data) != nil || obj.Len() < 2 || obj.Bytes()[0] != '{' || obj.String() == "{}" {
			return
		}
		line := Seal(obj.Bytes(), seq)
		got, gotSeq, err := Open(line)
		if err != nil || gotSeq != seq || !bytes.Equal(got, obj.Bytes()) {
			t.Fatalf("Open(Seal(%s, %d)) = %s, %d, %v", obj.Bytes(), seq, got, gotSeq, err)
		}
		if flip == 0 {
			return
		}
		i := int(pos % uint(len(line)))
		line[i] ^= flip
		if got, gotSeq, err := Open(line); err == nil {
			t.Fatalf("byte %d ^ %#x of %s opened cleanly as %s seq %d", i, flip, obj.Bytes(), got, gotSeq)
		}
	})
}

// TestScanRule: a torn unterminated tail is dropped silently; a complete
// line that fails its checksum, or whose sequence number does not
// follow its predecessor's, is an error naming the line.
func TestScanRule(t *testing.T) {
	log := sealed(5, `{"n":0}`, `{"n":1}`, `{"n":2}`, `{"n":3}`)
	lines := bytes.SplitAfter(log, []byte("\n"))
	join := func(ls ...[]byte) []byte { return bytes.Join(ls, nil) }
	flipped := append([]byte(nil), log...)
	flipped[len(lines[0])+len(lines[1])+5] ^= 0x01 // the digit in line 3's payload

	for _, tc := range []struct {
		name    string
		in      []byte
		last    int64
		want    int    // objects delivered
		wantSeq int64  // sequence number returned
		errHas  string // "" = no error
	}{
		{"intact, start unknown", log, 0, 4, 8, ""},
		{"intact, continues 4", log, 4, 4, 8, ""},
		{"empty", nil, 3, 0, 3, ""},
		{"torn tail dropped", log[:len(log)-4], 0, 3, 7, ""},
		{"only a torn line", lines[0][:10], 0, 0, 0, ""},
		{"does not continue 9", log, 9, 0, 9, "line 1: seqlog: sequence 5 does not follow 9"},
		{"dropped middle line", join(lines[0], lines[1], lines[3]), 0, 2, 6, "line 3: seqlog: sequence 8 does not follow 6"},
		{"repeated line", join(lines[0], lines[0]), 0, 1, 5, "line 2: seqlog: sequence 5 does not follow 5"},
		{"flipped payload byte", flipped, 0, 2, 6, "line 3: seqlog: crc mismatch"},
		{"blank line", join(lines[0], []byte("\n"), lines[1]), 0, 1, 5, "line 2: seqlog: line has no crc field"},
		{"unframed line", []byte(`{"n":0}` + "\n"), 0, 0, 0, "line 1: seqlog: line has no crc field"},
	} {
		n := 0
		seq, span, err := Scan(bytes.NewReader(tc.in), tc.last, func(obj []byte, seq int64) error {
			if want := `{"n":` + string(rune('0'+seq-5)) + `}`; string(obj) != want {
				t.Errorf("%s: object %s at seq %d, want %s", tc.name, obj, seq, want)
			}
			n++
			return nil
		})
		if n != tc.want || seq != tc.wantSeq || span != int64(len(join(lines[:n]...))) {
			t.Errorf("%s: %d objects spanning %d bytes through seq %d, want %d through %d", tc.name, n, span, seq, tc.want, tc.wantSeq)
		}
		if (err == nil) != (tc.errHas == "") || (err != nil && !strings.Contains(err.Error(), tc.errHas)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.errHas)
		}
	}
}

// TestResume: reopening a log for appending truncates a torn final line
// and continues from the last complete line's sequence number; a file
// whose last complete line does not verify is refused, not appended to.
func TestResume(t *testing.T) {
	log := sealed(1, `{"n":0}`, `{"n":1}`, `{"n":2}`)
	for _, tc := range []struct {
		name     string
		content  []byte
		wantSeq  int64
		wantSize int
	}{
		{"empty", nil, 0, 0},
		{"intact", log, 3, len(log)},
		{"torn tail", append(append([]byte(nil), log...), `{"n":3,"se`...), 3, len(log)},
		{"only a torn line", []byte(`{"n":0,"se`), 0, 0},
		{"frameless lines", []byte("{\"n\":0}\n{\"n\":1}\n"), -1, 16},
		{"damaged last line", bytes.Replace(log, []byte(`{"n":2`), []byte(`{"n":7`), 1), -1, len(log)},
	} {
		path := filepath.Join(t.TempDir(), "log.ndjson")
		if err := os.WriteFile(path, tc.content, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		seq, size, err := Resume(f)
		f.Close()
		if tc.wantSeq < 0 {
			if err == nil {
				t.Errorf("%s: Resume accepted the file (seq %d)", tc.name, seq)
			}
		} else if err != nil || seq != tc.wantSeq || size != int64(tc.wantSize) {
			t.Errorf("%s: Resume = seq %d size %d err %v, want %d %d", tc.name, seq, size, err, tc.wantSeq, tc.wantSize)
		}
		if got, _ := os.ReadFile(path); len(got) != tc.wantSize {
			t.Errorf("%s: file is %d bytes after Resume, want %d", tc.name, len(got), tc.wantSize)
		}
	}
}
