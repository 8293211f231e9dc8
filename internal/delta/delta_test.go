package delta_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"commdb/internal/datagen"
	"commdb/internal/delta"
	"commdb/internal/relational"
)

func smallDB(t *testing.T) *relational.Database {
	t.Helper()
	db, err := datagen.GenerateDBLP(datagen.DBLPParams{Authors: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// A database dumped as a log and replayed must serialize to the same
// dump — the round trip that makes "base database" and "log prefix"
// the same thing.
func TestDumpLoadRoundTrip(t *testing.T) {
	db := smallDB(t)
	var a bytes.Buffer
	if err := delta.DumpDatabase(&a, db); err != nil {
		t.Fatal(err)
	}
	db2, err := delta.LoadDatabase(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := delta.DumpDatabase(&b, db2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("dump → load → dump is not a fixed point")
	}
	if db.NumTuples() != db2.NumTuples() {
		t.Fatalf("tuples: %d vs %d", db.NumTuples(), db2.NumTuples())
	}
}

func TestOpEncodeDecode(t *testing.T) {
	ops := []delta.Op{
		{Kind: delta.KindSchema, Table: "T", PK: []string{"A"},
			Columns: []delta.ColumnDef{{Name: "A", Type: "int"}, {Name: "B", Type: "string", FullText: true}}},
		{Kind: delta.KindFK, Table: "U", Column: "A", To: "T"},
		delta.InsertOp("T", []relational.Value{relational.IntV(-42), relational.StrV("hello world")}),
		delta.DeleteOp("T", "-42"),
	}
	for _, op := range ops {
		line, err := delta.EncodeOp(op)
		if err != nil {
			t.Fatal(err)
		}
		got, err := delta.DecodeOp(line)
		if err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		re, err := delta.EncodeOp(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, re) {
			t.Fatalf("encode/decode/encode changed %s into %s", line, re)
		}
	}
	for _, bad := range []string{
		`{"op":"drop","table":"T"}`,
		`{"op":"insert"}`,
		`{"op":"insert","table":"T","bogus":1}`,
		`{not json`,
	} {
		if _, err := delta.DecodeOp([]byte(bad)); err == nil {
			t.Fatalf("decoding %q should fail", bad)
		}
	}
}

// fuzzDB is a small mutable database: Author, a Write table whose
// composite key holds the separator and whose Aid references Author,
// and a Pair table keyed on two strings.
func fuzzDB(t *testing.T) *relational.Database {
	t.Helper()
	db := relational.NewDatabase()
	if err := db.EnableMutations(); err != nil {
		t.Fatal(err)
	}
	col := func(name, typ string) delta.ColumnDef { return delta.ColumnDef{Name: name, Type: typ} }
	for _, op := range []delta.Op{
		{Kind: delta.KindSchema, Table: "Author", PK: []string{"Aid"},
			Columns: []delta.ColumnDef{col("Aid", "int"), {Name: "Name", Type: "string", FullText: true}}},
		{Kind: delta.KindSchema, Table: "Write", PK: []string{"Aid", "Tag"},
			Columns: []delta.ColumnDef{col("Aid", "int"), col("Tag", "string")}},
		{Kind: delta.KindFK, Table: "Write", Column: "Aid", To: "Author"},
		{Kind: delta.KindSchema, Table: "Pair", PK: []string{"A", "B"},
			Columns: []delta.ColumnDef{col("A", "string"), col("B", "string")}},
		delta.InsertOp("Author", []relational.Value{relational.IntV(1), relational.StrV("ada")}),
		delta.InsertOp("Write", []relational.Value{relational.IntV(1), relational.StrV("t|u")}),
		delta.InsertOp("Pair", []relational.Value{relational.StrV("x|y"), relational.StrV("z")}),
	} {
		if err := delta.Apply(db, op); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// FuzzDecodeOp: every mutation-log line is hostile. Decoding and then
// applying it to a small database never panics, and an op DecodeOp
// accepts re-encodes to a line that decodes to the same op (the wire
// form does not tell an empty list from an absent one, so those are
// compared as equal).
func FuzzDecodeOp(f *testing.F) {
	for _, seed := range []string{
		`{"op":"insert","table":"Pair","values":["x","y|z"]}`,
		`{"op":"insert","table":"Pair","values":[{"a":[1,null]},"z"]}`,
		`{"op":"insert","table":"Write","values":[2,"v"]}`,
		`{"op":"insert","table":"Author","values":[9223372036854775808,"big"]}`,
		`{"op":"delete","table":"Write","key":"1|t\\|u"}`,
		`{"op":"delete","table":"Author","key":"1"}`,
		`{"op":"schema","table":"New","columns":[{"name":"K","type":"int"}],"pk":["K"]}`,
		`{"op":"schema","table":"Pair","columns":[],"pk":[]}`,
		`{"op":"fk","table":"Pair","column":"A","to":"Author"}`,
	} {
		f.Add([]byte(seed))
	}
	emptyAsNil := func(op delta.Op) delta.Op {
		if len(op.Columns) == 0 {
			op.Columns = nil
		}
		if len(op.PK) == 0 {
			op.PK = nil
		}
		if len(op.Values) == 0 {
			op.Values = nil
		}
		return op
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		op, err := delta.DecodeOp(line)
		if err != nil {
			return
		}
		_ = delta.Apply(fuzzDB(t), op)
		enc, err := delta.EncodeOp(op)
		if err != nil {
			t.Fatalf("accepted op %+v does not encode: %v", op, err)
		}
		back, err := delta.DecodeOp(enc)
		if err != nil {
			t.Fatalf("re-encoded op %s does not decode: %v", enc, err)
		}
		if !reflect.DeepEqual(emptyAsNil(op), emptyAsNil(back)) {
			t.Fatalf("%s decodes to %+v, re-encoded as %s decodes to %+v", line, op, enc, back)
		}
	})
}

// logOf serializes ops as a framed log.
func logOf(t *testing.T, ops ...delta.Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := delta.WriteOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ReadOps must tolerate a torn final line (no newline) and Tail must
// leave it unconsumed until it completes.
func TestTornWriteTolerance(t *testing.T) {
	log := logOf(t,
		delta.InsertOp("T", []relational.Value{relational.IntV(1), relational.StrV("x")}),
		delta.InsertOp("T", []relational.Value{relational.IntV(2), relational.StrV("y")}))
	full := log[:bytes.IndexByte(log, '\n')+1]
	cut := len(full) + 30 // mid-way through the second line
	torn, rest := log[:cut], log[cut:]
	ops, err := delta.ReadOps(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Fatalf("read %d ops from torn log, want 1", len(ops))
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "muts.ndjson")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	tail := delta.NewTail(path)
	got, err := tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("tail read %d ops, want 1", len(got))
	}
	// Complete the torn line; the tail must pick up exactly it.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rest); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err = tail.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Values[0] != json.Number("2") {
		t.Fatalf("tail after completion = %+v, want the completed op", got)
	}
	// Quiet log: no ops, no error.
	if got, err := tail.Poll(); err != nil || len(got) != 0 {
		t.Fatalf("quiet poll = %v ops, err %v", len(got), err)
	}
	// A truncated log is a permanent error.
	if err := os.WriteFile(path, full, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := tail.Poll(); err == nil {
		t.Fatal("tail of a shrunk log should fail")
	}
}

// TestLogRejectsDamage: the two failures a line-oriented log cannot see
// without a frame. A flipped byte inside a value of a complete line
// still parses as JSON — only the line checksum tells it from what was
// written; a dropped middle line leaves every remaining line intact —
// only the sequence numbers tell. Every reader must refuse the log
// rather than apply it, and a line without a frame is rejected too.
func TestLogRejectsDamage(t *testing.T) {
	intact := logOf(t,
		delta.Op{Kind: delta.KindSchema, Table: "T", PK: []string{"Id"},
			Columns: []delta.ColumnDef{{Name: "Id", Type: "int"}, {Name: "Name", Type: "string", FullText: true}}},
		delta.InsertOp("T", []relational.Value{relational.IntV(1), relational.StrV("alpha")}),
		delta.InsertOp("T", []relational.Value{relational.IntV(2), relational.StrV("bravo")}),
		delta.InsertOp("T", []relational.Value{relational.IntV(3), relational.StrV("charlie")}))
	if got, err := delta.ReadOps(bytes.NewReader(intact)); err != nil || len(got) != 4 {
		t.Fatalf("intact log: %d ops, err %v", len(got), err)
	}
	lines := bytes.SplitAfter(intact, []byte("\n"))
	flipped := append([]byte(nil), intact...)
	flipped[bytes.Index(flipped, []byte("bravo"))] ^= 0x01 // "bravo" -> "cravo"
	for name, bad := range map[string][]byte{
		"flipped byte in a value": flipped,
		"dropped middle line":     bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil),
		"line without a frame":    []byte(`{"op":"insert","table":"T","values":[1,"x"]}` + "\n"),
	} {
		if got, err := delta.ReadOps(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: ReadOps accepted the log (%d ops)", name, len(got))
		} else if !strings.Contains(err.Error(), "line ") {
			t.Errorf("%s: error does not name the line: %v", name, err)
		}
		db := relational.NewDatabase()
		if err := db.EnableMutations(); err != nil {
			t.Fatal(err)
		}
		if n, err := delta.Replay(bytes.NewReader(bad), db); err == nil {
			t.Errorf("%s: Replay applied %d ops", name, n)
		}
		path := filepath.Join(t.TempDir(), "log.ndjson")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := delta.NewTail(path).Poll(); err == nil {
			t.Errorf("%s: Tail.Poll accepted the log (%d ops)", name, len(got))
		}
	}

	// A line dropped between two polls is a gap too.
	path := filepath.Join(t.TempDir(), "log.ndjson")
	if err := os.WriteFile(path, bytes.Join(lines[:2], nil), 0o644); err != nil {
		t.Fatal(err)
	}
	tail := delta.NewTail(path)
	if got, err := tail.Poll(); err != nil || len(got) != 2 {
		t.Fatalf("first poll: %d ops, err %v", len(got), err)
	}
	if err := os.WriteFile(path, bytes.Join([][]byte{lines[0], lines[1], lines[3]}, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := tail.Poll(); err == nil {
		t.Fatalf("a poll across a dropped line returned %d ops", len(got))
	}
}

// LogWriter appends durably and Tail consumes across multiple appends.
func TestLogWriterTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.ndjson")
	w, err := delta.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	tail := delta.NewTail(path)
	total := 0
	for i := 0; i < 3; i++ {
		if err := w.Append(
			delta.InsertOp("T", []relational.Value{relational.IntV(int64(i))}),
			delta.DeleteOp("T", "0"),
		); err != nil {
			t.Fatal(err)
		}
		ops, err := tail.Poll()
		if err != nil {
			t.Fatal(err)
		}
		total += len(ops)
	}
	if total != 6 {
		t.Fatalf("tailed %d ops, want 6", total)
	}

	// A reopened log drops the half-line a crashed writer left behind
	// and continues the sequence, so the tail reads straight through.
	w.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"insert","table":"T","val`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	w2, err := delta.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Append(delta.DeleteOp("T", "1")); err != nil {
		t.Fatal(err)
	}
	if ops, err := tail.Poll(); err != nil || len(ops) != 1 {
		t.Fatalf("tail after reopen: %d ops, err %v", len(ops), err)
	}
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ops, err := delta.ReadOps(bytes.NewReader(whole)); err != nil || len(ops) != 7 {
		t.Fatalf("whole log after reopen: %d ops, err %v", len(ops), err)
	}
}

// Rejected ops must not corrupt the maintainer: they are counted,
// mutate nothing, and the artifacts still match a full rebuild.
func TestMaintainerRejectsBadOps(t *testing.T) {
	db := smallDB(t)
	m, err := delta.NewMaintainer(db, delta.Config{R: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := m.Apply([]delta.Op{
		delta.DeleteOp("Author", "999999"),                            // no such row
		delta.DeleteOp("Nope", "1"),                                   // no such table
		{Kind: delta.KindInsert, Table: "Author", Values: []any{"x"}}, // arity
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Rejected != 3 || bs.Changed {
		t.Fatalf("batch stats = %+v, want 3 rejected, unchanged", bs)
	}
	st := m.Stats()
	if st.Rejected != 3 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Structural ops take the full-rebuild path and still produce correct
// artifacts.
func TestMaintainerStructuralFullRebuild(t *testing.T) {
	db := smallDB(t)
	m, err := delta.NewMaintainer(db, delta.Config{R: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := m.Apply([]delta.Op{
		{Kind: delta.KindSchema, Table: "Venue", PK: []string{"Vid"},
			Columns: []delta.ColumnDef{{Name: "Vid", Type: "int"}, {Name: "Name", Type: "string", FullText: true}}},
		delta.InsertOp("Venue", []relational.Value{relational.IntV(1), relational.StrV("icde")}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bs.FullRebuild || !bs.Structural {
		t.Fatalf("structural batch stats = %+v, want full rebuild", bs)
	}
	if m.Stats().FullRebuilds != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}
