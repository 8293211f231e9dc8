package delta

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"

	"commdb/internal/relational"
	"commdb/internal/seqlog"
)

// Log durability and replay. A mutation log is append-only NDJSON, one
// op per line, each line framed by seqlog with a sequence number and a
// checksum. The writer fsyncs on every Append so an acknowledged batch
// survives a crash, and readers treat a final line without a newline as
// a torn write: Replay stops cleanly before it, and Tail waits for the
// rest of the line to arrive — the same either-old-or-new discipline
// the index artifacts get from atomic renames. A complete line that
// fails its checksum, or whose sequence number does not follow its
// predecessor's, fails the read: the log is the source of truth, so a
// damaged value or a missing op is never applied silently.

// LogWriter appends ops to a mutation-log file durably.
type LogWriter struct {
	f   *os.File
	seq int64 // sequence number of the last line written
}

// OpenLog opens (creating if needed) a mutation log for appending,
// dropping a torn final line and continuing the existing sequence.
func OpenLog(path string) (*LogWriter, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	seq, _, err := seqlog.Resume(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("delta: resuming log %s: %w", path, err)
	}
	return &LogWriter{f: f, seq: seq}, nil
}

// Append writes the ops as framed NDJSON lines in a single Write call
// and fsyncs; on return the ops are durable.
func (w *LogWriter) Append(ops ...Op) error {
	var buf bytes.Buffer
	if err := encodeOps(&buf, w.seq, ops); err != nil {
		return err
	}
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		return err
	}
	w.seq += int64(len(ops))
	return w.f.Sync()
}

// Close closes the underlying file.
func (w *LogWriter) Close() error { return w.f.Close() }

// WriteOps writes ops as a complete log — framed NDJSON lines numbered
// from 1 — to any writer (no fsync; use LogWriter for durable appends).
func WriteOps(w io.Writer, ops []Op) error {
	bw := bufio.NewWriter(w)
	if err := encodeOps(bw, 0, ops); err != nil {
		return err
	}
	return bw.Flush()
}

// encodeOps writes one framed line per op, numbered after last.
func encodeOps(w io.Writer, last int64, ops []Op) error {
	for i, op := range ops {
		obj, err := EncodeOp(op)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(seqlog.Seal(obj, last+int64(i)+1), '\n')); err != nil {
			return err
		}
	}
	return nil
}

// ReadOps decodes every complete line of the log r. A final
// unterminated line is a torn write and is ignored; everything before
// it must verify (checksum, consecutive sequence numbers) and parse.
func ReadOps(r io.Reader) ([]Op, error) {
	ops, _, _, err := readOps(r, 0)
	return ops, err
}

// readOps is ReadOps continuing after sequence number last (0 =
// unknown); it also returns the last sequence number read and the
// bytes the ops span.
func readOps(r io.Reader, last int64) (ops []Op, seq, n int64, err error) {
	seq, n, err = seqlog.Scan(r, last, func(obj []byte, _ int64) error {
		op, err := DecodeOp(obj)
		ops = append(ops, op)
		return err
	})
	if err != nil {
		return nil, 0, 0, fmt.Errorf("delta: log %w", err)
	}
	return ops, seq, n, nil
}

// Replay applies every op of r to db in order, returning how many ops
// were applied. The database must already be mutable.
func Replay(r io.Reader, db *relational.Database) (int, error) {
	ops, err := ReadOps(r)
	if err != nil {
		return 0, err
	}
	for i, op := range ops {
		if err := Apply(db, op); err != nil {
			return i, fmt.Errorf("delta: replay op %d: %w", i, err)
		}
	}
	return len(ops), nil
}

// DumpDatabase serializes the database as a replayable log prefix:
// schema ops, fk ops, then every row as an insert op, tables in
// creation order. LoadDatabase(DumpDatabase(db)) reconstructs an
// identical database.
func DumpDatabase(w io.Writer, db *relational.Database) error {
	var ops []Op
	for _, name := range db.Tables() {
		t, _ := db.Table(name)
		s := t.Schema()
		op := Op{Kind: KindSchema, Table: name, PK: s.PrimaryKey}
		for _, c := range s.Columns {
			typ := "int"
			if c.Type == relational.String {
				typ = "string"
			}
			op.Columns = append(op.Columns, ColumnDef{Name: c.Name, Type: typ, FullText: c.FullText})
		}
		ops = append(ops, op)
	}
	for _, fk := range db.ForeignKeys() {
		ops = append(ops, Op{Kind: KindFK, Table: fk.FromTable, Column: fk.FromColumn, To: fk.ToTable})
	}
	for _, name := range db.Tables() {
		t, _ := db.Table(name)
		for i := 0; i < t.Len(); i++ {
			ops = append(ops, InsertOp(name, t.Row(i)))
		}
	}
	return WriteOps(w, ops)
}

// LoadDatabase replays a database dump (or any log) from r into a
// fresh mutable database.
func LoadDatabase(r io.Reader) (*relational.Database, error) {
	db := relational.NewDatabase()
	if err := db.EnableMutations(); err != nil {
		return nil, err
	}
	if _, err := Replay(r, db); err != nil {
		return nil, err
	}
	db.ResetChanges() // the load is the base state, not a delta
	return db, nil
}

// Tail incrementally reads complete ops appended to a log file. Each
// Poll opens the file, seeks past everything already consumed, and
// returns the ops of the newly appended complete lines; a torn final
// line stays unconsumed until its newline arrives. A missing file is
// not an error — it simply has no ops yet.
type Tail struct {
	path string
	off  int64
	seq  int64 // sequence number of the last op consumed (0 = none yet)
}

// NewTail starts tailing path from its first byte.
func NewTail(path string) *Tail {
	return &Tail{path: path}
}

// Poll returns newly appended complete ops, or nil when there are
// none.
func (t *Tail) Poll() ([]Op, error) {
	f, err := os.Open(t.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < t.off {
		return nil, fmt.Errorf("delta: log %s shrank from %d to %d bytes (truncated or rotated)", t.path, t.off, st.Size())
	}
	if _, err := f.Seek(t.off, io.SeekStart); err != nil {
		return nil, err
	}
	ops, seq, n, err := readOps(f, t.seq)
	if err != nil {
		return nil, err
	}
	t.off += n
	t.seq = seq
	return ops, nil
}
