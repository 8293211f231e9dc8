// Package delta is the build half of live updates: a durable,
// replayable mutation log over internal/relational plus an incremental
// maintainer that turns each batch of tuple inserts/deletes into fresh
// graph and index artifacts, bit-identical to a from-scratch rebuild
// but recomputing only the radius-bounded dirty slice of invertedE.
//
// The log is NDJSON, one op per line, in four kinds (each line closed
// by internal/seqlog's sequence number and checksum, elided here):
//
//	{"op":"schema","table":"Author","columns":[{"name":"Aid","type":"int"},
//	   {"name":"Name","type":"string","fulltext":true}],"pk":["Aid"],"seq":1,"crc":…}
//	{"op":"fk","table":"Write","column":"Aid","to":"Author",…}
//	{"op":"insert","table":"Author","values":[7,"jane doe"],…}
//	{"op":"delete","table":"Write","key":"7|1234",…}
//
// A complete database dump is simply a log prefix of schema, fk, and
// insert ops — so "load the base database" and "replay the mutation
// log" are the same operation, and replaying any prefix of a stream
// reconstructs the exact database state at that point. Delete ops
// address rows by the same primary-key serialization the tables index
// on (Table.RowKey: a composite key's columns joined with `|`, with `\`
// and `|` escaped inside each column).
package delta

import (
	"bytes"
	"encoding/json"
	"fmt"

	"commdb/internal/relational"
)

// Op kinds.
const (
	KindSchema = "schema"
	KindFK     = "fk"
	KindInsert = "insert"
	KindDelete = "delete"
)

// Kinds lists every op kind in a fixed order, so metric exporters can
// emit deterministic label series (including zero-valued ones).
var Kinds = []string{KindSchema, KindFK, KindInsert, KindDelete}

// ColumnDef mirrors relational.Column for the wire format.
type ColumnDef struct {
	Name     string `json:"name"`
	Type     string `json:"type"` // "int" or "string"
	FullText bool   `json:"fulltext,omitempty"`
}

// Op is one mutation-log record.
type Op struct {
	Kind  string `json:"op"`
	Table string `json:"table"`

	// schema
	Columns []ColumnDef `json:"columns,omitempty"`
	PK      []string    `json:"pk,omitempty"`

	// fk: Table.Column references To's primary key
	Column string `json:"column,omitempty"`
	To     string `json:"to,omitempty"`

	// insert: values in schema column order (numbers for int columns,
	// strings for string columns)
	Values []any `json:"values,omitempty"`

	// delete: serialized primary key
	Key string `json:"key,omitempty"`
}

// Structural reports whether the op changes the schema rather than the
// data. The maintainer handles structural ops with a full rebuild —
// they are rare (normally only a dump's prefix) and a new table or
// constraint invalidates the incremental path's node-order reasoning.
func (op Op) Structural() bool { return op.Kind == KindSchema || op.Kind == KindFK }

// DecodeOp parses one op object (a log line less its seqlog frame).
// Numbers decode as json.Number so int64 values round-trip exactly.
func DecodeOp(line []byte) (Op, error) {
	var op Op
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(&op); err != nil {
		return op, fmt.Errorf("delta: bad op %q: %w", truncate(line), err)
	}
	switch op.Kind {
	case KindSchema, KindFK, KindInsert, KindDelete:
	default:
		return op, fmt.Errorf("delta: unknown op kind %q", op.Kind)
	}
	if op.Table == "" {
		return op, fmt.Errorf("delta: op %q needs a table", op.Kind)
	}
	return op, nil
}

// EncodeOp renders one op as a JSON object, ready for framing.
func EncodeOp(op Op) ([]byte, error) {
	return json.Marshal(op)
}

func truncate(b []byte) string {
	const max = 120
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// Apply executes one op against the database. The database must be
// mutable (EnableMutations) so inserts and deletes keep reference
// counts and change capture consistent; a violated constraint —
// dangling foreign key, duplicate key, still-referenced delete —
// fails the op without applying it.
func Apply(db *relational.Database, op Op) error {
	switch op.Kind {
	case KindSchema:
		s := relational.Schema{Name: op.Table, PrimaryKey: op.PK}
		for _, c := range op.Columns {
			var ct relational.ColumnType
			switch c.Type {
			case "int":
				ct = relational.Int
			case "string":
				ct = relational.String
			default:
				return fmt.Errorf("delta: schema %s: unknown column type %q", op.Table, c.Type)
			}
			s.Columns = append(s.Columns, relational.Column{Name: c.Name, Type: ct, FullText: c.FullText})
		}
		_, err := db.CreateTable(s)
		return err
	case KindFK:
		return db.AddForeignKey(relational.ForeignKey{
			FromTable: op.Table, FromColumn: op.Column, ToTable: op.To,
		})
	case KindInsert:
		t, ok := db.Table(op.Table)
		if !ok {
			return fmt.Errorf("delta: insert into unknown table %s", op.Table)
		}
		cols := t.Schema().Columns
		if len(op.Values) != len(cols) {
			return fmt.Errorf("delta: insert %s: %d values for %d columns", op.Table, len(op.Values), len(cols))
		}
		vals := make([]relational.Value, len(cols))
		for i, raw := range op.Values {
			v, err := decodeValue(raw, cols[i].Type)
			if err != nil {
				return fmt.Errorf("delta: insert %s.%s: %w", op.Table, cols[i].Name, err)
			}
			vals[i] = v
		}
		return db.Insert(op.Table, vals...)
	case KindDelete:
		return db.Delete(op.Table, op.Key)
	default:
		return fmt.Errorf("delta: unknown op kind %q", op.Kind)
	}
}

// decodeValue converts a decoded JSON value to the column's type.
func decodeValue(raw any, ct relational.ColumnType) (relational.Value, error) {
	switch ct {
	case relational.Int:
		num, ok := raw.(json.Number)
		if !ok {
			return relational.Value{}, fmt.Errorf("want number, got %T", raw)
		}
		i, err := num.Int64()
		if err != nil {
			return relational.Value{}, err
		}
		return relational.IntV(i), nil
	case relational.String:
		s, ok := raw.(string)
		if !ok {
			return relational.Value{}, fmt.Errorf("want string, got %T", raw)
		}
		return relational.StrV(s), nil
	}
	return relational.Value{}, fmt.Errorf("unknown column type %d", ct)
}

// InsertOp builds an insert op from a typed row.
func InsertOp(table string, row []relational.Value) Op {
	vals := make([]any, len(row))
	for i, v := range row {
		vals[i] = valueJSON(v)
	}
	return Op{Kind: KindInsert, Table: table, Values: vals}
}

// DeleteOp builds a delete op for a serialized primary key.
func DeleteOp(table, key string) Op {
	return Op{Kind: KindDelete, Table: table, Key: key}
}

// valueJSON renders a relational value as its JSON form. Int columns
// become json.Number so encoding matches decoding exactly.
func valueJSON(v relational.Value) any {
	if v.Kind() == relational.Int {
		return json.Number(v.String())
	}
	return v.Str()
}
