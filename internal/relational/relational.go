// Package relational is the miniature relational substrate beneath the
// community search system: typed tables with primary and foreign keys,
// insertion with constraint checking, referential-integrity validation,
// and the materialization of a database into the paper's database graph
// G_D (tuples become nodes, foreign-key references become bi-directed
// edges weighted by w_e((u,v)) = log2(1 + N_in(v))).
package relational

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ColumnType enumerates the supported column types.
type ColumnType int

const (
	// Int is a 64-bit integer column.
	Int ColumnType = iota
	// String is a text column.
	String
)

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type ColumnType
	// FullText marks text attributes whose tokens become the keyword
	// terms of the tuple's graph node (e.g. Paper.Title, Author.Name).
	FullText bool
}

// Schema describes a table: its columns and primary key.
type Schema struct {
	Name    string
	Columns []Column
	// PrimaryKey lists the key column names, in order. Composite keys
	// are allowed (e.g. Write(Aid, Pid)).
	PrimaryKey []string
}

// Value is one typed attribute value.
type Value struct {
	kind ColumnType
	i    int64
	s    string
}

// IntV builds an integer value.
func IntV(v int64) Value { return Value{kind: Int, i: v} }

// StrV builds a string value.
func StrV(v string) Value { return Value{kind: String, s: v} }

// Kind reports the value's column type.
func (v Value) Kind() ColumnType { return v.kind }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.i }

// Str returns the string payload.
func (v Value) Str() string { return v.s }

// String renders the value for labels and key serialization.
func (v Value) String() string {
	if v.kind == Int {
		return strconv.FormatInt(v.i, 10)
	}
	return v.s
}

// Tuple is one row, with values in schema column order.
type Tuple []Value

// Table holds the rows of one schema with a primary-key index.
//
// pkIndex maps serialized keys to *virtual* row positions: the position
// a row would have if no delete had ever compacted the slice. Rows keep
// their virtual position for life, so a delete only removes its own map
// entry instead of rewriting every entry behind it — the fixup that
// made deletes O(table) in map writes. deadPos records the virtual
// positions vacated since the last compaction, sorted ascending; the
// actual position of a live row is its virtual position minus the dead
// entries before it (rowPos). Virtual and actual coincide while deadPos
// is empty, and a compaction (every compactEvery deletes) restores that
// state, bounding both the deadPos scan and the coordinate drift.
type Table struct {
	db      *Database
	schema  *Schema
	colIdx  map[string]int
	pkCols  []int
	rows    []Tuple
	pkIndex map[string]int
	deadPos []int
}

// compactEvery bounds deadPos: after this many deletes the pkIndex is
// rewritten to actual coordinates in one pass. Small enough that the
// binary search in rowPos stays trivial, large enough that the O(table)
// rewrite is amortized over many deletes.
const compactEvery = 256

// rowPos converts a virtual pkIndex position to the row's actual index
// in t.rows.
func (t *Table) rowPos(virtual int) int {
	if len(t.deadPos) == 0 {
		return virtual
	}
	return virtual - sort.SearchInts(t.deadPos, virtual)
}

// nextVirtual is the virtual position the next inserted row receives.
// Live rows and dead positions partition [0, nextVirtual), so this is
// always the maximum — an append stays an append in both spaces.
func (t *Table) nextVirtual() int { return len(t.rows) + len(t.deadPos) }

// compact rewrites pkIndex into actual coordinates and clears deadPos.
func (t *Table) compact() {
	for k, v := range t.pkIndex {
		t.pkIndex[k] = t.rowPos(v)
	}
	t.deadPos = t.deadPos[:0]
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Len reports the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns the i-th row.
func (t *Table) Row(i int) Tuple { return t.rows[i] }

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[name]; ok {
		return i
	}
	return -1
}

// pkKey serializes a row's primary key. A single-column key is the
// value itself, the form foreign keys reference. A composite key joins
// its components with `|`, escaping `\` and `|` inside each component
// so that distinct keys never serialize alike; a key whose components
// hold neither byte reads as the plain join.
func (t *Table) pkKey(row Tuple) string {
	if len(t.pkCols) == 1 {
		return row[t.pkCols[0]].String()
	}
	parts := make([]string, len(t.pkCols))
	for i, c := range t.pkCols {
		parts[i] = keyEscaper.Replace(row[c].String())
	}
	return strings.Join(parts, "|")
}

// keyEscaper escapes one component of a composite primary key.
var keyEscaper = strings.NewReplacer(`\`, `\\`, `|`, `\|`)

// Insert appends a row after validating arity, types, and primary-key
// uniqueness. Once the database is mutable (EnableMutations), rows must
// go through Database.Insert instead so reference counts and change
// capture stay consistent.
func (t *Table) Insert(vals ...Value) error {
	if t.db != nil && t.db.mutable {
		return fmt.Errorf("relational: %s is mutable; insert through Database.Insert", t.schema.Name)
	}
	return t.insert(vals)
}

// insert is the constraint-checked append shared by the bulk path and
// the mutation path.
func (t *Table) insert(vals []Value) error {
	if len(vals) != len(t.schema.Columns) {
		return fmt.Errorf("relational: %s expects %d values, got %d",
			t.schema.Name, len(t.schema.Columns), len(vals))
	}
	for i, v := range vals {
		if v.kind != t.schema.Columns[i].Type {
			return fmt.Errorf("relational: %s.%s: wrong type for value %q",
				t.schema.Name, t.schema.Columns[i].Name, v.String())
		}
	}
	// Copy defensively: bulk loaders reuse their value buffer across
	// rows, and stored tuples must not alias caller memory.
	row := append(Tuple(nil), vals...)
	key := t.pkKey(row)
	if _, dup := t.pkIndex[key]; dup {
		return fmt.Errorf("relational: duplicate primary key %s in %s", key, t.schema.Name)
	}
	t.pkIndex[key] = t.nextVirtual()
	t.rows = append(t.rows, row)
	return nil
}

// RowKey serializes the i-th row's primary key (key columns joined
// with `|`, escaped as pkKey describes), the form Lookup and
// Database.Delete address rows by.
func (t *Table) RowKey(i int) string { return t.pkKey(t.rows[i]) }

// Lookup finds a row by serialized primary key.
func (t *Table) Lookup(pk string) (Tuple, bool) {
	i, ok := t.pkIndex[pk]
	if !ok {
		return nil, false
	}
	return t.rows[t.rowPos(i)], true
}

// ForeignKey declares that FromTable.FromColumn references the
// single-column primary key of ToTable.
type ForeignKey struct {
	FromTable  string
	FromColumn string
	ToTable    string
}

// Database is a set of tables with foreign-key constraints. After
// EnableMutations it additionally tracks per-constraint reference
// counts and captures every Insert/Delete as a Change (see mutate.go).
type Database struct {
	tables map[string]*Table
	order  []string
	fks    []ForeignKey

	mutable   bool
	refCounts []map[string]int // parallel to fks: referenced key → count
	changes   []Change
}

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return &Database{tables: make(map[string]*Table)}
}

// CreateTable registers a schema and returns its table.
func (db *Database) CreateTable(s Schema) (*Table, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("relational: table needs a name")
	}
	if _, dup := db.tables[s.Name]; dup {
		return nil, fmt.Errorf("relational: table %s already exists", s.Name)
	}
	if len(s.Columns) == 0 {
		return nil, fmt.Errorf("relational: table %s needs columns", s.Name)
	}
	t := &Table{
		db:      db,
		schema:  &s,
		colIdx:  make(map[string]int, len(s.Columns)),
		pkIndex: make(map[string]int),
	}
	for i, c := range s.Columns {
		if _, dup := t.colIdx[c.Name]; dup {
			return nil, fmt.Errorf("relational: duplicate column %s.%s", s.Name, c.Name)
		}
		t.colIdx[c.Name] = i
	}
	if len(s.PrimaryKey) == 0 {
		return nil, fmt.Errorf("relational: table %s needs a primary key", s.Name)
	}
	for _, pk := range s.PrimaryKey {
		i, ok := t.colIdx[pk]
		if !ok {
			return nil, fmt.Errorf("relational: primary key column %s.%s does not exist", s.Name, pk)
		}
		t.pkCols = append(t.pkCols, i)
	}
	db.tables[s.Name] = t
	db.order = append(db.order, s.Name)
	return t, nil
}

// Table returns a table by name.
func (db *Database) Table(name string) (*Table, bool) {
	t, ok := db.tables[name]
	return t, ok
}

// Tables returns the table names in creation order.
func (db *Database) Tables() []string { return db.order }

// AddForeignKey registers a constraint after validating that the
// referenced tables and columns exist and the target key is
// single-column.
func (db *Database) AddForeignKey(fk ForeignKey) error {
	from, ok := db.tables[fk.FromTable]
	if !ok {
		return fmt.Errorf("relational: foreign key from unknown table %s", fk.FromTable)
	}
	if from.ColumnIndex(fk.FromColumn) < 0 {
		return fmt.Errorf("relational: foreign key from unknown column %s.%s", fk.FromTable, fk.FromColumn)
	}
	to, ok := db.tables[fk.ToTable]
	if !ok {
		return fmt.Errorf("relational: foreign key to unknown table %s", fk.ToTable)
	}
	if len(to.schema.PrimaryKey) != 1 {
		return fmt.Errorf("relational: foreign key target %s must have a single-column primary key", fk.ToTable)
	}
	db.fks = append(db.fks, fk)
	if db.mutable {
		// Keep the parallel reference-count array in sync when a
		// constraint arrives after EnableMutations.
		db.refCounts = append(db.refCounts, countRefs(from, fk))
	}
	return nil
}

// ForeignKeys returns the declared constraints.
func (db *Database) ForeignKeys() []ForeignKey { return db.fks }

// NumTuples counts every row in every table — the paper's dataset size
// measure.
func (db *Database) NumTuples() int {
	n := 0
	for _, name := range db.order {
		n += db.tables[name].Len()
	}
	return n
}

// CheckIntegrity verifies that every foreign-key value resolves to an
// existing referenced row.
func (db *Database) CheckIntegrity() error {
	for _, fk := range db.fks {
		from := db.tables[fk.FromTable]
		to := db.tables[fk.ToTable]
		ci := from.ColumnIndex(fk.FromColumn)
		for r := 0; r < from.Len(); r++ {
			val := from.Row(r)[ci].String()
			if _, ok := to.Lookup(val); !ok {
				return fmt.Errorf("relational: %s row %d: %s=%s has no match in %s",
					fk.FromTable, r, fk.FromColumn, val, fk.ToTable)
			}
		}
	}
	return nil
}
