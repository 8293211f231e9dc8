package relational

import (
	"fmt"
	"sort"
)

// Mutation support: ordered tuple insert/delete against a live database
// with O(1) referential-integrity enforcement and change capture, the
// substrate internal/delta's incremental maintainer builds on.
//
// The invariant everything downstream depends on is *order stability*:
// rows live in insertion order, deletes remove in place without
// reordering survivors, and tables keep their creation order. ToGraph
// assigns node IDs by walking (table creation order × row order), so
// between two materializations the surviving tuples keep their relative
// order — the old→new node-ID map is strictly monotone, which is what
// lets internal/index remap untouched posting lists instead of
// recomputing them.

// ChangeOp distinguishes captured mutations.
type ChangeOp int

const (
	// ChangeInsert records a newly inserted tuple.
	ChangeInsert ChangeOp = iota
	// ChangeDelete records a deleted tuple.
	ChangeDelete
)

// String names the op for logs and metrics.
func (op ChangeOp) String() string {
	if op == ChangeInsert {
		return "insert"
	}
	return "delete"
}

// Change is one captured mutation: the tuple that changed and the
// tuples its foreign keys reference. Targets are captured at mutation
// time because a deleted row can no longer be consulted afterwards.
// Together {Ref} ∪ Targets cover every graph node whose incident edge
// set or edge weights the mutation can touch: the tuple's own node
// (edges appear/disappear with it) and each referenced node (whose
// in-degree — and therefore the log2(1+N_in) weight of every edge
// pointing at it — shifts).
type Change struct {
	Op      ChangeOp
	Ref     NodeRef
	Targets []NodeRef
}

// delete removes the row with the given serialized primary key,
// preserving the order of the remaining rows. Only the victim's own
// pkIndex entry is touched: surviving entries keep their virtual
// positions, and the vacated position joins deadPos so rowPos can keep
// translating (see the Table doc). The row-slice shift remains, but
// that is one memmove, not O(table) map writes — the cost that used to
// dominate delete-heavy incremental-maintenance batches.
func (t *Table) delete(pk string) error {
	v, ok := t.pkIndex[pk]
	if !ok {
		return fmt.Errorf("relational: delete %s: no row with key %s", t.schema.Name, pk)
	}
	i := t.rowPos(v)
	t.rows = append(t.rows[:i], t.rows[i+1:]...)
	delete(t.pkIndex, pk)
	// Keep deadPos sorted; deletes land at arbitrary positions but the
	// list never exceeds compactEvery entries, so an insertion shift is
	// at most a few KB of memmove.
	at := sort.SearchInts(t.deadPos, v)
	t.deadPos = append(t.deadPos, 0)
	copy(t.deadPos[at+1:], t.deadPos[at:])
	t.deadPos[at] = v
	if len(t.deadPos) >= compactEvery {
		t.compact()
	}
	return nil
}

// EnableMutations switches the database into mutable mode: it verifies
// referential integrity once, builds per-foreign-key reference counts,
// and from then on Insert/Delete maintain those counts incrementally so
// every mutation's integrity check is O(foreign keys), not O(rows).
// Direct Table.Insert is rejected while mutable — it would bypass both
// the counts and change capture. Calling it twice is a no-op.
func (db *Database) EnableMutations() error {
	if db.mutable {
		return nil
	}
	if err := db.CheckIntegrity(); err != nil {
		return fmt.Errorf("relational: cannot enable mutations: %w", err)
	}
	db.refCounts = make([]map[string]int, len(db.fks))
	for i, fk := range db.fks {
		db.refCounts[i] = countRefs(db.tables[fk.FromTable], fk)
	}
	db.mutable = true
	return nil
}

// countRefs scans one referencing table into a referenced-key → count
// map.
func countRefs(from *Table, fk ForeignKey) map[string]int {
	ci := from.ColumnIndex(fk.FromColumn)
	m := make(map[string]int, from.Len())
	for r := 0; r < from.Len(); r++ {
		m[from.Row(r)[ci].String()]++
	}
	return m
}

// Insert adds a row through the mutation path: every foreign-key value
// must resolve to an existing referenced row (fail-closed — a stream
// must insert parents before children), reference counts are bumped,
// and the change is captured with its target refs.
func (db *Database) Insert(table string, vals ...Value) error {
	if !db.mutable {
		return fmt.Errorf("relational: Insert before EnableMutations")
	}
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("relational: insert into unknown table %s", table)
	}
	if len(vals) != len(t.schema.Columns) {
		return fmt.Errorf("relational: %s expects %d values, got %d",
			table, len(t.schema.Columns), len(vals))
	}
	var targets []NodeRef
	for _, fk := range db.fks {
		if fk.FromTable != table {
			continue
		}
		ref := vals[t.ColumnIndex(fk.FromColumn)].String()
		if _, ok := db.tables[fk.ToTable].Lookup(ref); !ok {
			return fmt.Errorf("relational: insert %s: %s=%s has no match in %s",
				table, fk.FromColumn, ref, fk.ToTable)
		}
		targets = append(targets, NodeRef{Table: fk.ToTable, PK: ref})
	}
	if err := t.insert(vals); err != nil {
		return err
	}
	for i, fk := range db.fks {
		if fk.FromTable == table {
			db.refCounts[i][vals[t.ColumnIndex(fk.FromColumn)].String()]++
		}
	}
	db.changes = append(db.changes, Change{
		Op:      ChangeInsert,
		Ref:     NodeRef{Table: table, PK: t.pkKey(t.rows[len(t.rows)-1])},
		Targets: targets,
	})
	return nil
}

// Delete removes a row through the mutation path. A row that is still
// referenced by a foreign key cannot be deleted (fail-closed, checked
// in O(1) per constraint against the reference counts); a stream must
// delete children before parents. The change is captured with the
// row's own target refs so the maintainer can seed its dirty set.
func (db *Database) Delete(table, pk string) error {
	if !db.mutable {
		return fmt.Errorf("relational: Delete before EnableMutations")
	}
	t, ok := db.tables[table]
	if !ok {
		return fmt.Errorf("relational: delete from unknown table %s", table)
	}
	row, ok := t.Lookup(pk)
	if !ok {
		return fmt.Errorf("relational: delete %s: no row with key %s", table, pk)
	}
	for i, fk := range db.fks {
		if fk.ToTable == table && db.refCounts[i][pk] > 0 {
			return fmt.Errorf("relational: delete %s key %s: still referenced by %d %s row(s)",
				table, pk, db.refCounts[i][pk], fk.FromTable)
		}
	}
	var targets []NodeRef
	for i, fk := range db.fks {
		if fk.FromTable != table {
			continue
		}
		ref := row[t.ColumnIndex(fk.FromColumn)].String()
		targets = append(targets, NodeRef{Table: fk.ToTable, PK: ref})
		if db.refCounts[i][ref]--; db.refCounts[i][ref] == 0 {
			delete(db.refCounts[i], ref)
		}
	}
	if err := t.delete(pk); err != nil {
		return err
	}
	db.changes = append(db.changes, Change{
		Op:      ChangeDelete,
		Ref:     NodeRef{Table: table, PK: pk},
		Targets: targets,
	})
	return nil
}

// Changes returns the mutations captured since the last ResetChanges,
// in application order.
func (db *Database) Changes() []Change { return db.changes }

// ResetChanges clears the capture buffer, typically after a maintainer
// has consumed a batch.
func (db *Database) ResetChanges() { db.changes = nil }
