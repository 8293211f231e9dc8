package relational

import (
	"math"
	"strings"
	"testing"
)

// miniDBLP builds a 2-author, 2-paper bibliographic database mirroring
// the paper's introduction example.
func miniDBLP(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	author, err := db.CreateTable(Schema{
		Name: "Author",
		Columns: []Column{
			{Name: "Aid", Type: Int},
			{Name: "Name", Type: String, FullText: true},
		},
		PrimaryKey: []string{"Aid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := db.CreateTable(Schema{
		Name: "Paper",
		Columns: []Column{
			{Name: "Pid", Type: Int},
			{Name: "Title", Type: String, FullText: true},
		},
		PrimaryKey: []string{"Pid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	write, err := db.CreateTable(Schema{
		Name: "Write",
		Columns: []Column{
			{Name: "Aid", Type: Int},
			{Name: "Pid", Type: Int},
		},
		PrimaryKey: []string{"Aid", "Pid"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cite, err := db.CreateTable(Schema{
		Name: "Cite",
		Columns: []Column{
			{Name: "Pid1", Type: Int},
			{Name: "Pid2", Type: Int},
		},
		PrimaryKey: []string{"Pid1", "Pid2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, fk := range []ForeignKey{
		{FromTable: "Write", FromColumn: "Aid", ToTable: "Author"},
		{FromTable: "Write", FromColumn: "Pid", ToTable: "Paper"},
		{FromTable: "Cite", FromColumn: "Pid1", ToTable: "Paper"},
		{FromTable: "Cite", FromColumn: "Pid2", ToTable: "Paper"},
	} {
		if err := db.AddForeignKey(fk); err != nil {
			t.Fatal(err)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(author.Insert(IntV(1), StrV("John Smith")))
	must(author.Insert(IntV(2), StrV("Kate Green")))
	must(paper.Insert(IntV(10), StrV("keyword search in databases")))
	must(paper.Insert(IntV(11), StrV("community queries")))
	must(write.Insert(IntV(1), IntV(10)))
	must(write.Insert(IntV(2), IntV(10)))
	must(write.Insert(IntV(2), IntV(11)))
	must(cite.Insert(IntV(10), IntV(11)))
	return db
}

func TestCreateTableErrors(t *testing.T) {
	db := NewDatabase()
	if _, err := db.CreateTable(Schema{}); err == nil {
		t.Fatal("unnamed table should fail")
	}
	if _, err := db.CreateTable(Schema{Name: "T"}); err == nil {
		t.Fatal("no columns should fail")
	}
	if _, err := db.CreateTable(Schema{Name: "T", Columns: []Column{{Name: "a", Type: Int}}}); err == nil {
		t.Fatal("no primary key should fail")
	}
	if _, err := db.CreateTable(Schema{
		Name:       "T",
		Columns:    []Column{{Name: "a", Type: Int}, {Name: "a", Type: Int}},
		PrimaryKey: []string{"a"},
	}); err == nil {
		t.Fatal("duplicate column should fail")
	}
	if _, err := db.CreateTable(Schema{
		Name:       "T",
		Columns:    []Column{{Name: "a", Type: Int}},
		PrimaryKey: []string{"zzz"},
	}); err == nil {
		t.Fatal("missing pk column should fail")
	}
	if _, err := db.CreateTable(Schema{
		Name:       "Dup",
		Columns:    []Column{{Name: "a", Type: Int}},
		PrimaryKey: []string{"a"},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(Schema{
		Name:       "Dup",
		Columns:    []Column{{Name: "a", Type: Int}},
		PrimaryKey: []string{"a"},
	}); err == nil {
		t.Fatal("duplicate table should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDatabase()
	tab, err := db.CreateTable(Schema{
		Name:       "T",
		Columns:    []Column{{Name: "id", Type: Int}, {Name: "name", Type: String}},
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(IntV(1)); err == nil {
		t.Fatal("wrong arity should fail")
	}
	if err := tab.Insert(StrV("x"), StrV("y")); err == nil {
		t.Fatal("wrong type should fail")
	}
	if err := tab.Insert(IntV(1), StrV("x")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(IntV(1), StrV("other")); err == nil {
		t.Fatal("duplicate primary key should fail")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	row, ok := tab.Lookup("1")
	if !ok || row[1].Str() != "x" {
		t.Fatalf("Lookup = %v,%v", row, ok)
	}
	if _, ok := tab.Lookup("99"); ok {
		t.Fatal("Lookup of missing key should fail")
	}
	if tab.ColumnIndex("name") != 1 || tab.ColumnIndex("zzz") != -1 {
		t.Fatal("ColumnIndex")
	}
}

func TestForeignKeyValidation(t *testing.T) {
	db := miniDBLP(t)
	if err := db.AddForeignKey(ForeignKey{FromTable: "Nope", FromColumn: "x", ToTable: "Author"}); err == nil {
		t.Fatal("unknown from-table should fail")
	}
	if err := db.AddForeignKey(ForeignKey{FromTable: "Write", FromColumn: "Nope", ToTable: "Author"}); err == nil {
		t.Fatal("unknown from-column should fail")
	}
	if err := db.AddForeignKey(ForeignKey{FromTable: "Write", FromColumn: "Aid", ToTable: "Nope"}); err == nil {
		t.Fatal("unknown to-table should fail")
	}
	if err := db.AddForeignKey(ForeignKey{FromTable: "Author", FromColumn: "Aid", ToTable: "Write"}); err == nil {
		t.Fatal("composite-key target should fail")
	}
}

func TestCheckIntegrity(t *testing.T) {
	db := miniDBLP(t)
	if err := db.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	write, _ := db.Table("Write")
	if err := write.Insert(IntV(99), IntV(10)); err != nil {
		t.Fatal(err)
	}
	if err := db.CheckIntegrity(); err == nil {
		t.Fatal("dangling author reference should fail integrity")
	}
}

func TestNumTuples(t *testing.T) {
	db := miniDBLP(t)
	if got := db.NumTuples(); got != 8 {
		t.Fatalf("NumTuples = %d, want 8", got)
	}
	if len(db.Tables()) != 4 {
		t.Fatalf("Tables = %v", db.Tables())
	}
	if len(db.ForeignKeys()) != 4 {
		t.Fatal("ForeignKeys")
	}
}

func TestToGraph(t *testing.T) {
	db := miniDBLP(t)
	g, m, err := db.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 8 {
		t.Fatalf("nodes = %d, want 8 (one per tuple)", g.NumNodes())
	}
	// Each Write row references Author and Paper (2 FKs × 3 rows) and
	// the Cite row references Paper twice: 8 references, bi-directed
	// => 16 directed edges.
	if g.NumEdges() != 16 {
		t.Fatalf("edges = %d, want 16", g.NumEdges())
	}
	// Node mapping round-trips.
	kate, ok := m.Node("Author", "2")
	if !ok {
		t.Fatal("Kate's node missing")
	}
	if ref := m.Ref(kate); ref.Table != "Author" || ref.PK != "2" {
		t.Fatalf("Ref = %+v", ref)
	}
	if m.Len() != 8 {
		t.Fatalf("NodeMap.Len = %d", m.Len())
	}
	// Full-text terms: Kate's node contains "kate" and "green".
	id, ok := g.Dict().ID("kate")
	if !ok || !g.HasTerm(kate, id) {
		t.Fatal("kate term missing from node")
	}
	// Labels are Table:PK.
	if !strings.HasPrefix(g.Label(kate), "Author:") {
		t.Fatalf("label = %s", g.Label(kate))
	}
	// Write tuples carry no terms (no full-text columns).
	w00, ok := m.Node("Write", "1|10")
	if !ok {
		t.Fatal("write tuple node missing")
	}
	if len(g.Terms(w00)) != 0 {
		t.Fatalf("write tuple has terms %v", g.Terms(w00))
	}
	// Edge weights follow log2(1 + indeg).
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.OutEdges(int32(v)) {
			want := math.Log2(1 + float64(g.InDegree(e.To)))
			if math.Abs(e.Weight-want) > 1e-12 {
				t.Fatalf("edge (%d,%d) weight %v, want %v", v, e.To, e.Weight, want)
			}
		}
	}
	// Kate connects to her two Write tuples (bi-directed).
	if g.OutDegree(kate) != 2 || g.InDegree(kate) != 2 {
		t.Fatalf("deg(kate) = %d/%d, want 2/2", g.OutDegree(kate), g.InDegree(kate))
	}
}

func TestToGraphFailsOnBrokenIntegrity(t *testing.T) {
	db := miniDBLP(t)
	write, _ := db.Table("Write")
	if err := write.Insert(IntV(50), IntV(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.ToGraph(); err == nil {
		t.Fatal("ToGraph should fail on dangling references")
	}
}

func TestValueRendering(t *testing.T) {
	if IntV(42).String() != "42" {
		t.Fatal("int value rendering")
	}
	if StrV("abc").String() != "abc" {
		t.Fatal("string value rendering")
	}
	if IntV(7).Int() != 7 || StrV("x").Str() != "x" {
		t.Fatal("payload accessors")
	}
}

// TestCompositeKeyLookup: composite keys serialize with a separator.
func TestCompositeKeyLookup(t *testing.T) {
	db := miniDBLP(t)
	write, _ := db.Table("Write")
	if _, ok := write.Lookup("2|11"); !ok {
		t.Fatal("composite key lookup failed")
	}
	if _, ok := write.Lookup("2|99"); ok {
		t.Fatal("missing composite key should fail")
	}
}

// TestCompositeKeyEscapesSeparator: string components holding the
// separator or the escape byte never make two distinct composite keys
// collide, and keys free of both still serialize as the plain join.
func TestCompositeKeyEscapesSeparator(t *testing.T) {
	db := NewDatabase()
	tab, err := db.CreateTable(Schema{
		Name:       "T",
		Columns:    []Column{{Name: "A", Type: String}, {Name: "B", Type: String}},
		PrimaryKey: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][2]string{{"x|y", "z"}, {"x", "y|z"}, {`x\`, "y"}, {"x", `\y`}, {`x\|`, "y"}, {"x", "y"}}
	for _, r := range rows {
		if err := tab.Insert(StrV(r[0]), StrV(r[1])); err != nil {
			t.Fatalf("insert %q: %v", r, err)
		}
	}
	for i, r := range rows {
		row, ok := tab.Lookup(tab.RowKey(i))
		if !ok || row[0].Str() != r[0] || row[1].Str() != r[1] {
			t.Errorf("Lookup(RowKey(%d) = %q) = %v, %v; want %q", i, tab.RowKey(i), row, ok, r)
		}
	}
	if got := tab.RowKey(len(rows) - 1); got != "x|y" {
		t.Errorf("plain composite key serialized as %q, want \"x|y\"", got)
	}
	if err := tab.Insert(StrV("x|y"), StrV("z")); err == nil {
		t.Error("a true duplicate composite key was accepted")
	}
}
