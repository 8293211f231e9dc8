package relational

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func newPeopleTable(t *testing.T) *Table {
	t.Helper()
	db := NewDatabase()
	tab, err := db.CreateTable(Schema{
		Name: "People",
		Columns: []Column{
			{Name: "Id", Type: Int},
			{Name: "Name", Type: String, FullText: true},
		},
		PrimaryKey: []string{"Id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestLoadCSVPositional(t *testing.T) {
	tab := newPeopleTable(t)
	n, err := LoadCSV(tab, strings.NewReader("1,ada\n2,alan\n"), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || tab.Len() != 2 {
		t.Fatalf("inserted %d rows", n)
	}
	row, ok := tab.Lookup("2")
	if !ok || row[1].Str() != "alan" {
		t.Fatalf("row = %v", row)
	}
}

func TestLoadCSVHeaderReordered(t *testing.T) {
	tab := newPeopleTable(t)
	data := "name,extra,id\nada,x,1\nalan,y,2\n"
	n, err := LoadCSV(tab, strings.NewReader(data), CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("inserted %d", n)
	}
	row, _ := tab.Lookup("1")
	if row[1].Str() != "ada" {
		t.Fatalf("header mapping broken: %v", row)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	tab := newPeopleTable(t)
	if _, err := LoadCSV(tab, strings.NewReader("notanint,ada\n"), CSVOptions{}); err == nil {
		t.Fatal("non-integer id should fail")
	}
	tab2 := newPeopleTable(t)
	if _, err := LoadCSV(tab2, strings.NewReader("1\n"), CSVOptions{}); err == nil {
		t.Fatal("missing field should fail")
	}
	tab3 := newPeopleTable(t)
	if _, err := LoadCSV(tab3, strings.NewReader("wrong,header\n1,ada\n"), CSVOptions{Header: true}); err == nil {
		t.Fatal("header without required columns should fail")
	}
	tab4 := newPeopleTable(t)
	if _, err := LoadCSV(tab4, strings.NewReader("1,ada\n1,dup\n"), CSVOptions{}); err == nil {
		t.Fatal("duplicate key should surface the insert error")
	}
}

func TestLoadCSVTrimAndDelimiter(t *testing.T) {
	tab := newPeopleTable(t)
	data := " 1 ; ada \n 2 ; alan \n"
	n, err := LoadCSV(tab, strings.NewReader(data), CSVOptions{Comma: ';', TrimSpace: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("inserted %d", n)
	}
	row, _ := tab.Lookup("1")
	if row[1].Str() != "ada" {
		t.Fatalf("trim broken: %q", row[1].Str())
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	tab := newPeopleTable(t)
	if _, err := LoadCSV(tab, strings.NewReader("1,ada lovelace\n2,\"alan, turing\"\n"), CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	tab2 := newPeopleTable(t)
	n, err := LoadCSV(tab2, &buf, CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("round trip inserted %d", n)
	}
	row, _ := tab2.Lookup("2")
	if row[1].Str() != "alan, turing" {
		t.Fatalf("quoted field broken: %q", row[1].Str())
	}
}

// newCaseTable is a table whose string primary key is composite and
// whose columns Name and name differ only in case.
func newCaseTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewDatabase().CreateTable(Schema{
		Name: "T",
		Columns: []Column{
			{Name: "A", Type: String},
			{Name: "B", Type: String},
			{Name: "Name", Type: String},
			{Name: "name", Type: Int},
		},
		PrimaryKey: []string{"A", "B"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// firstDiffRow returns the first row where two tables differ, or -1.
func firstDiffRow(a, b *Table) int {
	for i := 0; i < max(a.Len(), b.Len()); i++ {
		if i >= a.Len() || i >= b.Len() {
			return i
		}
		ra, rb := a.Row(i), b.Row(i)
		for c := range ra {
			if ra[c] != rb[c] {
				return i
			}
		}
	}
	return -1
}

// TestDumpLoadRoundTripCaseColliding: columns whose names differ only
// in case each load from their own header field, so DumpCSV → LoadCSV
// is the identity; a header that names a column only up to case still
// matches it, and one that does so twice is refused.
func TestDumpLoadRoundTripCaseColliding(t *testing.T) {
	tab := newCaseTable(t)
	if _, err := LoadCSV(tab, strings.NewReader("x,y,alpha,1\nx|y,z,beta,2\n"), CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := DumpCSV(tab, &buf); err != nil {
		t.Fatal(err)
	}
	back := newCaseTable(t)
	if _, err := LoadCSV(back, &buf, CSVOptions{Header: true}); err != nil {
		t.Fatal(err)
	}
	if i := firstDiffRow(tab, back); i >= 0 {
		t.Fatalf("round trip changed row %d: %v → %v", i, tab.Row(i), back.Row(min(i, back.Len()-1)))
	}

	folded := newCaseTable(t)
	if _, err := LoadCSV(folded, strings.NewReader("a, b ,NAME,name\nx,y,alpha,1\n"), CSVOptions{Header: true}); err == nil {
		t.Fatal("NAME matched both Name and name, and the load was accepted")
	}
	people := newPeopleTable(t)
	if _, err := LoadCSV(people, strings.NewReader("NAME,ID\nada,1\n"), CSVOptions{Header: true}); err != nil {
		t.Fatalf("case-only header match refused: %v", err)
	}
	if row, _ := people.Lookup("1"); row[1].Str() != "ada" {
		t.Fatalf("case-only header match loaded %v", row)
	}
	for _, header := range []string{"Id,Name,Name", "Id,NAME,name"} {
		if _, err := LoadCSV(newPeopleTable(t), strings.NewReader(header+"\n1,ada,lovelace\n"), CSVOptions{Header: true}); err == nil {
			t.Errorf("header %q names Name twice and was accepted", header)
		}
	}
}

// FuzzLoadCSV: LoadCSV never panics; whatever it loads survives DumpCSV
// → LoadCSV into a fresh table row for row; and a row it refuses as a
// duplicate key (positional input) has the key of a row it accepted.
func FuzzLoadCSV(f *testing.F) {
	f.Add("x|y,z,alpha,1\nx,y|z,beta,2\nx\\,y,gamma,3\n", false)
	f.Add("x,y,alpha,1\nx,y,again,2\n", false)
	f.Add("A,B,Name,name\nx,y,alpha,1\n\"q,\"\"r\",s, beta ,-4\n", true)
	f.Add("name,B,A,NAME\n7,y,x,alpha\n", true)
	f.Add("a;b\n1,2\n\"open", false)
	f.Fuzz(func(t *testing.T, data string, header bool) {
		tab := newCaseTable(t)
		n, err := LoadCSV(tab, strings.NewReader(data), CSVOptions{Header: header})
		if n != tab.Len() {
			t.Fatalf("LoadCSV reported %d rows, table holds %d", n, tab.Len())
		}
		if err != nil && !header && strings.Contains(err.Error(), "duplicate primary key") {
			cr := csv.NewReader(strings.NewReader(data))
			cr.FieldsPerRecord = -1
			var refused []string
			for i := 0; i <= n; i++ {
				if refused, err = cr.Read(); err != nil {
					t.Fatalf("record %d no longer parses: %v", i, err)
				}
			}
			dup := false
			for i := 0; i < n && !dup; i++ {
				dup = tab.Row(i)[0].Str() == refused[0] && tab.Row(i)[1].Str() == refused[1]
			}
			if !dup {
				t.Fatalf("refused %q as a duplicate, but no loaded row has its key", refused)
			}
		}
		var buf bytes.Buffer
		if err := DumpCSV(tab, &buf); err != nil {
			t.Fatal(err)
		}
		dump := buf.String()
		back := newCaseTable(t)
		if _, err := LoadCSV(back, &buf, CSVOptions{Header: true}); err != nil {
			t.Fatalf("reloading the dump: %v\n%s", err, dump)
		}
		if i := firstDiffRow(tab, back); i >= 0 {
			t.Fatalf("round trip changed row %d:\n%s", i, dump)
		}
	})
}
