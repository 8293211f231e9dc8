package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// CSVOptions controls LoadCSV.
type CSVOptions struct {
	// Header indicates the first record names columns; rows are then
	// matched by name (any order, extra columns ignored). A column takes
	// the one field spelling its name exactly, else the one field equal
	// to it up to case; none, or more than one, fails the load. Without
	// a header, values are positional and must match the schema's arity.
	Header bool
	// Comma overrides the field delimiter (default ',').
	Comma rune
	// TrimSpace trims surrounding whitespace from every field.
	TrimSpace bool
}

// LoadCSV bulk-inserts rows from CSV data into the table, converting
// fields to the schema's column types. It returns the number of rows
// inserted; the first conversion or constraint error aborts the load
// with the offending line number.
//
// This is how real dumps (e.g. an actual DBLP export) are brought into
// the engine instead of the synthetic generators.
func LoadCSV(t *Table, r io.Reader, opt CSVOptions) (int, error) {
	cr := csv.NewReader(r)
	if opt.Comma != 0 {
		cr.Comma = opt.Comma
	}
	cr.FieldsPerRecord = -1 // validated manually for better messages

	cols := t.Schema().Columns
	// order[i] is the record field index feeding column i.
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}

	line := 0
	if opt.Header {
		rec, err := cr.Read()
		if err != nil {
			return 0, fmt.Errorf("relational: reading CSV header: %w", err)
		}
		line++
		for i, c := range cols {
			idx, n := headerField(rec, c.Name)
			switch {
			case n == 0:
				return 0, fmt.Errorf("relational: CSV header missing column %s.%s", t.Schema().Name, c.Name)
			case n > 1:
				return 0, fmt.Errorf("relational: CSV header names column %s.%s %d times", t.Schema().Name, c.Name, n)
			}
			order[i] = idx
		}
	}

	inserted := 0
	vals := make([]Value, len(cols))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return inserted, nil
		}
		if err != nil {
			return inserted, fmt.Errorf("relational: CSV line %d: %w", line+1, err)
		}
		line++
		for i, c := range cols {
			if order[i] >= len(rec) {
				return inserted, fmt.Errorf("relational: CSV line %d: %d fields, column %s needs field %d",
					line, len(rec), c.Name, order[i]+1)
			}
			field := rec[order[i]]
			if opt.TrimSpace {
				field = strings.TrimSpace(field)
			}
			switch c.Type {
			case Int:
				n, err := strconv.ParseInt(field, 10, 64)
				if err != nil {
					return inserted, fmt.Errorf("relational: CSV line %d: column %s: %q is not an integer",
						line, c.Name, field)
				}
				vals[i] = IntV(n)
			default:
				vals[i] = StrV(field)
			}
		}
		if err := t.Insert(vals...); err != nil {
			return inserted, fmt.Errorf("relational: CSV line %d: %w", line, err)
		}
		inserted++
	}
}

// headerField finds the header field naming a column: a field spelling
// the name exactly, else a field equal to it up to case, comparing
// fields with surrounding space trimmed. It returns the last such field
// and how many there are at the tier that decided; only a count of one
// is a match.
func headerField(header []string, name string) (idx, n int) {
	folded, nFolded := 0, 0
	for i, h := range header {
		h = strings.TrimSpace(h)
		if h == name {
			idx, n = i, n+1
		}
		if strings.EqualFold(h, name) {
			folded, nFolded = i, nFolded+1
		}
	}
	if n > 0 {
		return idx, n
	}
	return folded, nFolded
}

// DumpCSV writes the table as CSV with a header row, the inverse of
// LoadCSV.
func DumpCSV(t *Table, w io.Writer) error {
	cw := csv.NewWriter(w)
	cols := t.Schema().Columns
	header := make([]string, len(cols))
	for i, c := range cols {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(cols))
	for r := 0; r < t.Len(); r++ {
		row := t.Row(r)
		for i := range cols {
			rec[i] = row[i].String()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
