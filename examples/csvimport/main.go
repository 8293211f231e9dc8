// CSV import example: bring your own relational data.
//
// It builds a small project-staffing database from CSV text (the same
// path real dumps take), materializes the database graph, and compares
// the default sum-cost ranking with the max-distance aggregate — the
// paper's note that its algorithms do not depend on a specific cost
// function, as an API knob.
package main

import (
	"fmt"
	"strings"

	"commdb"
)

const peopleCSV = `id,name
1,ada security
2,alan crypto
3,grace systems
4,linus kernels
5,barbara databases
`

const projectsCSV = `id,title
10,project hydra security kernels
11,project nile databases crypto
`

const staffedCSV = `person,project
1,10
2,10
4,10
2,11
3,11
5,11
`

func main() {
	db := commdb.NewDatabase()
	people, err := db.CreateTable(commdb.Schema{
		Name: "People",
		Columns: []commdb.Column{
			{Name: "Id", Type: commdb.Int},
			{Name: "Name", Type: commdb.String, FullText: true},
		},
		PrimaryKey: []string{"Id"},
	})
	check(err)
	projects, err := db.CreateTable(commdb.Schema{
		Name: "Projects",
		Columns: []commdb.Column{
			{Name: "Id", Type: commdb.Int},
			{Name: "Title", Type: commdb.String, FullText: true},
		},
		PrimaryKey: []string{"Id"},
	})
	check(err)
	staffed, err := db.CreateTable(commdb.Schema{
		Name: "Staffed",
		Columns: []commdb.Column{
			{Name: "Person", Type: commdb.Int},
			{Name: "Project", Type: commdb.Int},
		},
		PrimaryKey: []string{"Person", "Project"},
	})
	check(err)
	check(db.AddForeignKey(commdb.ForeignKey{FromTable: "Staffed", FromColumn: "Person", ToTable: "People"}))
	check(db.AddForeignKey(commdb.ForeignKey{FromTable: "Staffed", FromColumn: "Project", ToTable: "Projects"}))

	for _, load := range []struct {
		table *commdb.Table
		data  string
	}{
		{people, peopleCSV}, {projects, projectsCSV}, {staffed, staffedCSV},
	} {
		n, err := commdb.LoadCSV(load.table, strings.NewReader(load.data), commdb.CSVOptions{Header: true})
		check(err)
		fmt.Printf("loaded %d rows into %s\n", n, load.table.Schema().Name)
	}

	g, nodeMap, err := commdb.GraphFromDatabase(db)
	check(err)
	fmt.Printf("graph: %s\n\n", commdb.GraphStatsOf(g))

	s, err := commdb.Open(g)
	check(err)
	for _, cost := range []struct {
		name   string
		ranker commdb.Ranker
	}{
		{"sum of distances (paper default)", commdb.SumRanker()},
		{"max distance (alternative aggregate)", commdb.MaxRanker()},
	} {
		fmt.Printf("query {security, databases}, Rmax 12, cost = %s:\n", cost.name)
		it, err := s.TopK(commdb.Query{Keywords: []string{"security", "databases"}, Rmax: 12, Ranker: cost.ranker})
		check(err)
		for rank := 1; ; rank++ {
			r, ok := it.Next()
			if !ok {
				break
			}
			var names []string
			for _, v := range r.Core {
				ref := nodeMap.Ref(v)
				names = append(names, fmt.Sprintf("%s.%s", ref.Table, ref.PK))
			}
			fmt.Printf("  rank %d cost %.2f: core [%s], %d centers, %d nodes\n",
				rank, r.Cost, strings.Join(names, " "), len(r.Cnodes), len(r.Nodes))
		}
		fmt.Println()
	}
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
