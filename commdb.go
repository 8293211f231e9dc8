// Package commdb implements community search over relational databases,
// reproducing "Querying Communities in Relational Databases" (Qin, Yu,
// Chang, Tao — ICDE 2009).
//
// A relational database is materialized as a weighted directed graph
// G_D whose nodes are tuples and whose edges are foreign-key
// references. For an l-keyword query {k_1, …, k_l} with a radius Rmax,
// a community is a multi-center induced subgraph: one keyword node per
// keyword (the core), every center node within distance Rmax of all
// core nodes, and every path node on a short enough center→keyword
// path. The package enumerates all communities, or the top-k by cost,
// in polynomial delay — and the top-k enumerator lets the caller keep
// asking for more results without recomputation.
//
// # Quick start
//
//	g, _ := commdb.PaperExampleGraph()
//	s, _ := commdb.Open(g)
//	it, _ := s.TopK(commdb.Query{Keywords: []string{"a", "b", "c"}, Rmax: 8})
//	for {
//	    r, ok := it.Next()
//	    if !ok {
//	        break
//	    }
//	    fmt.Println(r.Cost, r.Core)
//	}
//
// For large graphs, open with commdb.WithIndex: queries then run on a
// small projected subgraph (Section VI of the paper) with identical
// results.
package commdb

import (
	"io"

	"commdb/internal/core"
	"commdb/internal/datagen"
	"commdb/internal/graph"
	"commdb/internal/relational"
)

// Re-exported data types. The implementation lives in internal
// packages; these aliases are the supported public names.
type (
	// Graph is the immutable weighted directed database graph G_D.
	Graph = graph.Graph
	// GraphBuilder accumulates nodes and edges into a Graph.
	GraphBuilder = graph.Builder
	// NodeID identifies a node of a Graph.
	NodeID = graph.NodeID
	// EdgePair names a directed edge by its endpoints.
	EdgePair = graph.EdgePair
	// GraphStats summarizes a graph's structure.
	GraphStats = graph.Stats

	// Community is a materialized multi-center community.
	Community = core.Community
	// Core is the identity of a community: one keyword node per query
	// keyword.
	Core = core.Core
	// CoreCost pairs a core with its community cost.
	CoreCost = core.CoreCost

	// Database is the miniature relational substrate.
	Database = relational.Database
	// Schema describes a table.
	Schema = relational.Schema
	// Column describes one attribute.
	Column = relational.Column
	// ForeignKey declares a reference between tables.
	ForeignKey = relational.ForeignKey
	// Value is one typed attribute value.
	Value = relational.Value
	// NodeMap translates between graph nodes and database tuples.
	NodeMap = relational.NodeMap
	// NodeRef identifies the tuple behind a graph node.
	NodeRef = relational.NodeRef
)

// Column type constants for Schema definitions.
const (
	Int    = relational.Int
	String = relational.String
)

// IntV builds an integer Value.
func IntV(v int64) Value { return relational.IntV(v) }

// StrV builds a string Value.
func StrV(v string) Value { return relational.StrV(v) }

// NewGraphBuilder returns an empty graph builder.
func NewGraphBuilder() *GraphBuilder { return graph.NewBuilder() }

// NewDatabase returns an empty relational database.
func NewDatabase() *Database { return relational.NewDatabase() }

// GraphStatsOf scans a graph and summarizes its structure.
func GraphStatsOf(g *Graph) GraphStats { return graph.ComputeStats(g) }

// WriteGraph serializes a graph in the package's binary format.
func WriteGraph(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// ReadGraph deserializes a graph written by WriteGraph. A damaged file
// — truncated, a flipped byte, an older format — fails with an error
// wrapping ErrCorruptGraph; it never loads as a different graph.
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// ErrCorruptGraph is returned by ReadGraph when the serialized graph
// fails validation. The error is permanent for that file — reading the
// same bytes again cannot succeed. Match with errors.Is.
var ErrCorruptGraph = graph.ErrCorruptGraph

// PaperExampleGraph returns the 13-node running example of the paper
// (Fig. 4): keywords "a", "b", "c" with Rmax 8 yield exactly the five
// communities of Table I.
func PaperExampleGraph() (*Graph, []NodeID) { return core.PaperGraph() }

// IntroExampleGraph returns the introduction's co-authorship example
// (Fig. 1): the 2-keyword query {kate, smith} with radius 6 yields the
// two communities of Fig. 3. The map gives node IDs by name ("paper1",
// "paper2", "john", "kate", "jim").
func IntroExampleGraph() (*Graph, map[string]NodeID) { return core.IntroGraph() }

// GenerateDBLP builds a synthetic DBLP-shaped bibliographic database
// (Author, Paper, Write, Cite) calibrated to the statistics of the
// paper's real dataset. authors scales the dataset (the real snapshot
// corresponds to 597000).
func GenerateDBLP(authors int, seed int64) (*Database, error) {
	return datagen.GenerateDBLP(datagen.DBLPParams{Authors: authors, Seed: seed})
}

// GenerateIMDB builds a synthetic IMDB-shaped database (Users, Movies,
// Ratings) calibrated to the paper's real dataset. users scales the
// dataset (the real set has 6040); avgRatings 0 keeps the real density
// of 165.60 ratings per user.
func GenerateIMDB(users int, avgRatings float64, seed int64) (*Database, error) {
	return datagen.GenerateIMDB(datagen.IMDBParams{Users: users, AvgRatingsPerUser: avgRatings, Seed: seed})
}

// GraphFromDatabase materializes a relational database as its database
// graph, with the paper's edge weight w_e((u,v)) = log2(1 + N_in(v)).
// The returned NodeMap translates community nodes back to tuples.
func GraphFromDatabase(db *Database) (*Graph, *NodeMap, error) {
	return db.ToGraph()
}

// CSVOptions controls LoadCSV.
type CSVOptions = relational.CSVOptions

// LoadCSV bulk-inserts CSV rows into a table, converting fields to the
// schema's column types. See relational.LoadCSV.
func LoadCSV(t *relational.Table, r io.Reader, opt CSVOptions) (int, error) {
	return relational.LoadCSV(t, r, opt)
}

// DumpCSV writes a table as CSV with a header row.
func DumpCSV(t *relational.Table, w io.Writer) error {
	return relational.DumpCSV(t, w)
}

// Table is one relation of a Database.
type Table = relational.Table
