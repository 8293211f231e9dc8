package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"commdb"
	"commdb/internal/delta"
)

func baseOpts(dataset, out string) options {
	return options{
		dataset: dataset, authors: 50, users: 30, avgRatings: 8,
		seed: 1, out: out, mutationSeed: 1,
	}
}

func TestRunDBLP(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dblp.graph")
	if err := run(baseOpts("dblp", out)); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := commdb.ReadGraph(f)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("written graph is empty")
	}
	// The written graph answers queries.
	s, err := commdb.Open(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TopK(commdb.Query{Keywords: []string{"database"}, Rmax: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestRunIMDB(t *testing.T) {
	out := filepath.Join(t.TempDir(), "imdb.graph")
	if err := run(baseOpts("imdb", out)); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("output file missing or empty: %v", err)
	}
}

// -db-out and -mutations produce a replayable dump + stream pair: the
// dump loads into a database whose graph matches -out, and the stream
// replays cleanly on top of it. The same flags with the same seeds
// must produce byte-identical files.
func TestRunMutationStream(t *testing.T) {
	dir := t.TempDir()
	o := baseOpts("dblp", filepath.Join(dir, "base.graph"))
	o.dbOut = filepath.Join(dir, "base.ndjson")
	o.mutations = 40
	o.mutationsOut = filepath.Join(dir, "muts.ndjson")
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	dump, err := os.ReadFile(o.dbOut)
	if err != nil {
		t.Fatal(err)
	}
	db, err := delta.LoadDatabase(bytes.NewReader(dump))
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := db.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	var gbuf bytes.Buffer
	if err := commdb.WriteGraph(&gbuf, g); err != nil {
		t.Fatal(err)
	}
	baseGraph, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gbuf.Bytes(), baseGraph) {
		t.Fatal("graph of the loaded dump differs from the -out graph")
	}

	// The stream replays onto the loaded base without a single
	// rejection.
	mf, err := os.Open(o.mutationsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	n, err := delta.Replay(mf, db)
	if err != nil {
		t.Fatal(err)
	}
	if n < o.mutations {
		t.Fatalf("stream replayed %d ops, want at least %d", n, o.mutations)
	}

	// Determinism: the same invocation into fresh files produces the
	// same bytes.
	o2 := o
	o2.out = filepath.Join(dir, "base2.graph")
	o2.dbOut = filepath.Join(dir, "base2.ndjson")
	o2.mutationsOut = filepath.Join(dir, "muts2.ndjson")
	if err := run(o2); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{o.dbOut, o2.dbOut}, {o.mutationsOut, o2.mutationsOut}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s and %s differ: the generator is not deterministic", pair[0], pair[1])
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(baseOpts("dblp", "")); err == nil {
		t.Fatal("no outputs should error")
	}
	if err := run(baseOpts("nope", "/tmp/x")); err == nil {
		t.Fatal("unknown dataset should error")
	}
	tiny := baseOpts("dblp", filepath.Join(t.TempDir(), "x"))
	tiny.authors = 1
	if err := run(tiny); err == nil {
		t.Fatal("tiny scale should surface generator error")
	}
	if err := run(baseOpts("dblp", "/nonexistent-dir/x.graph")); err == nil {
		t.Fatal("unwritable path should error")
	}
	noOut := baseOpts("dblp", "")
	noOut.mutations = 5
	if err := run(noOut); err == nil {
		t.Fatal("-mutations without -mutations-out should error")
	}
}
