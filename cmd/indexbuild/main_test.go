package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"commdb"
	"commdb/internal/datagen"
	"commdb/internal/delta"
	"commdb/internal/index"
)

func TestIndexBuildEndToEnd(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.graph")
	indexPath := filepath.Join(dir, "g.index")

	// Save a graph.
	db, err := commdb.GenerateDBLP(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := commdb.GraphFromDatabase(db)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := commdb.WriteGraph(f, g); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Build + save the index.
	if err := run(context.Background(), graphPath, "", 7, indexPath, "", "", 0); err != nil {
		t.Fatal(err)
	}

	// Load everything back and query.
	gf, err := os.Open(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	defer gf.Close()
	g2, err := commdb.ReadGraph(gf)
	if err != nil {
		t.Fatal(err)
	}
	xf, err := os.Open(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	defer xf.Close()
	s, err := commdb.Open(g2, commdb.WithIndexReader(xf))
	if err != nil {
		t.Fatal(err)
	}
	it, err := s.TopK(commdb.Query{Keywords: []string{"database", "graph"}, Rmax: 7})
	if err != nil {
		t.Fatal(err)
	}
	it.Collect(5) // must not error; result count depends on the seed
}

func TestIndexBuildErrors(t *testing.T) {
	ctx := context.Background()
	if err := run(ctx, "", "", 8, "x", "", "", 0); err == nil {
		t.Fatal("missing inputs should error")
	}
	if err := run(ctx, "x", "", 8, "", "", "", 0); err == nil {
		t.Fatal("missing out should error")
	}
	if err := run(ctx, "/nonexistent", "", 8, filepath.Join(t.TempDir(), "x"), "", "", 0); err == nil {
		t.Fatal("missing graph file should error")
	}
	if err := run(ctx, "a", "b", 8, "x", "", "", 0); err == nil {
		t.Fatal("-graph with -db should error")
	}
	if err := run(ctx, "a", "", 8, "x", "", "muts", 0); err == nil {
		t.Fatal("-follow without -db should error")
	}
	if err := run(ctx, "", "a", 8, "x", "", "muts", 0); err == nil {
		t.Fatal("-follow without -out-graph should error")
	}
}

// A one-shot -db build must publish the same artifacts as the classic
// -graph path for the same database state.
func TestIndexBuildFromDump(t *testing.T) {
	dir := t.TempDir()
	db, err := datagen.GenerateDBLP(datagen.DBLPParams{Authors: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "base.ndjson")
	df, err := os.Create(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.DumpDatabase(df, db); err != nil {
		t.Fatal(err)
	}
	df.Close()

	outIx := filepath.Join(dir, "db.index")
	outG := filepath.Join(dir, "db.graph")
	if err := run(context.Background(), "", dumpPath, 5, outIx, outG, "", 0); err != nil {
		t.Fatal(err)
	}

	g, _, err := db.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(g, index.BuildOptions{R: 5})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := ix.Write(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(outIx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("-db index differs from a direct build of the same database")
	}
	if fi, err := os.Stat(outG); err != nil || fi.Size() == 0 {
		t.Fatalf("graph artifact missing or empty: %v", err)
	}
}

// Follow mode: appending ops to the tailed log must republish both
// artifacts, and the final pair must match a from-scratch build of the
// mutated database.
func TestIndexBuildFollow(t *testing.T) {
	dir := t.TempDir()
	db, err := datagen.GenerateDBLP(datagen.DBLPParams{Authors: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	dumpPath := filepath.Join(dir, "base.ndjson")
	df, err := os.Create(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := delta.DumpDatabase(df, db); err != nil {
		t.Fatal(err)
	}
	df.Close()
	// Generate the stream on a scratch copy so db above is untouched;
	// mutations apply as they are generated.
	ops, err := datagen.Mutations(db, datagen.MutationParams{N: 25, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	logPath := filepath.Join(dir, "muts.ndjson")
	w, err := delta.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	outIx := filepath.Join(dir, "live.index")
	outG := filepath.Join(dir, "live.graph")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, "", dumpPath, 4, outIx, outG, logPath, 30*time.Millisecond)
	}()

	// Wait for the initial publish.
	waitForFile(t, outIx)
	before, err := os.ReadFile(outIx)
	if err != nil {
		t.Fatal(err)
	}

	// Feed the stream in two appends and wait for the artifact to
	// change each time.
	half := len(ops) / 2
	for _, chunk := range [][]delta.Op{ops[:half], ops[half:]} {
		if err := w.Append(chunk...); err != nil {
			t.Fatal(err)
		}
		before = waitForChange(t, outIx, before)
	}

	cancel()
	if err := <-done; err != nil {
		t.Fatalf("follow loop exited with error: %v", err)
	}

	// The final artifacts match a from-scratch build of the mutated
	// database — db already carries the full stream (Mutations applied
	// the ops while generating them).
	g, _, err := db.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.Build(g, index.BuildOptions{R: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wantIx bytes.Buffer
	if err := ix.Write(&wantIx); err != nil {
		t.Fatal(err)
	}
	gotIx, err := os.ReadFile(outIx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotIx, wantIx.Bytes()) {
		t.Fatal("final followed index differs from a full rebuild of the mutated database")
	}
	var wantG bytes.Buffer
	if err := commdb.WriteGraph(&wantG, g); err != nil {
		t.Fatal(err)
	}
	gotG, err := os.ReadFile(outG)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotG, wantG.Bytes()) {
		t.Fatal("final followed graph differs from a full rebuild of the mutated database")
	}
}

func waitForFile(t *testing.T, path string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if fi, err := os.Stat(path); err == nil && fi.Size() > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", path)
}

// waitForChange polls path until its contents differ from prev and
// returns the new contents.
func waitForChange(t *testing.T, path string, prev []byte) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		cur, err := os.ReadFile(path)
		if err == nil && len(cur) > 0 && !bytes.Equal(cur, prev) {
			return cur
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s to change", path)
	return nil
}

func TestIndexBuildAtomicPublish(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "a.index")

	if err := writeAtomic(out, func(w io.Writer) error {
		_, err := w.Write([]byte("first artifact"))
		return err
	}); err != nil {
		t.Fatal(err)
	}

	// A writer that fails mid-stream must not disturb the published file
	// and must clean up its temp file.
	err := writeAtomic(out, func(w io.Writer) error {
		if _, err := w.Write([]byte("torn ")); err != nil {
			return err
		}
		return errors.New("disk went away")
	})
	if err == nil {
		t.Fatal("failed write should surface its error")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first artifact" {
		t.Fatalf("published artifact disturbed by failed write: %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "a.index" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("temp files left behind: %v", names)
	}
}
