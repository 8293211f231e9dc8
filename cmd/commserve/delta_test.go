package main

// The delta-mode serving test: a live server absorbing a stream of
// delta-driven republishes through the epoch-versioned snapshot path
// while concurrent NDJSON streaming clients hammer it. The invariants,
// under -race:
//
//   - every applied batch becomes a fresh serving epoch (≥10 swaps);
//   - zero dropped queries: every stream issued during the storm ends
//     with a complete trailer;
//   - the maintainer's counters surface in /statsz ("deltas") and
//     /metricsz (commdb_delta_*).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"commdb/internal/datagen"
	"commdb/internal/delta"
	"commdb/internal/server"
	"commdb/internal/snapshot"
)

// streamAll runs one NDJSON query; any outcome but a complete trailer
// is a dropped query.
func streamAll(client *http.Client, url string) error {
	body := bytes.NewReader([]byte(`{"keywords":["database"],"rmax":3}`))
	resp, err := client.Post(url+"/v1/search/all", "application/json", body)
	if err != nil {
		return fmt.Errorf("request failed: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	sawTrailer := false
	for sc.Scan() {
		var rec struct {
			Type     string `json:"type"`
			Complete bool   `json:"complete"`
			Reason   string `json:"reason"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("bad NDJSON line: %w", err)
		}
		if rec.Type == server.RecordTrailer {
			sawTrailer = true
			if !rec.Complete {
				return fmt.Errorf("incomplete stream: %s", rec.Reason)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("stream read: %w", err)
	}
	if !sawTrailer {
		return fmt.Errorf("stream ended without a trailer (dropped query)")
	}
	return nil
}

func TestDeltaServeLiveRepublish(t *testing.T) {
	if testing.Short() {
		t.Skip("live republish suite is slow")
	}
	dir := t.TempDir()

	// Base dump + mutation stream, exactly as cmd/datagen emits them.
	db, err := datagen.GenerateDBLP(datagen.DBLPParams{Authors: 60, Seed: 9})
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
	ops, err := datagen.Mutations(db, datagen.MutationParams{N: 120, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 12
	per := len(ops) / chunks

	logPath := filepath.Join(dir, "muts.ndjson")
	w, err := delta.OpenLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	// Assemble the delta-mode serving stack run() builds.
	pipe, err := newDeltaPipeline(dumpPath, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := pipe.loader(1)(nil)
	if err != nil {
		t.Fatal(err)
	}
	mgr := snapshot.New(s, snapshot.Config{
		Load: pipe.loader(1),
		Logf: t.Logf,
	})
	srv := server.New(s, server.Config{
		MaxConcurrent: 8,
		MaxQueue:      64,
		Snapshots:     mgr,
		Deltas:        pipe.m.Stats,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	var followDone sync.WaitGroup
	followDone.Add(1)
	go func() {
		defer followDone.Done()
		if err := pipe.follow(ctx, logPath, 20*time.Millisecond, mgr); err != nil {
			t.Errorf("follow loop: %v", err)
		}
	}()
	// The follow loop must be stopped before the test returns: its Logf
	// is t.Logf, and the manager must not reload into a closed server.
	defer followDone.Wait()
	defer cancel()

	// Concurrent streaming clients, running through every republish.
	stop := make(chan struct{})
	var clients sync.WaitGroup
	var mu sync.Mutex
	var clientErrs []error
	completed := 0
	for c := 0; c < 3; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := streamAll(client, ts.URL)
				mu.Lock()
				if err != nil {
					clientErrs = append(clientErrs, err)
				} else {
					completed++
				}
				mu.Unlock()
			}
		}()
	}

	// Feed the stream chunk by chunk, waiting for each batch's epoch
	// swap before the next append so republishes don't coalesce.
	for i := 0; i < chunks; i++ {
		chunk := ops[i*per : (i+1)*per]
		if i == chunks-1 {
			chunk = ops[i*per:]
		}
		epoch := mgr.Current()
		if err := w.Append(chunk...); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for mgr.Current() == epoch {
			if time.Now().After(deadline) {
				t.Fatalf("chunk %d: no epoch swap after 20s (epoch still %d, stats %+v)",
					i, epoch, pipe.m.Stats())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	close(stop)
	clients.Wait()

	if len(clientErrs) > 0 {
		t.Fatalf("%d dropped/failed queries (of %d completed); first: %v",
			len(clientErrs), completed, clientErrs[0])
	}
	if completed == 0 {
		t.Fatal("no client queries completed")
	}
	st := pipe.m.Stats()
	if st.Republishes < 10 {
		t.Fatalf("only %d delta-driven republishes, want >= 10", st.Republishes)
	}
	if st.PartialFallbacks != 0 {
		t.Fatalf("%d partial fallbacks under live traffic", st.PartialFallbacks)
	}
	if got := mgr.Current(); got < 10 {
		t.Fatalf("serving epoch %d after %d batches, want >= 10 swaps", got, chunks)
	}
	t.Logf("served %d streams across %d epochs (%d batches, %d ops)",
		completed, mgr.Current(), st.Batches, st.Ops)

	// The maintainer's counters are visible on both monitoring surfaces.
	statsResp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var snap struct {
		Deltas *delta.Stats `json:"deltas"`
	}
	if err := json.NewDecoder(statsResp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Deltas == nil || snap.Deltas.Batches != st.Batches {
		t.Fatalf("/statsz deltas block = %+v, want %d batches", snap.Deltas, st.Batches)
	}
	metResp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer metResp.Body.Close()
	met, err := io.ReadAll(metResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`commdb_delta_applied_total{kind="insert"}`,
		"commdb_delta_batches_total",
		"commdb_delta_dirty_terms",
		"commdb_delta_full_build_ms",
		"commdb_delta_republishes_total",
	} {
		if !strings.Contains(string(met), want) {
			t.Fatalf("/metricsz missing %s", want)
		}
	}
}
