package server

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"commdb"
)

// FuzzSearchRequest drives the request boundary with arbitrary bytes:
// decoding, query normalization and limit clamping never panic, an
// accepted query carries its normalized keywords, and every integer
// budget the server bounds comes out inside (0, max] whatever the
// client sent.
func FuzzSearchRequest(f *testing.F) {
	f.Add([]byte(`{"keywords":["a","b","c"],"rmax":8,"k":5}`))
	f.Add([]byte(`{"keywords":["C","b","A"],"rmax":8,"cost":"max","compact":true,"trace":true}`))
	f.Add([]byte(`{"keywords":["a"],"limits":{"max_results":-1,"max_relaxations":-9,"timeout_ms":-1}}`))
	f.Add([]byte(`{"keywords":["x"],"limits":{"max_neighbor_runs":9223372036854775807,"max_can_tuples":0,"max_heap_bytes":1}}`))
	f.Add([]byte(`{"keywords":[],"cost":"avg"}`))
	f.Add([]byte(`{"keywords":[""," ","Ünïcode  Wörds"]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{`))

	max := commdb.Limits{Timeout: 30 * time.Second, MaxRelaxations: 1 << 20, MaxNeighborRuns: 1000,
		MaxCanTuples: 5000, MaxHeapBytes: 64 << 20, MaxResults: 100}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SearchRequest
		if err := json.Unmarshal(data, &req); err != nil {
			return
		}
		if q, err := req.Query(); err == nil {
			if len(q.Keywords) == 0 || len(q.Keywords) != len(req.Keywords) || q.Ranker == nil {
				t.Fatalf("Query(%q) = %+v", data, q)
			}
			if !sort.StringsAreSorted(q.Keywords) || !reflect.DeepEqual(q.Normalized().Keywords, q.Keywords) {
				t.Fatalf("Query(%q) keywords %q are not normalized", data, q.Keywords)
			}
		}
		got := ClampLimits(req.Limits.Limits(), max)
		for _, c := range []struct {
			name     string
			got, max int64
		}{
			{"max_relaxations", got.MaxRelaxations, max.MaxRelaxations},
			{"max_neighbor_runs", got.MaxNeighborRuns, max.MaxNeighborRuns},
			{"max_can_tuples", got.MaxCanTuples, max.MaxCanTuples},
			{"max_heap_bytes", got.MaxHeapBytes, max.MaxHeapBytes},
			{"max_results", got.MaxResults, max.MaxResults},
		} {
			if c.got <= 0 || c.got > c.max {
				t.Fatalf("%q: clamped %s = %d, want within (0, %d]", data, c.name, c.got, c.max)
			}
		}
	})
}
