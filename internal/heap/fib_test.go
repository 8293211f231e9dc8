package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func drain[T any](h *Fib[T]) []float64 {
	var out []float64
	for h.Len() > 0 {
		out = append(out, h.ExtractMin().Key)
	}
	return out
}

func TestFibEmpty(t *testing.T) {
	h := NewFib[int]()
	if h.Len() != 0 {
		t.Fatalf("Len of empty heap = %d, want 0", h.Len())
	}
	if h.Min() != nil {
		t.Fatal("Min of empty heap should be nil")
	}
	if h.ExtractMin() != nil {
		t.Fatal("ExtractMin of empty heap should be nil")
	}
}

func TestFibSingle(t *testing.T) {
	h := NewFib[string]()
	h.Insert(3.5, "x")
	if h.Len() != 1 {
		t.Fatalf("Len = %d, want 1", h.Len())
	}
	if got := h.Min(); got == nil || got.Key != 3.5 || got.Value != "x" {
		t.Fatalf("Min = %+v, want key 3.5 value x", got)
	}
	n := h.ExtractMin()
	if n == nil || n.Key != 3.5 || n.Value != "x" {
		t.Fatalf("ExtractMin = %+v", n)
	}
	if h.Len() != 0 || h.Min() != nil {
		t.Fatal("heap should be empty after extracting the only node")
	}
}

func TestFibSortsRandomInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200) + 1
		h := NewFib[int]()
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = rng.NormFloat64() * 100
			h.Insert(keys[i], i)
		}
		got := drain(h)
		sort.Float64s(keys)
		if len(got) != n {
			t.Fatalf("drained %d keys, want %d", len(got), n)
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("trial %d: position %d = %v, want %v", trial, i, got[i], keys[i])
			}
		}
	}
}

func TestFibDuplicateKeys(t *testing.T) {
	h := NewFib[int]()
	for i := 0; i < 10; i++ {
		h.Insert(1.0, i)
	}
	seen := make(map[int]bool)
	for h.Len() > 0 {
		n := h.ExtractMin()
		if n.Key != 1.0 {
			t.Fatalf("key = %v, want 1.0", n.Key)
		}
		if seen[n.Value] {
			t.Fatalf("value %d extracted twice", n.Value)
		}
		seen[n.Value] = true
	}
	if len(seen) != 10 {
		t.Fatalf("extracted %d distinct values, want 10", len(seen))
	}
}

// TestFibRandomOpsOracle runs a long random sequence of insert and
// extract-min operations and compares every extraction against a
// brute-force oracle.
func TestFibRandomOpsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewFib[int]()
	live := make(map[int]float64)
	next := 0
	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 6: // insert
			k := rng.Float64() * 1000
			h.Insert(k, next)
			live[next] = k
			next++
		case len(live) > 0: // extract min and check against oracle
			want := -1
			for id, k := range live {
				if want == -1 || k < live[want] {
					want = id
				}
			}
			got := h.ExtractMin()
			if got.Key != live[want] {
				t.Fatalf("step %d: extracted key %v, oracle min %v", step, got.Key, live[want])
			}
			delete(live, got.Value)
		}
		if h.Len() != len(live) {
			t.Fatalf("step %d: Len = %d, oracle has %d", step, h.Len(), len(live))
		}
	}
}

// TestFibQuickSortsAnything is a property test: for any float64 slice,
// inserting all values and extracting them yields the sorted slice.
func TestFibQuickSortsAnything(t *testing.T) {
	prop := func(keys []float64) bool {
		// NaN keys have no meaningful order; skip them.
		for _, k := range keys {
			if k != k {
				return true
			}
		}
		h := NewFib[struct{}]()
		for _, k := range keys {
			h.Insert(k, struct{}{})
		}
		got := drain(h)
		want := append([]float64(nil), keys...)
		sort.Float64s(want)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
