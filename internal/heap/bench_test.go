package heap

import (
	"math/rand"
	"testing"
)

func BenchmarkFibInsertExtract(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]float64, 1024)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := NewFib[int]()
		for j, k := range keys {
			h.Insert(k, j)
		}
		for h.Len() > 0 {
			h.ExtractMin()
		}
	}
}

func BenchmarkBinaryPushPop(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	keys := make([]float64, 4096)
	for i := range keys {
		keys[i] = rng.Float64()
	}
	var h Binary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Reset()
		for j, k := range keys {
			h.Push(k, int32(j))
		}
		for h.Len() > 0 {
			h.Pop()
		}
	}
}
