package sssp

// Tally aggregates a set of Results over one graph node by node:
// Count[v] is how many of them settled v and Sum[v] the sum of v's
// distances in those. It is the per-node (total weight, counter) table
// of the paper's Section IV-A, kept incrementally as results come and
// go, so BestCore reads a candidate's summed distance in O(1).
type Tally struct {
	Sum   []float64
	Count []int16
}

// NewTally returns an all-zero Tally for graphs of n nodes.
func NewTally(n int) *Tally {
	return &Tally{Sum: make([]float64, n), Count: make([]int16, n)}
}

// Add counts r in.
func (t *Tally) Add(r *Result) {
	for i, v := range r.visited {
		t.Count[v]++
		t.Sum[v] += r.dist[i]
	}
}

// Remove counts r out. A node no counted result holds any more gets an
// exact zero sum, so a Tally whose results have all been removed is all
// zeros again, free of float drift.
func (t *Tally) Remove(r *Result) {
	for i, v := range r.visited {
		t.Count[v]--
		if t.Count[v] == 0 {
			t.Sum[v] = 0
		} else {
			t.Sum[v] -= r.dist[i]
		}
	}
}

// Bytes reports the tally's logical footprint.
func (t *Tally) Bytes() int64 { return int64(len(t.Sum))*8 + int64(len(t.Count))*2 }
