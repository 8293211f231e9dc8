package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"commdb"
	"commdb/internal/datagen"
)

// op is one operation of a workload's list.
type op struct {
	// Kind is "topk" or "all".
	Kind     string
	Keywords []string
	Rmax     float64
	// Limit is how many communities the op drains: k for topk, the
	// caller's cut-off (max_results over HTTP) for all.
	Limit int
}

func (o op) query() commdb.Query {
	return commdb.Query{Keywords: o.Keywords, Rmax: o.Rmax}
}

// encodeOps is the canonical text form of an op list, the thing the
// "same seed, same inputs" test compares.
func encodeOps(ops []op) string {
	var b strings.Builder
	for _, o := range ops {
		fmt.Fprintf(&b, "%s %s %g %d\n", o.Kind, strings.Join(o.Keywords, ","), o.Rmax, o.Limit)
	}
	return b.String()
}

// rmaxValues spans the query radii; the indexes are built for R = 8.
var rmaxValues = []float64{5, 5.5, 6, 6.5, 7, 7.5, 8}

// indexRadius is the radius every index and artifact store is built
// for: the largest entry of rmaxValues.
const indexRadius = 8

// Keyword-group weights, lowest KWF (0.0003) first. Query cost grows
// with KWF, so the weights decide which layer a workload leans on.
var (
	weightLowKWF  = []int{5, 4, 3, 2, 1}
	weightHighKWF = []int{1, 2, 3, 4, 5}
	weightUniform = []int{1, 1, 1, 1, 1}
)

// shape is what a query's cost depends on: its Table-III keyword group
// (all words of a group share one KWF) and its keyword count.
type shape struct{ group, l int }

// shapeDeck lays out n shapes in the proportions the weights give. It
// does not depend on the seed: every seed runs the same multiset of
// shapes, so runs on different seeds do comparable work and differ only
// in which words of a group they ask for and in what order.
func shapeDeck(n int, weights []int) []shape {
	var base []shape
	maxW := 0
	for _, w := range weights {
		if w > maxW {
			maxW = w
		}
	}
	for c := 0; c < maxW; c++ {
		for l := 2; l <= 4; l++ {
			for g, w := range weights {
				if c < w {
					base = append(base, shape{g, l})
				}
			}
		}
	}
	deck := make([]shape, n)
	for i := range deck {
		deck[i] = base[i%len(base)]
	}
	return deck
}

// libraryOps builds a single-caller op list: n queries of one kind,
// shapes from shapeDeck, words and order from the seed.
func libraryOps(kind string, n, limit int, weights []int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	probes := datagen.DBLPProbes()
	ops := make([]op, n)
	for i, sh := range shapeDeck(n, weights) {
		words := probes[sh.group].Words
		kws := make([]string, sh.l)
		for j, w := range rng.Perm(len(words))[:sh.l] {
			kws[j] = words[w]
		}
		ops[i] = op{Kind: kind, Keywords: kws, Rmax: rmaxValues[i%len(rmaxValues)], Limit: limit}
	}
	rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// fingerprintUniverse lists every distinct query the probe words
// allow: each 2-, 3- and 4-subset of each keyword group at each radius
// (658 on Table III).
func fingerprintUniverse() []op {
	var out []op
	for _, p := range datagen.DBLPProbes() {
		n := len(p.Words)
		for mask := 1; mask < 1<<n; mask++ {
			var kws []string
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					kws = append(kws, p.Words[i])
				}
			}
			if len(kws) < 2 || len(kws) > 4 {
				continue
			}
			for _, r := range rmaxValues {
				out = append(out, op{Keywords: kws, Rmax: r})
			}
		}
	}
	return out
}

// zipfCounts splits n requests over ranks by weight 1/(rank+1)^s,
// rounding by largest remainder: the expected multiset of a Zipf draw,
// without a draw's run-to-run scatter in how often keys repeat.
func zipfCounts(n, ranks int, s float64) []int {
	w := make([]float64, ranks)
	var sum float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		sum += w[r]
	}
	counts := make([]int, ranks)
	type rem struct {
		r    int
		frac float64
	}
	rems := make([]rem, ranks)
	left := n
	for r := range w {
		q := float64(n) * w[r] / sum
		counts[r] = int(q)
		left -= counts[r]
		rems[r] = rem{r, q - float64(counts[r])}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].frac > rems[j].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].r]++
	}
	return counts
}

const (
	// serveFingerprints is how many distinct queries serve_mix draws
	// from, more than the server's 256-entry result cache.
	serveFingerprints = 600
	// serveZipfS is calibrated so that top-k requests hit the result
	// cache about 30% of the time at the default request count: at a
	// half the median request straddles a 0.1 ms hit and a 50 ms miss.
	serveZipfS = 0.85
	serveTopK  = 10
	serveAllN  = 100
)

// serveOps builds the serve_mix request list: the seed picks which 600
// of the universe are in play and how popular each is; zipfCounts fixes
// how often each rank is asked for; three requests in ten, spread evenly
// over the ranks, stream from /v1/search/all and the rest are top-k.
func serveOps(n int, seed int64) []op {
	rng := rand.New(rand.NewSource(seed))
	uni := fingerprintUniverse()
	rng.Shuffle(len(uni), func(i, j int) { uni[i], uni[j] = uni[j], uni[i] })
	ranks := serveFingerprints
	if ranks > len(uni) {
		ranks = len(uni)
	}
	ops := make([]op, 0, n)
	for r, c := range zipfCounts(n, ranks, serveZipfS) {
		for i := 0; i < c; i++ {
			o := uni[r]
			if len(ops)%10%3 == 2 { // positions 2, 5, 8 of every ten
				o.Kind, o.Limit = "all", serveAllN
			} else {
				o.Kind, o.Limit = "topk", serveTopK
			}
			ops = append(ops, o)
		}
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}
