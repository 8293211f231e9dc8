package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"commdb/internal/datagen"
)

func TestOpListsRepeatForOneSeedAndDifferForAnother(t *testing.T) {
	gens := map[string]func(seed int64) []op{
		"library": func(seed int64) []op { return libraryOps("topk", 100, 10, weightLowKWF, seed) },
		"serve":   func(seed int64) []op { return serveOps(240, seed) },
	}
	for name, gen := range gens {
		a, b, c := encodeOps(gen(7)), encodeOps(gen(7)), encodeOps(gen(8))
		if a != b {
			t.Errorf("%s: seed 7 gave two different op lists", name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", name)
		}
	}
}

// shapeOf reduces an op to what its cost depends on: kind, keyword
// group and keyword count.
func shapeOf(o op) string {
	for g, p := range datagen.DBLPProbes() {
		for _, w := range p.Words {
			if w == o.Keywords[0] {
				return fmt.Sprintf("%s/g%d/l%d", o.Kind, g, len(o.Keywords))
			}
		}
	}
	return "unknown"
}

func TestEverySeedRunsTheSameShapes(t *testing.T) {
	shapes := func(seed int64) string {
		var s []string
		for _, o := range libraryOps("all", 40, 200, weightHighKWF, seed) {
			s = append(s, shapeOf(o))
		}
		sort.Strings(s)
		return strings.Join(s, " ")
	}
	if a, b := shapes(1), shapes(2); a != b {
		t.Errorf("seeds 1 and 2 run different shape multisets:\n%s\n%s", a, b)
	}
}

func TestZipfCounts(t *testing.T) {
	c := zipfCounts(240, 600, serveZipfS)
	sum := 0
	for r, n := range c {
		sum += n
		if r > 0 && n > c[r-1]+1 {
			t.Errorf("rank %d asked for %d times, rank %d only %d", r, n, r-1, c[r-1])
		}
	}
	if sum != 240 {
		t.Errorf("counts sum to %d, want 240", sum)
	}
}

// The share of top-k requests that repeat an earlier one is fixed by
// the op generator, not left to the seed: it is what the cache can hit.
func TestServeRepeatShareIsCalibratedAndSeedIndependent(t *testing.T) {
	repeats := func(seed int64) (topk, rep int) {
		seen := map[string]bool{}
		for _, o := range serveOps(serveOpsBase, seed) {
			if o.Kind != "topk" {
				continue
			}
			topk++
			fp := o.query().Fingerprint()
			if seen[fp] {
				rep++
			}
			seen[fp] = true
		}
		return
	}
	topk, rep := repeats(1)
	if share := float64(rep) / float64(topk); share < 0.25 || share > 0.35 {
		t.Errorf("%d of %d top-k requests repeat (%.2f), want 0.30 ± 0.05", rep, topk, share)
	}
	if topk*10 != serveOpsBase*7 {
		t.Errorf("%d of %d requests are top-k, want 70%%", topk, serveOpsBase)
	}
	if t2, r2 := repeats(2); t2 != topk || r2 != rep {
		t.Errorf("seed 2: %d/%d repeats, seed 1: %d/%d", r2, t2, rep, topk)
	}
}
