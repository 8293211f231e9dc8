package core

import "fmt"

// Ranker is a pluggable community cost aggregate: it folds a candidate
// center's per-keyword shortest-path distances into one score, lower
// being better. The paper (Section II) notes its algorithms do not
// depend on a specific cost function as long as the aggregate is
// monotone in every component — growing any single distance must not
// shrink the cost — which is what keeps Algorithm 1's polynomial-delay
// argument and Algorithm 5's non-decreasing emission order intact.
// Implementations must be pure functions of the distance slice (no
// state, safe for concurrent calls) and must not retain the slice.
type Ranker interface {
	// Name identifies the ranker in traces and documentation.
	Name() string
	// Cost aggregates one candidate's per-keyword distances.
	Cost(dists []float64) float64
}

// sumRanker is the paper's default cost restated as a Ranker: the
// summed center→knode distances.
type sumRanker struct{}

func (sumRanker) Name() string { return "sum" }
func (sumRanker) Cost(dists []float64) float64 {
	total := 0.0
	for _, d := range dists {
		total += d
	}
	return total
}

// maxRanker ranks by the largest center→knode distance, an
// eccentricity-style radius measure.
type maxRanker struct{}

func (maxRanker) Name() string { return "max" }
func (maxRanker) Cost(dists []float64) float64 {
	best := 0.0
	for _, d := range dists {
		if d > best {
			best = d
		}
	}
	return best
}

// SumRanker returns the paper's default summed-distance aggregate.
func SumRanker() Ranker { return sumRanker{} }

// MaxRanker returns the max-distance (radius) aggregate.
func MaxRanker() Ranker { return maxRanker{} }

// balancedRanker blends total weight with the worst single distance.
type balancedRanker struct{ alpha float64 }

func (r balancedRanker) Name() string { return fmt.Sprintf("balanced(%g)", r.alpha) }
func (r balancedRanker) Cost(dists []float64) float64 {
	sum, max := 0.0, 0.0
	for _, d := range dists {
		sum += d
		if d > max {
			max = d
		}
	}
	return r.alpha*sum + (1-r.alpha)*max
}

// BalancedRanker blends the paper's summed-distance cost with the
// worst single center→knode distance: alpha·sum + (1−alpha)·max, for
// alpha in [0, 1]. The blend follows the combined ranking idea of
// Kargar, Golab and Szlichta ("Effective Keyword Search in Graphs"):
// total weight alone lets one keyword sit far from the center when the
// others are close, while the max term penalizes exactly that
// lopsidedness. Both components are monotone in every distance and a
// non-negative combination of monotone aggregates is monotone, so the
// enumeration guarantees are preserved at any alpha.
func BalancedRanker(alpha float64) (Ranker, error) {
	if !(alpha >= 0 && alpha <= 1) { // negated form also rejects NaN
		return nil, fmt.Errorf("core: BalancedRanker alpha %v outside [0, 1]", alpha)
	}
	return balancedRanker{alpha: alpha}, nil
}
