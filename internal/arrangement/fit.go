package arrangement

import (
	"fmt"
	"math"
	"math/rand"

	"fairrank/internal/geom"
)

// Hyperplane fitting. Every exact and grid build fits its ordering-exchange
// hyperplanes through FitHyperplanes, which lists the non-dominating pairs,
// shuffles the pair list, cuts it to the MaxHyperplanes cap and fits only
// the kept prefix. The result is bit-identical to the all-pairs sequence
//
//	hs, _ := BuildHyperplanes(items)
//	total := len(hs)
//	ShuffleHyperplanes(hs, rng)
//	hs = hs[:maxH]   // when capped
//
// at a fraction of its cost: one HYPERPOLAR fit (null-space basis, polar
// conversions, a matrix solve) per kept pair instead of per pair — 40 or 200
// fits instead of ~370k at n=1000, d=3. Two properties make it sound:
//
//  1. rng.Shuffle's consumption of the rng stream depends only on the slice
//     length, so shuffling the pair list (no hyperplanes materialized yet)
//     applies the same permutation and leaves the rng in exactly the state
//     the all-pairs shuffle would — every LP draw the arrangement
//     construction makes afterwards matches.
//  2. HyperPolar is a deterministic, rng-free function of the two item
//     value vectors, so fitting a pair after the shuffle gives the same
//     hyperplane as fitting it before.
//
// One behaviour differs from the all-pairs sequence: a pair outside the
// kept prefix is never fitted, so a HYPERPOLAR failure there cannot fail
// the build.

// Pair identifies one ordering-exchange pair of item indices, I < J.
type Pair struct{ I, J int }

// ExchangePairs lists the pairs BuildHyperplanes would fit, in the same
// row-major order, without fitting anything. The predicate is the exact
// dominance/duplicate filter of BuildHyperplanes inlined to avoid the
// temporary difference vector, so the pair list (and therefore the shuffle
// below) matches the all-pairs build bit for bit.
func ExchangePairs(items []geom.Vector) []Pair {
	n := len(items)
	// One upfront allocation at the worst-case pair count: the append loop
	// below would otherwise regrow through ~20 doublings for large n, and the
	// copying shows up as a measurable fraction of a capped build.
	pairs := make([]Pair, 0, n*(n-1)/2)
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			if hasExchange(items[i], items[j]) {
				pairs = append(pairs, Pair{I: i, J: j})
			}
		}
	}
	return pairs
}

// hasExchange replicates the BuildHyperplanes filter: the two Dominates
// calls are the very same function (identical comparisons), and the
// duplicate test inlines Sub().IsZero() to skip the temporary difference
// vector — math.Abs(a[k]−b[k]) > Eps is IsZero's own comparison on the
// value Sub would have stored.
func hasExchange(a, b geom.Vector) bool {
	if geom.Dominates(a, b) || geom.Dominates(b, a) {
		return false
	}
	for k := range a {
		if math.Abs(a[k]-b[k]) > geom.Eps {
			return true
		}
	}
	return false
}

// ShufflePairs applies the same permutation ShuffleHyperplanes would apply
// to a hyperplane slice of equal length, consuming the identical rng stream.
func ShufflePairs(ps []Pair, rng *rand.Rand) {
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
}

// FitHyperplanes returns the shuffled, capped hyperplane list over items,
// fitting only the pairs the cap keeps. total is the pre-cap pair count |H|;
// maxH ≤ 0 means uncapped. The returned slice, the rng state on return, and
// total are all bit-identical to the all-pairs sequence in the comment
// above, and the slice's capacity is its length, so an index that keeps it
// pins nothing beyond the kept hyperplanes.
func FitHyperplanes(items []geom.Vector, rng *rand.Rand, maxH int) (hs []geom.Hyperplane, total int, err error) {
	pairs := ExchangePairs(items)
	total = len(pairs)
	ShufflePairs(pairs, rng)
	if maxH > 0 && len(pairs) > maxH {
		pairs = pairs[:maxH]
	}
	hs = make([]geom.Hyperplane, 0, len(pairs))
	for _, p := range pairs {
		h, err := HyperPolar(items[p.I], items[p.J])
		if err != nil {
			return nil, 0, fmt.Errorf("arrangement: pair (%d,%d): %w", p.I, p.J, err)
		}
		h.I, h.J = p.I, p.J
		hs = append(hs, h)
	}
	return hs, total, nil
}
