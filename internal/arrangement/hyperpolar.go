// Package arrangement implements the multi-dimensional machinery of §4 of
// the paper: HYPERPOLAR (Algorithm 3), which maps the ordering exchange of an
// item pair to a hyperplane in the angle coordinate system; the incremental
// construction of the arrangement of those hyperplanes (the loop of
// Algorithm 4), both with a linear scan over regions and with the
// arrangement-tree pruning of Algorithm 5 (AT+); and interior-point
// witnesses for regions, which the oracle-labeling step of SATREGIONS and
// the early-stopping cell algorithms of §5 sample ranking functions from.
package arrangement

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fairrank/internal/geom"
	"fairrank/internal/matrix"
)

// HyperPolar is Algorithm 3: given items ti and tj (neither dominating the
// other), it returns the hyperplane Σ h[k]·θ_k = 1 in the angle coordinate
// system that represents their ordering exchange
// Σ_k (ti[k] − tj[k])·w_k = 0 (Eq. 5).
//
// The construction follows the paper: take d−1 linearly independent points
// on the weight-space exchange hyperplane inside the positive orthant,
// convert each to its angle vector, and solve Θ·h = ι for the angle-space
// hyperplane through them. For d = 2 the result is exact (the hyperplane is
// the single exchange angle); for d > 2 the exchange surface is curved in
// angle coordinates and the returned hyperplane interpolates it at the
// sampled points, exactly as in the paper (see DESIGN.md §8).
func HyperPolar(ti, tj geom.Vector) (geom.Hyperplane, error) {
	d := len(ti)
	if d != len(tj) {
		return geom.Hyperplane{}, fmt.Errorf("arrangement: item dimensions differ: %d vs %d", d, len(tj))
	}
	if d < 2 {
		return geom.Hyperplane{}, errors.New("arrangement: need at least 2 scoring attributes")
	}
	v := ti.Sub(tj) // Eq. 5 coefficients
	if geom.Dominates(ti, tj) || geom.Dominates(tj, ti) || v.IsZero() {
		return geom.Hyperplane{}, fmt.Errorf("arrangement: items %v and %v have no ordering exchange", ti, tj)
	}
	w0, err := positivePointOnCentralHyperplane(v)
	if err != nil {
		return geom.Hyperplane{}, err
	}
	basis, err := matrix.NullSpaceOfRow(v)
	if err != nil {
		return geom.Hyperplane{}, err
	}
	m := d - 1
	// Sample m points w0 + ε_i·u_i, spread as widely as positivity allows,
	// convert to angles, and fit the hyperplane through them. Retry with
	// shrunken spreads and flipped signs if the angle matrix degenerates.
	for attempt := 0; attempt < 8; attempt++ {
		scale := 0.9 / float64(uint(1)<<uint(attempt/2))
		flip := attempt%2 == 1
		theta := matrix.New(m, m)
		ok := true
		for i := 0; i < m && ok; i++ {
			eps := scale * positivityLimit(w0, basis[i])
			if flip {
				eps = -eps
			}
			p := w0.Clone()
			for k := 0; k < d; k++ {
				p[k] += eps * basis[i][k]
				if p[k] < 0 {
					p[k] = 0
				}
			}
			_, ang, err := geom.ToPolar(p)
			if err != nil {
				ok = false
				break
			}
			for k := 0; k < m; k++ {
				theta.Set(i, k, ang[k])
			}
		}
		if !ok {
			continue
		}
		iota := make([]float64, m)
		for i := range iota {
			iota[i] = 1
		}
		h, err := theta.Solve(iota)
		if err != nil {
			continue // singular Θ: retry with a different perturbation
		}
		hv := geom.Vector(h)
		if !hv.IsFinite() {
			continue
		}
		return geom.Hyperplane{Coef: hv, I: -1, J: -1}, nil
	}
	return geom.Hyperplane{}, fmt.Errorf("arrangement: HyperPolar could not fit a hyperplane for Δ=%v", v)
}

// positivePointOnCentralHyperplane returns a strictly positive w with
// v·w = 0. With P = {k : v_k > 0} and N = {k : v_k < 0}, setting w_k = α on
// P, β on N and 1 elsewhere with α = −Σ_N v_k and β = Σ_P v_k gives
// v·w = α·Σ_P v + β·Σ_N v = 0 with α, β > 0.
func positivePointOnCentralHyperplane(v geom.Vector) (geom.Vector, error) {
	var sumPos, sumNeg float64
	for _, x := range v {
		if x > geom.Eps {
			sumPos += x
		} else if x < -geom.Eps {
			sumNeg += x
		}
	}
	if sumPos <= 0 || sumNeg >= 0 {
		return nil, fmt.Errorf("arrangement: Δ=%v has no positive exchange ray (one item dominates)", v)
	}
	alpha, beta := -sumNeg, sumPos
	w := geom.NewVector(len(v))
	for k, x := range v {
		switch {
		case x > geom.Eps:
			w[k] = alpha
		case x < -geom.Eps:
			w[k] = beta
		default:
			w[k] = (alpha + beta) / 2
		}
	}
	return w, nil
}

// positivityLimit returns the largest ε ≥ 0 such that w + ε·u stays
// non-negative (capped to keep points at sensible magnitude).
func positivityLimit(w geom.Vector, u []float64) float64 {
	limit := math.Inf(1)
	for k := range w {
		if u[k] < -1e-12 {
			limit = math.Min(limit, -w[k]/u[k])
		}
	}
	maxStep := w.Norm()
	if limit > maxStep {
		limit = maxStep
	}
	return limit
}

// BuildHyperplanes runs HyperPolar over every non-dominating pair of dataset
// items (lines 2-7 of Algorithm 4), tagging each hyperplane with its item
// pair. items is the slice of scoring vectors. Index builds use
// FitHyperplanes, which fits only the pairs a MaxHyperplanes cap keeps;
// this all-pairs form serves the experiments that time or count the full
// hyperplane set (Figs. 18–20).
func BuildHyperplanes(items []geom.Vector) ([]geom.Hyperplane, error) {
	var hs []geom.Hyperplane
	n := len(items)
	for i := 0; i < n-1; i++ {
		for j := i + 1; j < n; j++ {
			if geom.Dominates(items[i], items[j]) || geom.Dominates(items[j], items[i]) ||
				items[i].Sub(items[j]).IsZero() {
				continue
			}
			h, err := HyperPolar(items[i], items[j])
			if err != nil {
				return nil, fmt.Errorf("arrangement: pair (%d,%d): %w", i, j, err)
			}
			h.I, h.J = i, j
			hs = append(hs, h)
		}
	}
	return hs, nil
}

// ShuffleHyperplanes randomizes insertion order, which keeps incremental
// arrangement construction balanced. Deterministic under a seeded rng.
func ShuffleHyperplanes(hs []geom.Hyperplane, rng *rand.Rand) {
	rng.Shuffle(len(hs), func(i, j int) { hs[i], hs[j] = hs[j], hs[i] })
}
