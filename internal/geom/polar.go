package geom

import (
	"fmt"
	"math"
)

// Angles identifies a ray from the origin through the non-negative orthant of
// R^d by d−1 angles, each in [0, π/2]. This is the paper's "angle coordinate
// system" (§4.1): the satisfactory-region machinery for d > 2 operates on
// points in [0, π/2]^(d−1).
//
// The convention follows Eq. 8 of the paper. With Θ_0 ≡ π/2 prepended, the
// Cartesian coordinates of the unit point on the ray are
//
//	x_k = sin Θ_k · Π_{l=k+1..d−1} cos Θ_l,  k = 0..d−1.
//
// For d = 2 this reduces to (cos θ1, sin θ1): θ1 is the angle from the x-axis.
type Angles []float64

// Dim returns the dimensionality d of the ambient Cartesian space, which is
// one more than the number of angles.
func (a Angles) Dim() int { return len(a) + 1 }

// Clone returns an independent copy.
func (a Angles) Clone() Angles {
	c := make(Angles, len(a))
	copy(c, a)
	return c
}

// InRange reports whether every angle lies in [−Eps, π/2+Eps].
func (a Angles) InRange() bool {
	for _, t := range a {
		if t < -Eps || t > math.Pi/2+Eps {
			return false
		}
	}
	return true
}

// ToCartesian converts the angles to the Cartesian unit vector on the ray,
// scaled by r (paper's ToCartesian(r, Θ)).
func (a Angles) ToCartesian(r float64) Vector {
	return a.ToCartesianInto(r, NewVector(a.Dim()))
}

// ToCartesianInto is ToCartesian into a caller-provided vector of dimension
// Dim() — the same arithmetic operation for operation, so results are
// bit-identical; batch kernels rely on that to answer exactly like the
// allocating path. It returns dst.
func (a Angles) ToCartesianInto(r float64, dst Vector) Vector {
	d := a.Dim()
	// Running product of cosines from the tail: prod_k = Π_{l>k-?}...
	// Compute x_k = sin Θ_k · Π_{l=k+1..d-1} cos Θ_l with Θ_0 = π/2.
	prod := 1.0
	for k := d - 1; k >= 1; k-- {
		dst[k] = r * math.Sin(a[k-1]) * prod
		prod *= math.Cos(a[k-1])
	}
	dst[0] = r * prod // sin(π/2) = 1
	return dst
}

// CartesianBounds sets lo and hi, each of dimension Dim(), to the least and
// greatest value every Cartesian coordinate of the unit ray takes over the
// angle box [from, to] ⊆ [0, π/2]^(d−1). Each factor of
// x_k = sin Θ_k · Π_{l>k} cos Θ_l is non-negative there and monotone in its
// one angle, so x_k is least at the corner (from_k, to_{l>k}) and greatest
// at (to_k, from_{l>k}). The arithmetic is ToCartesianInto's, so a point
// box (from = to) gives that point's coordinates exactly.
func CartesianBounds(from, to Angles, lo, hi Vector) {
	d := from.Dim()
	pmin, pmax := 1.0, 1.0
	for k := d - 1; k >= 1; k-- {
		lo[k] = math.Sin(from[k-1]) * pmin
		hi[k] = math.Sin(to[k-1]) * pmax
		pmin *= math.Cos(to[k-1])
		pmax *= math.Cos(from[k-1])
	}
	lo[0], hi[0] = pmin, pmax
}

// ToPolar converts a weight vector in the non-negative orthant to its polar
// representation (r, Θ). It returns an error for the zero vector or for
// vectors with negative coordinates beyond tolerance, which do not correspond
// to a valid ranking function.
func ToPolar(w Vector) (r float64, a Angles, err error) {
	if len(w) < 2 {
		return 0, nil, fmt.Errorf("geom: ToPolar needs dimension ≥ 2, got %d", len(w))
	}
	return ToPolarInto(w, make(Angles, len(w)-1))
}

// ToPolarInto is ToPolar into a caller-provided angle buffer of length
// len(w)−1, with identical arithmetic (and therefore bit-identical results)
// and identical validation.
func ToPolarInto(w Vector, a Angles) (r float64, _ Angles, err error) {
	if len(w) < 2 {
		return 0, nil, fmt.Errorf("geom: ToPolar needs dimension ≥ 2, got %d", len(w))
	}
	if len(a) != len(w)-1 {
		return 0, nil, fmt.Errorf("geom: ToPolarInto buffer has %d angles, want %d", len(a), len(w)-1)
	}
	if !w.IsNonNegative() {
		return 0, nil, fmt.Errorf("geom: ToPolar requires a non-negative vector, got %v", w)
	}
	r = w.Norm()
	if r < Eps {
		return 0, nil, fmt.Errorf("geom: ToPolar undefined for zero vector")
	}
	d := len(w)
	// θ_k = atan2(x_k, sqrt(Σ_{j<k} x_j²)), inverse of Eq. 8.
	for k := d - 1; k >= 1; k-- {
		var below float64
		for j := 0; j < k; j++ {
			below += w[j] * w[j]
		}
		a[k-1] = math.Atan2(math.Max(w[k], 0), math.Sqrt(below))
	}
	return r, a, nil
}

// ToPolar2D is ToPolar specialized to d = 2, returning the single angle as a
// scalar instead of allocating an Angles slice. The arithmetic matches
// ToPolar operation for operation, so the results are bit-identical — batch
// query paths rely on that to answer exactly like the scalar path.
func ToPolar2D(w Vector) (r, theta float64, err error) {
	if len(w) != 2 {
		return 0, 0, fmt.Errorf("geom: ToPolar2D needs dimension 2, got %d", len(w))
	}
	if !w.IsNonNegative() {
		return 0, 0, fmt.Errorf("geom: ToPolar requires a non-negative vector, got %v", w)
	}
	r = w.Norm()
	if r < Eps {
		return 0, 0, fmt.Errorf("geom: ToPolar undefined for zero vector")
	}
	theta = math.Atan2(math.Max(w[1], 0), math.Sqrt(w[0]*w[0]))
	return r, theta, nil
}

// AngleDistance returns the angular distance between the rays identified by
// angle vectors a and b (Eq. 10 of the paper). It is computed by converting
// both to Cartesian unit vectors; the closed-form product expansion of Eq. 10
// is algebraically identical (see TestEq10Equivalence).
func AngleDistance(a, b Angles) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("geom: angle distance of mismatched dimensions %d and %d", len(a), len(b))
	}
	return AngleDistanceInto(a, b, NewVector(a.Dim()), NewVector(a.Dim()))
}

// AngleDistanceInto is AngleDistance through caller-provided scratch vectors
// of dimension Dim() — one copy of the arithmetic (and of the mismatch
// error) for both the allocating and the buffer-reusing paths, so they can
// never silently diverge.
func AngleDistanceInto(a, b Angles, va, vb Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("geom: angle distance of mismatched dimensions %d and %d", len(a), len(b))
	}
	return RayDistance(a.ToCartesianInto(1, va), b.ToCartesianInto(1, vb))
}

// AngleDistanceEq10 evaluates the paper's Eq. 10 literally:
//
//	θ_ij = arccos( Σ_k sin Θi_k sin Θj_k · Π_{l>k} cos Θi_l cos Θj_l )
//
// with Θ_0 = π/2 prepended. Exported for fidelity tests and documentation;
// AngleDistance is the numerically preferred equivalent.
func AngleDistanceEq10(a, b Angles) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("geom: angle distance of mismatched dimensions %d and %d", len(a), len(b))
	}
	ai := append(Angles{math.Pi / 2}, a...)
	bi := append(Angles{math.Pi / 2}, b...)
	n := len(ai)
	var sum float64
	for k := 0; k < n; k++ {
		term := math.Sin(ai[k]) * math.Sin(bi[k])
		for l := k + 1; l < n; l++ {
			term *= math.Cos(ai[l]) * math.Cos(bi[l])
		}
		sum += term
	}
	return math.Acos(clamp(sum, -1, 1)), nil
}
