// Package geom provides the geometric substrate of the fair-ranking system:
// vectors in R^d, the angle coordinate system for rays (Appendix A.1 of the
// paper), hyperplanes in angle coordinates, axis-aligned boxes, and dominance
// tests. All angles are radians; all rays live in the non-negative orthant.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Eps is the numeric tolerance used throughout the geometric predicates.
// Values whose magnitude is below Eps are treated as zero.
const Eps = 1e-9

// Vector is a point in R^d (or a weight vector of a linear scoring function).
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// errDotDims is Dot's panic value. A fixed value keeps Dot under the
// compiler's inlining budget, which formatting the two lengths would exceed;
// every ranking fill and solver evaluation calls Dot once per item.
var errDotDims = errors.New("geom: dot of mismatched dimensions")

// Dot returns the inner product of v and u. It panics if dimensions differ.
func (v Vector) Dot(u Vector) float64 {
	if len(v) != len(u) {
		panic(errDotDims)
	}
	var s float64
	for i := range v {
		s += v[i] * u[i]
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Add returns v + u as a new vector.
func (v Vector) Add(u Vector) Vector {
	w := v.Clone()
	for i := range w {
		w[i] += u[i]
	}
	return w
}

// Sub returns v − u as a new vector.
func (v Vector) Sub(u Vector) Vector {
	w := v.Clone()
	for i := range w {
		w[i] -= u[i]
	}
	return w
}

// Scale returns c·v as a new vector.
func (v Vector) Scale(c float64) Vector {
	w := v.Clone()
	for i := range w {
		w[i] *= c
	}
	return w
}

// Unit returns v normalized to unit length. It returns an error for the zero
// vector, which does not define a direction.
func (v Vector) Unit() (Vector, error) {
	n := v.Norm()
	if n < Eps {
		return nil, fmt.Errorf("geom: cannot normalize (near-)zero vector %v", v)
	}
	return v.Scale(1 / n), nil
}

// IsNonNegative reports whether every coordinate of v is ≥ −Eps.
func (v Vector) IsNonNegative() bool {
	for _, x := range v {
		if x < -Eps {
			return false
		}
	}
	return true
}

// IsZero reports whether every coordinate of v is within Eps of zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if math.Abs(x) > Eps {
			return false
		}
	}
	return true
}

// IsFinite reports whether every coordinate is a finite number.
func (v Vector) IsFinite() bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// CosineSimilarity returns cos of the angle between rays through v and u.
// The result is clamped to [−1, 1] to absorb rounding.
func CosineSimilarity(v, u Vector) (float64, error) {
	nv, nu := v.Norm(), u.Norm()
	if nv < Eps || nu < Eps {
		return 0, fmt.Errorf("geom: cosine similarity undefined for zero vector")
	}
	return clamp(v.Dot(u)/(nv*nu), -1, 1), nil
}

// RayDistance returns the angular distance (radians) between the rays from
// the origin through weight vectors v and u. Linear scalings of a weight
// vector represent the same ranking function, so this is the paper's distance
// between ranking functions.
func RayDistance(v, u Vector) (float64, error) {
	c, err := CosineSimilarity(v, u)
	if err != nil {
		return 0, err
	}
	return math.Acos(c), nil
}

// Dominates reports whether a dominates b: a[i] ≥ b[i] for all i and
// a[j] > b[j] for at least one j (strict inequalities use Eps).
func Dominates(a, b Vector) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geom: dominance of mismatched dimensions %d and %d", len(a), len(b)))
	}
	strict := false
	for i := range a {
		if a[i] < b[i]-Eps {
			return false
		}
		if a[i] > b[i]+Eps {
			strict = true
		}
	}
	return strict
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
