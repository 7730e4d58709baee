// Package nlp solves the non-linear program at the heart of MDBASELINE
// (Algorithm 6 of the paper): find the point of a convex polytope in the
// angle coordinate system that minimizes the angular distance (Eq. 10) to a
// query point. The feasible set is a conjunction of half-spaces plus the
// angle box; the objective is smooth and convex on the box, so we use the
// Frank–Wolfe (conditional gradient) method with the Seidel LP of package lp
// as the linear-minimization oracle, warm-started from the region's most
// interior point.
//
// The solver is a method of Workspace, whose vectors (iterate, gradient,
// line-search trial point, Cartesian images) and embedded lp.Workspace are
// reused across calls: MDBASELINE solves one program per satisfactory
// region, and one workspace serves them all without allocating once warm.
package nlp

import (
	"errors"
	"math"
	"math/rand"

	"fairrank/internal/geom"
	"fairrank/internal/lp"
)

// Options tunes the Frank–Wolfe solver. The zero value is replaced by
// defaults suitable for the ≤ 6-dimensional angle spaces of this system.
type Options struct {
	MaxIters int     // default 200
	Tol      float64 // duality-gap style stopping tolerance, default 1e-7
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
	return o
}

// ErrEmptyRegion is returned when the constraint region has no interior.
var ErrEmptyRegion = errors.New("nlp: empty region")

// Workspace holds the reusable state of ClosestAnglePoint. The zero value is
// ready to use; it is not safe for concurrent use.
type Workspace struct {
	lp lp.Workspace
	// Angle-space vectors (length m): the iterate, the gradient, the LP
	// objective, the Frank–Wolfe direction, the line search's trial point
	// and the central-difference probes.
	x, g, c, dir, trial, probe geom.Vector
	// Cartesian vectors (length m+1): the query's unit vector and the image
	// of the point the objective is evaluating, plus the distance scratch.
	qCart, cart, va, vb geom.Vector
}

func (ws *Workspace) size(m int) {
	for _, v := range []*geom.Vector{&ws.x, &ws.g, &ws.c, &ws.dir, &ws.trial, &ws.probe} {
		*v = resize(*v, m)
	}
	for _, v := range []*geom.Vector{&ws.qCart, &ws.cart, &ws.va, &ws.vb} {
		*v = resize(*v, m+1)
	}
}

func resize(v geom.Vector, n int) geom.Vector {
	if cap(v) < n {
		return make(geom.Vector, n)
	}
	return v[:n]
}

// obj is the objective at theta: −cos of the angle between the rays of theta
// and the query. Minimizing −cos is equivalent to minimizing arccos but
// smooth at 0.
func (ws *Workspace) obj(theta geom.Vector) float64 {
	c, err := geom.CosineSimilarity(geom.Angles(theta).ToCartesianInto(1, ws.cart), ws.qCart)
	if err != nil {
		return math.Pi // zero vector cannot happen for valid angles
	}
	return -c
}

// grad writes the objective's gradient at x into ws.g. Numerical: the
// objective is cheap (O(d)) and d ≤ 6, so central differences are accurate
// and simpler than the closed form of ∂/∂θ of Eq. 10.
func (ws *Workspace) grad(x geom.Vector) {
	const h = 1e-6
	tp := ws.probe
	for k := range x {
		copy(tp, x)
		tp[k] += h
		fp := ws.obj(tp)
		copy(tp, x)
		tp[k] -= h
		ws.g[k] = (fp - ws.obj(tp)) / (2 * h)
	}
}

// ClosestAnglePoint minimizes the angular distance between the ray of query
// and the ray of θ over {θ : cons, box}. It returns the minimizing point and
// its angular distance to the query. The point aliases the workspace and is
// valid until the next call.
func (ws *Workspace) ClosestAnglePoint(query geom.Angles, cons []lp.Constraint, box geom.Box, opt Options, rng *rand.Rand) (geom.Angles, float64, error) {
	opt = opt.withDefaults()
	m := len(query)
	if box.Dim() != m {
		return nil, 0, errors.New("nlp: query and box dimension mismatch")
	}
	// Warm start: the most interior point of the region, copied out before
	// the LP workspace is reused.
	x0, _, err := ws.lp.InteriorPoint(cons, box.Lo, box.Hi, rng)
	if err != nil {
		return nil, 0, ErrEmptyRegion
	}
	ws.size(m)
	x, g, c, dir := ws.x, ws.g, ws.c, ws.dir
	copy(x, x0)
	query.ToCartesianInto(1, ws.qCart)

	for iter := 0; iter < opt.MaxIters; iter++ {
		ws.grad(x)
		// Linear oracle: minimize g·s over the region = maximize (−g)·s.
		for k := range c {
			c[k] = -g[k]
		}
		s, err := ws.lp.Maximize(c, cons, box.Lo, box.Hi, rng)
		if err != nil {
			return nil, 0, ErrEmptyRegion
		}
		for k := range dir {
			dir[k] = s[k] - x[k]
		}
		gap := -g.Dot(dir) // Frank–Wolfe duality gap estimate ≥ f(x) − f*
		if gap < opt.Tol {
			break
		}
		// Exact-ish line search on γ ∈ [0,1] by golden section: the
		// objective restricted to a segment is unimodal on the angle box.
		gamma := goldenSection(ws.lineObj, 0, 1, 40)
		if gamma < 1e-12 {
			break
		}
		step(x, x, dir, gamma)
	}
	dist, err := geom.AngleDistanceInto(query, geom.Angles(x), ws.va, ws.vb)
	if err != nil {
		return nil, 0, err
	}
	return geom.Angles(x), dist, nil
}

// lineObj is the objective at x + t·dir.
func (ws *Workspace) lineObj(t float64) float64 {
	step(ws.trial, ws.x, ws.dir, t)
	return ws.obj(ws.trial)
}

// step writes x + t·dir into dst. The conversion rounds the product before
// the sum, so no platform fuses the two into one FMA and the iterates stay
// bit-identical across architectures.
func step(dst, x, dir geom.Vector, t float64) {
	for k := range dst {
		dst[k] = x[k] + float64(dir[k]*t)
	}
}

// goldenSection minimizes f on [a,b] with the given number of iterations and
// returns the minimizing argument.
func goldenSection(f func(float64) float64, a, b float64, iters int) float64 {
	const invPhi = 0.6180339887498949
	c := b - (b-a)*invPhi
	d := a + (b-a)*invPhi
	fc, fd := f(c), f(d)
	for i := 0; i < iters; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - (b-a)*invPhi
			fc = f(c)
		} else {
			a, c, fc = c, d, fd
			d = a + (b-a)*invPhi
			fd = f(d)
		}
	}
	return (a + b) / 2
}
