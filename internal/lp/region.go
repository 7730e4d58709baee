package lp

import (
	"math"
	"math/rand"

	"fairrank/internal/matrix"
)

// InteriorPoint finds the "most interior" point of the polytope
// {x : Cons, Lo ≤ x ≤ Hi}: it maximizes the margin s such that every
// constraint is satisfied with slack s·‖A‖ and the box with slack s.
// It returns the point, the achieved margin, and ErrInfeasible when even
// margin −1 cannot be achieved (the region is empty beyond tolerance).
//
// A strictly positive margin certifies a full-dimensional region, which is
// what SATREGIONS needs before sampling a ranking function inside a region;
// a margin near zero means the region is degenerate (a sliver on a
// hyperplane).
func (ws *Workspace) InteriorPoint(cons []Constraint, lo, hi []float64, rng *rand.Rand) (x []float64, margin float64, err error) {
	d := len(lo)
	// Variables y = (x, s), maximize s. The augmented program is written
	// straight into the top recursion level: len(cons) constraint rows, then
	// the box with slack, x_k + s ≤ hi_k and −x_k + s ≤ −lo_k.
	m := len(cons) + 2*d
	top := ws.prepare(d+1, m)
	clear(top.c)
	top.c[d] = 1
	for i, con := range cons {
		row := top.row(i)
		clear(row)
		copy(row, con.A)
		row[d] = con.Norm()
		top.b[i] = con.B
	}
	for k := 0; k < d; k++ {
		up, dn := top.row(len(cons)+2*k), top.row(len(cons)+2*k+1)
		clear(up)
		up[k], up[d] = 1, 1
		top.b[len(cons)+2*k] = hi[k]
		clear(dn)
		dn[k], dn[d] = -1, 1
		top.b[len(cons)+2*k+1] = -lo[k]
	}
	// Bounding box for y: x within a slightly inflated box, s within
	// [−1, maxRange] (negative s admits infeasible-by-a-hair diagnostics).
	maxRange := 1.0
	for k := 0; k < d; k++ {
		top.lo[k] = lo[k] - 1
		top.hi[k] = hi[k] + 1
		maxRange = math.Max(maxRange, hi[k]-lo[k])
	}
	top.lo[d], top.hi[d] = -1, maxRange
	if err := checkBox(top.lo, top.hi); err != nil {
		return nil, 0, err
	}
	y, err := ws.shuffleSolve(top, m, rng)
	if err != nil {
		return nil, 0, err
	}
	margin = y[d]
	if margin < -Tol {
		return nil, margin, ErrInfeasible
	}
	return y[:d], margin, nil
}

// FeasibleOnHyperplane reports whether the hyperplane {x : g·x = g0}
// intersects the region {Cons, box} with interior margin above minMargin
// along the hyperplane, returning a witness point on the hyperplane.
//
// The equality is handled exactly by affine reduction: x = p0 + U·t with p0
// the closest point of the hyperplane to the origin and U an orthonormal
// null-space basis of g, so the search runs in d−1 free variables. This is
// the primitive behind "does hyperplane h pass through region σ" in
// Algorithms 4, 5 and 9.
func (ws *Workspace) FeasibleOnHyperplane(g []float64, g0 float64, cons []Constraint, lo, hi []float64, minMargin float64, rng *rand.Rand) ([]float64, bool) {
	d := len(g)
	var gg float64
	for _, v := range g {
		gg += v * v
	}
	if gg < Tol*Tol {
		return nil, false
	}
	ws.hx = grow(ws.hx, d)
	x := ws.hx
	if d == 1 {
		// Zero free variables: the single point x = g0/g.
		x[0] = g0 / g[0]
		if x[0] < lo[0]-Tol || x[0] > hi[0]+Tol {
			return nil, false
		}
		for _, con := range cons {
			if dot(con.A, x) > con.B+Tol*(1+con.Norm()) {
				return nil, false
			}
		}
		return x, true
	}
	ws.p0 = grow(ws.p0, d)
	p0 := ws.p0
	for k := range p0 {
		p0[k] = g[k] * g0 / gg
	}
	m := d - 1 // free variables
	ws.unit = grow(ws.unit, d)
	ws.basis = grow(ws.basis, m*d)
	if err := matrix.NullSpaceOfRowInto(g, ws.unit, ws.basis); err != nil {
		return nil, false
	}
	basis := ws.basis
	// Transform each constraint a·x ≤ b into a'·t ≤ b − a·p0 with
	// a'_i = a·U_i; likewise the box bounds of every coordinate. The rows
	// live in ta, which the inner InteriorPoint never writes.
	rows := len(cons) + 2*d
	ws.ta = grow(ws.ta, rows*m)
	if cap(ws.tcons) < rows {
		ws.tcons = make([]Constraint, 0, 2*rows)
	}
	tcons := ws.tcons[:0]
	blocked := false
	addRow := func(a []float64, b float64) {
		r := len(tcons)
		at := ws.ta[r*m : (r+1)*m : (r+1)*m]
		var atNorm float64
		for i := range at {
			at[i] = dot(a, basis[i*d:(i+1)*d])
			atNorm += at[i] * at[i]
		}
		bt := b - dot(a, p0)
		var aNorm float64
		for _, v := range a {
			aNorm += v * v
		}
		if atNorm < 1e-18*(1+aNorm) {
			// The constraint is (anti)parallel to the hyperplane: it does
			// not restrict movement along the hyperplane at all. Either the
			// whole hyperplane satisfies it with slack bt, or none of it
			// does — in particular bt ≈ 0 means the hyperplane IS the
			// constraint's boundary (a region bounded by this hyperplane is
			// touched, not crossed).
			if bt <= minMargin+Tol*(1+math.Abs(b)) {
				blocked = true
			}
			return
		}
		tcons = append(tcons, Constraint{A: at, B: bt})
	}
	for _, con := range cons {
		addRow(con.A, con.B)
	}
	ws.ek = grow(ws.ek, d)
	ek := ws.ek
	clear(ek)
	for k := 0; k < d; k++ {
		ek[k] = 1
		addRow(ek, hi[k])
		ek[k] = -1
		addRow(ek, -lo[k])
		ek[k] = 0
	}
	if blocked {
		return nil, false
	}
	// Bounding box in t-space: the region is inside the original box, whose
	// diameter bounds |t| because the basis is orthonormal.
	var diam float64
	for k := 0; k < d; k++ {
		r := hi[k] - lo[k]
		diam += r * r
	}
	diam = math.Sqrt(diam) + math.Abs(g0)/math.Sqrt(gg) + 1
	ws.tlo = grow(ws.tlo, m)
	ws.thi = grow(ws.thi, m)
	for i := range ws.tlo {
		ws.tlo[i], ws.thi[i] = -diam, diam
	}
	t, margin, err := ws.InteriorPoint(tcons, ws.tlo, ws.thi, rng)
	if err != nil || margin <= minMargin {
		return nil, false
	}
	copy(x, p0)
	for i := 0; i < m; i++ {
		u := basis[i*d : (i+1)*d]
		for k := 0; k < d; k++ {
			x[k] += t[i] * u[k]
		}
	}
	return x, true
}
