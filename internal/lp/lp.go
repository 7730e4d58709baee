// Package lp implements exact linear programming for the low-dimensional
// problems that arise when reasoning about arrangements of ordering-exchange
// hyperplanes: feasibility of a convex region (a conjunction of half-spaces,
// Eq. 6 of the paper), most-interior points of regions, and linear
// optimization over regions (the linear oracle of the Frank–Wolfe solver in
// package nlp).
//
// The solver is Seidel's randomized incremental algorithm, which runs in
// expected O(d!·m) time for m constraints in d variables — effectively linear
// in m for the d ≤ 7 ranking dimensions this system targets, and far better
// suited than tableau simplex, whose tableaus would be m×m for these shapes.
// Problems are always bounded by an explicit box, so unboundedness cannot
// arise.
//
// Every entry point is a method of Workspace, which keeps the recursion's
// reduced problems, the augmented interior-point program and the hyperplane
// reduction in flat buffers that grow to the largest problem seen and are
// then reused, so a warm workspace solves without allocating. A slice a
// method returns aliases the workspace and is valid only until its next
// call; a Workspace is not safe for concurrent use.
package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Tol is the feasibility tolerance of the solver.
const Tol = 1e-9

// ErrInfeasible is returned when the constraint system has no solution.
var ErrInfeasible = errors.New("lp: infeasible")

// Constraint is a linear inequality A·x ≤ B.
type Constraint struct {
	A []float64
	B float64
}

// Norm returns the Euclidean norm of the constraint's normal vector.
func (c Constraint) Norm() float64 { return norm(c.A) }

// Problem is a bounded linear program: maximize C·x subject to Cons and the
// box Lo ≤ x ≤ Hi. The box is mandatory; it both guarantees boundedness and
// anchors Seidel's recursion.
type Problem struct {
	C    []float64
	Cons []Constraint
	Lo   []float64
	Hi   []float64
}

// Dim returns the number of variables.
func (p *Problem) Dim() int { return len(p.C) }

func (p *Problem) validate() error {
	d := p.Dim()
	if d == 0 {
		return errors.New("lp: zero-dimensional problem")
	}
	if len(p.Lo) != d || len(p.Hi) != d {
		return fmt.Errorf("lp: box dimension mismatch: c=%d lo=%d hi=%d", d, len(p.Lo), len(p.Hi))
	}
	if err := checkBox(p.Lo, p.Hi); err != nil {
		return err
	}
	for i, c := range p.Cons {
		if len(c.A) != d {
			return fmt.Errorf("lp: constraint %d dimension %d, want %d", i, len(c.A), d)
		}
	}
	return nil
}

func checkBox(lo, hi []float64) error {
	for k := range lo {
		if lo[k] > hi[k]+Tol {
			return fmt.Errorf("lp: empty box in dimension %d: [%v, %v]", k, lo[k], hi[k])
		}
	}
	return nil
}

// level is the scratch of one depth of Seidel's recursion: a problem in n
// variables whose constraint rows are stored flat, row i being
// a[i·n : (i+1)·n] ≤ b[i].
type level struct {
	n            int
	c, lo, hi, x []float64
	a, b         []float64
}

// reset sizes the level for an n-variable problem with up to m rows.
func (l *level) reset(n, m int) {
	l.n = n
	l.c = grow(l.c, n)
	l.lo = grow(l.lo, n)
	l.hi = grow(l.hi, n)
	l.x = grow(l.x, n)
	l.a = grow(l.a, m*n)
	l.b = grow(l.b, m)
}

func (l *level) row(i int) []float64 { return l.a[i*l.n : (i+1)*l.n : (i+1)*l.n] }

// swap exchanges rows i and j (the shuffle's permutation step).
func (l *level) swap(i, j int) {
	ri, rj := l.row(i), l.row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
	l.b[i], l.b[j] = l.b[j], l.b[i]
}

// grow returns s resliced to length n, reallocating only when its capacity
// is short. Contents are unspecified; callers overwrite what they read.
func grow(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n, 2*n)
	}
	return s[:n]
}

// Workspace holds the reusable buffers of every solver entry point. The zero
// value is ready to use.
type Workspace struct {
	// lv[n] is the recursion level of n-variable problems; lv[0] is unused.
	lv []level
	// zero is an all-zero row standing in for the eliminated variable's box
	// bounds, x_k ≤ hi_k and −x_k ≤ −lo_k, whose other coefficients vanish.
	zero []float64
	// FeasibleOnHyperplane's reduction: the hyperplane's closest point p0,
	// the unit normal and null-space basis (rows of length d), the reduced
	// constraints (tcons over the flat rows ta), the t-space box, a unit row
	// for the box bounds, and the lifted witness.
	p0, unit, basis, ta []float64
	tcons               []Constraint
	tlo, thi, ek, hx    []float64
}

// prepare sizes levels 1..n for a top problem in n variables with m rows.
// Eliminating one variable adds at most one row net (a pinned constraint
// goes, the two box bounds of its variable come in), so level n−j never
// holds more than m+j rows. Sizing every level before the recursion starts
// keeps pointers into ws.lv stable throughout.
func (ws *Workspace) prepare(n, m int) *level {
	if len(ws.lv) <= n {
		lv := make([]level, n+1)
		copy(lv, ws.lv)
		ws.lv = lv
	}
	for j := n; j >= 1; j-- {
		ws.lv[j].reset(j, m+n-j)
	}
	if len(ws.zero) < n {
		ws.zero = make([]float64, n)
	}
	return &ws.lv[n]
}

// Solve maximizes the problem. rng drives the constraint shuffle that gives
// Seidel's algorithm its expected-linear running time; pass a seeded source
// for reproducibility. It returns ErrInfeasible when no point satisfies all
// constraints and the box.
func (ws *Workspace) Solve(p *Problem, rng *rand.Rand) ([]float64, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	d, m := p.Dim(), len(p.Cons)
	top := ws.prepare(d, m)
	copy(top.c, p.C)
	copy(top.lo, p.Lo)
	copy(top.hi, p.Hi)
	for i, con := range p.Cons {
		copy(top.row(i), con.A)
		top.b[i] = con.B
	}
	return ws.shuffleSolve(top, m, rng)
}

// Maximize is Solve over the problem {c, cons, box lo ≤ x ≤ hi}.
func (ws *Workspace) Maximize(c []float64, cons []Constraint, lo, hi []float64, rng *rand.Rand) ([]float64, error) {
	return ws.Solve(&Problem{C: c, Cons: cons, Lo: lo, Hi: hi}, rng)
}

// shuffleSolve puts the top level's m rows in random order and runs Seidel's
// recursion on them.
func (ws *Workspace) shuffleSolve(top *level, m int, rng *rand.Rand) ([]float64, error) {
	rng.Shuffle(m, top.swap)
	return ws.seidel(top, m)
}

// seidel solves max c·x s.t. the level's first m rows and its box, assuming
// the rows are already in random order. The result is the level's x.
func (ws *Workspace) seidel(l *level, m int) ([]float64, error) {
	if l.n == 1 {
		return seidel1D(l, m)
	}
	x := l.x
	for k := range x {
		if l.c[k] >= 0 {
			x[k] = l.hi[k]
		} else {
			x[k] = l.lo[k]
		}
	}
	for i := 0; i < m; i++ {
		a, b := l.row(i), l.b[i]
		scale := 1 + norm(a) + math.Abs(b)
		if dot(a, x) <= b+Tol*scale {
			continue
		}
		// The optimum of rows[:i+1] lies on row i's boundary: reduce to n−1
		// variables by eliminating the coordinate with the largest |A_k|.
		k := argmaxAbs(a)
		if math.Abs(a[k]) < Tol*scale {
			// Degenerate constraint 0·x ≤ B with B < current value: infeasible.
			return nil, ErrInfeasible
		}
		sub := &ws.lv[l.n-1]
		ws.reduce(l, sub, i, k)
		xr, err := ws.seidel(sub, i+2)
		if err != nil {
			return nil, err
		}
		lift(x, xr, a, b, k)
	}
	return x, nil
}

// seidel1D maximizes c·x over an interval intersected with scalar constraints.
func seidel1D(l *level, m int) ([]float64, error) {
	c, lo, hi := l.c[0], l.lo[0], l.hi[0]
	for i := 0; i < m; i++ {
		a, b := l.a[i], l.b[i]
		scale := 1 + math.Abs(a) + math.Abs(b)
		switch {
		case math.Abs(a) < Tol:
			if b < -Tol*scale {
				return nil, ErrInfeasible
			}
		case a > 0:
			hi = math.Min(hi, b/a)
		default:
			lo = math.Max(lo, b/a)
		}
	}
	x := l.x[:1]
	if lo > hi {
		if lo-hi <= Tol*(1+math.Abs(lo)+math.Abs(hi)) {
			x[0] = (lo + hi) / 2
			return x, nil
		}
		return nil, ErrInfeasible
	}
	if c >= 0 {
		x[0] = hi
	} else {
		x[0] = lo
	}
	return x, nil
}

// reduce writes into sub the (n−1)-variable problem of pinning row i of l to
// equality: it substitutes x_k = (B − Σ_{j≠k} A_j x_j)/A_k into the
// objective, the prior rows 0..i−1, and the box bounds of x_k, which become
// rows i and i+1 of sub.
func (ws *Workspace) reduce(l, sub *level, i, k int) {
	con, conB := l.row(i), l.b[i]
	ak := con[k]
	jr := 0
	for j := 0; j < l.n; j++ {
		if j == k {
			continue
		}
		sub.c[jr] = l.c[j] - l.c[k]*con[j]/ak
		sub.lo[jr] = l.lo[j]
		sub.hi[jr] = l.hi[j]
		jr++
	}
	transform := func(r int, g []float64, gk, gb float64) {
		dst := sub.row(r)
		jr := 0
		for j := 0; j < l.n; j++ {
			if j == k {
				continue
			}
			dst[jr] = g[j] - gk*con[j]/ak
			jr++
		}
		sub.b[r] = gb - gk*conB/ak
	}
	for r := 0; r < i; r++ {
		g := l.row(r)
		transform(r, g, g[k], l.b[r])
	}
	zero := ws.zero[:l.n]
	transform(i, zero, 1, l.hi[k])
	transform(i+1, zero, -1, -l.lo[k])
}

// lift reinserts the eliminated coordinate k into x from the reduced
// solution xr and the pinned row a·x = b.
func lift(x, xr, a []float64, b float64, k int) {
	j := 0
	for i := range x {
		if i == k {
			continue
		}
		x[i] = xr[j]
		j++
	}
	s := b
	for i := range x {
		if i != k {
			s -= a[i] * x[i]
		}
	}
	x[k] = s / a[k]
}

func norm(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v * v
	}
	return math.Sqrt(s)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func argmaxAbs(a []float64) int {
	best, bi := math.Abs(a[0]), 0
	for i := 1; i < len(a); i++ {
		if v := math.Abs(a[i]); v > best {
			best, bi = v, i
		}
	}
	return bi
}
