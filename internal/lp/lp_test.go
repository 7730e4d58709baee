package lp

import (
	"math"
	"math/rand"
	"testing"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestSolve1D(t *testing.T) {
	var ws Workspace
	p := &Problem{
		C:    []float64{1},
		Cons: []Constraint{{A: []float64{2}, B: 3}}, // 2x ≤ 3
		Lo:   []float64{0},
		Hi:   []float64{10},
	}
	x, err := ws.Solve(p, rng())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.5) > 1e-9 {
		t.Errorf("x = %v, want 1.5", x)
	}
	// Minimize by negating.
	p.C = []float64{-1}
	x, err = ws.Solve(p, rng())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]) > 1e-9 {
		t.Errorf("x = %v, want 0", x)
	}
}

func TestSolve1DInfeasible(t *testing.T) {
	var ws Workspace
	p := &Problem{
		C:    []float64{1},
		Cons: []Constraint{{A: []float64{1}, B: -1}}, // x ≤ −1 with x ≥ 0
		Lo:   []float64{0},
		Hi:   []float64{10},
	}
	if _, err := ws.Solve(p, rng()); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

func TestSolve2DKnown(t *testing.T) {
	var ws Workspace
	// max x+y s.t. x+2y ≤ 4, 3x+y ≤ 6, box [0,10]². Optimum at
	// intersection: x=8/5, y=6/5, value 14/5.
	p := &Problem{
		C: []float64{1, 1},
		Cons: []Constraint{
			{A: []float64{1, 2}, B: 4},
			{A: []float64{3, 1}, B: 6},
		},
		Lo: []float64{0, 0},
		Hi: []float64{10, 10},
	}
	x, err := ws.Solve(p, rng())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.6) > 1e-7 || math.Abs(x[1]-1.2) > 1e-7 {
		t.Errorf("x = %v, want (1.6, 1.2)", x)
	}
}

func TestSolveBoxOnly(t *testing.T) {
	var ws Workspace
	p := &Problem{
		C:  []float64{1, -2, 0},
		Lo: []float64{-1, -1, -1},
		Hi: []float64{2, 3, 4},
	}
	x, err := ws.Solve(p, rng())
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 2 || x[1] != -1 {
		t.Errorf("x = %v, want corner (2,-1,·)", x)
	}
}

func TestSolveDegenerateZeroRow(t *testing.T) {
	var ws Workspace
	// 0·x ≤ −1 is unconditionally infeasible.
	p := &Problem{
		C:    []float64{1, 1},
		Cons: []Constraint{{A: []float64{0, 0}, B: -1}},
		Lo:   []float64{0, 0},
		Hi:   []float64{1, 1},
	}
	if _, err := ws.Solve(p, rng()); err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
	// 0·x ≤ 1 is vacuous.
	p.Cons[0].B = 1
	if _, err := ws.Solve(p, rng()); err != nil {
		t.Errorf("vacuous constraint should not fail: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	var ws Workspace
	if _, err := ws.Solve(&Problem{}, rng()); err == nil {
		t.Error("expected error for empty problem")
	}
	if _, err := ws.Solve(&Problem{C: []float64{1}, Lo: []float64{1}, Hi: []float64{0}}, rng()); err == nil {
		t.Error("expected error for empty box")
	}
	if _, err := ws.Solve(&Problem{C: []float64{1}, Lo: []float64{0}, Hi: []float64{1},
		Cons: []Constraint{{A: []float64{1, 2}, B: 0}}}, rng()); err == nil {
		t.Error("expected error for constraint dimension mismatch")
	}
}

// Brute-force reference: sample the optimum over a fine grid of the feasible
// set and compare objective values.
func bruteForceMax(p *Problem, steps int) (best []float64, ok bool) {
	d := p.Dim()
	idx := make([]int, d)
	var rec func(k int)
	bestVal := math.Inf(-1)
	x := make([]float64, d)
	rec = func(k int) {
		if k == d {
			for _, con := range p.Cons {
				if dot(con.A, x) > con.B+1e-9 {
					return
				}
			}
			if v := dot(p.C, x); v > bestVal {
				bestVal = v
				best = append([]float64(nil), x...)
			}
			return
		}
		for i := 0; i <= steps; i++ {
			x[k] = p.Lo[k] + float64(i)*(p.Hi[k]-p.Lo[k])/float64(steps)
			rec(k + 1)
		}
		_ = idx
	}
	rec(0)
	return best, best != nil
}

// Property: on random 2D/3D problems the Seidel optimum matches a grid-based
// brute force within grid resolution, and it is always feasible.
func TestSolveAgainstBruteForce(t *testing.T) {
	var ws Workspace
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 200; iter++ {
		d := 2 + r.Intn(2)
		p := &Problem{
			C:  make([]float64, d),
			Lo: make([]float64, d),
			Hi: make([]float64, d),
		}
		for k := 0; k < d; k++ {
			p.C[k] = r.NormFloat64()
			p.Lo[k] = -1
			p.Hi[k] = 1
		}
		m := r.Intn(6)
		for i := 0; i < m; i++ {
			a := make([]float64, d)
			for k := range a {
				a[k] = r.NormFloat64()
			}
			p.Cons = append(p.Cons, Constraint{A: a, B: r.NormFloat64()})
		}
		x, err := ws.Solve(p, r)
		bf, bfOK := bruteForceMax(p, 24)
		if err == ErrInfeasible {
			// Brute force may find a feasible grid point only if the region
			// is genuinely non-empty; allow tiny slivers to disagree.
			if bfOK {
				// Verify the brute-force point has real margin.
				margin := math.Inf(1)
				for _, con := range p.Cons {
					margin = math.Min(margin, con.B-dot(con.A, bf))
				}
				if margin > 1e-3 {
					t.Fatalf("iter %d: solver infeasible but brute force found margin %v", iter, margin)
				}
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, con := range p.Cons {
			if dot(con.A, x) > con.B+1e-6 {
				t.Fatalf("iter %d: solution violates constraint: %v", iter, x)
			}
		}
		for k := 0; k < d; k++ {
			if x[k] < p.Lo[k]-1e-6 || x[k] > p.Hi[k]+1e-6 {
				t.Fatalf("iter %d: solution leaves box: %v", iter, x)
			}
		}
		if bfOK {
			gridRes := 3.0 / 24
			if dot(p.C, bf) > dot(p.C, x)+gridRes {
				t.Fatalf("iter %d: suboptimal: solver %v=%v, brute %v=%v",
					iter, x, dot(p.C, x), bf, dot(p.C, bf))
			}
		}
	}
}

func TestInteriorPoint(t *testing.T) {
	var ws Workspace
	// Unit square with x+y ≤ 1: most interior point margin is positive.
	cons := []Constraint{{A: []float64{1, 1}, B: 1}}
	x, margin, err := ws.InteriorPoint(cons, []float64{0, 0}, []float64{1, 1}, rng())
	if err != nil {
		t.Fatal(err)
	}
	if margin <= 0.1 {
		t.Errorf("margin = %v, want > 0.1", margin)
	}
	if dot(cons[0].A, x) > 1 {
		t.Errorf("interior point violates constraint: %v", x)
	}
}

func TestInteriorPointEmpty(t *testing.T) {
	var ws Workspace
	cons := []Constraint{
		{A: []float64{1, 0}, B: 0.2},   // x ≤ 0.2
		{A: []float64{-1, 0}, B: -0.8}, // x ≥ 0.8
	}
	_, _, err := ws.InteriorPoint(cons, []float64{0, 0}, []float64{1, 1}, rng())
	if err != ErrInfeasible {
		t.Errorf("want ErrInfeasible, got %v", err)
	}
}

// A region is feasible when its most interior point clears the margin.
func TestFeasible(t *testing.T) {
	var ws Workspace
	feasible := func(cons []Constraint) bool {
		_, margin, err := ws.InteriorPoint(cons, []float64{0, 0}, []float64{1, 1}, rng())
		return err == nil && margin > 1e-6
	}
	if !feasible([]Constraint{{A: []float64{1, 1}, B: 1}}) {
		t.Error("expected feasible")
	}
	if feasible([]Constraint{{A: []float64{1, 0}, B: -1}}) {
		t.Error("expected infeasible")
	}
}

func TestFeasibleOnHyperplane(t *testing.T) {
	var ws Workspace
	// Plane x+y = 1 crosses the unit square interior.
	if x, ok := ws.FeasibleOnHyperplane([]float64{1, 1}, 1, nil, []float64{0, 0}, []float64{1, 1}, 1e-6, rng()); !ok {
		t.Error("expected crossing")
	} else if math.Abs(x[0]+x[1]-1) > 1e-7 {
		t.Errorf("witness off the hyperplane: %v", x)
	}
	// Plane x+y = 5 misses the unit square.
	if _, ok := ws.FeasibleOnHyperplane([]float64{1, 1}, 5, nil, []float64{0, 0}, []float64{1, 1}, 1e-6, rng()); ok {
		t.Error("expected no crossing")
	}
	// With a region constraint cutting away the crossing: x ≤ 0.1 and
	// y ≤ 0.1 leaves x+y ≤ 0.2 < 1.
	cons := []Constraint{
		{A: []float64{1, 0}, B: 0.1},
		{A: []float64{0, 1}, B: 0.1},
	}
	if _, ok := ws.FeasibleOnHyperplane([]float64{1, 1}, 1, cons, []float64{0, 0}, []float64{1, 1}, 1e-6, rng()); ok {
		t.Error("expected no crossing after region cut")
	}
}

func TestFeasibleOnHyperplane1D(t *testing.T) {
	var ws Workspace
	if x, ok := ws.FeasibleOnHyperplane([]float64{2}, 1, nil, []float64{0}, []float64{1}, 0, rng()); !ok || math.Abs(x[0]-0.5) > 1e-9 {
		t.Errorf("1D hyperplane point wrong: %v %v", x, ok)
	}
	if _, ok := ws.FeasibleOnHyperplane([]float64{2}, 5, nil, []float64{0}, []float64{1}, 0, rng()); ok {
		t.Error("1D point outside box should fail")
	}
	if _, ok := ws.FeasibleOnHyperplane([]float64{0}, 1, nil, []float64{0}, []float64{1}, 0, rng()); ok {
		t.Error("zero functional should fail")
	}
}

// A hyperplane that coincides with a region's own boundary must not count
// as crossing it (regression: duplicate hyperplanes used to re-split
// arrangement regions).
func TestFeasibleOnHyperplaneOwnBoundary(t *testing.T) {
	var ws Workspace
	g := []float64{1, 1}
	// Region: g·x ≤ 1 (the hyperplane is the boundary).
	cons := []Constraint{{A: []float64{1, 1}, B: 1}}
	if _, ok := ws.FeasibleOnHyperplane(g, 1, cons, []float64{0, 0}, []float64{2, 2}, 1e-7, rng()); ok {
		t.Error("hyperplane touching only the region boundary must not cross")
	}
	// Region: g·x ≤ 1.5 — the hyperplane g·x = 1 passes through the interior.
	cons2 := []Constraint{{A: []float64{1, 1}, B: 1.5}}
	if _, ok := ws.FeasibleOnHyperplane(g, 1, cons2, []float64{0, 0}, []float64{2, 2}, 1e-7, rng()); !ok {
		t.Error("parallel but slack constraint should not block the crossing")
	}
	// Region entirely on the far side: g·x ≥ 1.5 (−g·x ≤ −1.5).
	cons3 := []Constraint{{A: []float64{-1, -1}, B: -1.5}}
	if _, ok := ws.FeasibleOnHyperplane(g, 1, cons3, []float64{0, 0}, []float64{2, 2}, 1e-7, rng()); ok {
		t.Error("hyperplane disjoint from the region must not cross")
	}
}

// Property: FeasibleOnHyperplane witnesses satisfy all constraints and lie on
// the hyperplane, across random instances.
func TestFeasibleOnHyperplaneProperty(t *testing.T) {
	var ws Workspace
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 300; iter++ {
		d := 2 + r.Intn(4)
		g := make([]float64, d)
		for k := range g {
			g[k] = r.NormFloat64()
		}
		lo := make([]float64, d)
		hi := make([]float64, d)
		for k := 0; k < d; k++ {
			lo[k], hi[k] = 0, 1+r.Float64()
		}
		var cons []Constraint
		for i := 0; i < r.Intn(4); i++ {
			a := make([]float64, d)
			for k := range a {
				a[k] = r.NormFloat64()
			}
			cons = append(cons, Constraint{A: a, B: r.Float64()})
		}
		g0 := r.NormFloat64()
		x, ok := ws.FeasibleOnHyperplane(g, g0, cons, lo, hi, 1e-7, r)
		if !ok {
			continue
		}
		if math.Abs(dot(g, x)-g0) > 1e-6*(1+math.Abs(g0)) {
			t.Fatalf("iter %d: witness off hyperplane: g·x=%v want %v", iter, dot(g, x), g0)
		}
		for _, con := range cons {
			if dot(con.A, x) > con.B+1e-6 {
				t.Fatalf("iter %d: witness violates constraint", iter)
			}
		}
		for k := 0; k < d; k++ {
			if x[k] < lo[k]-1e-6 || x[k] > hi[k]+1e-6 {
				t.Fatalf("iter %d: witness outside box: %v", iter, x)
			}
		}
	}
}
