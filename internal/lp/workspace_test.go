package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// randomRegion draws a problem in 1–5 variables with 0–60 constraints. kind
// picks the mix: 0 random (often infeasible), 1 degenerate (zero rows,
// duplicated and reversed constraints), 2 loose (mostly feasible).
func randomRegion(r *rand.Rand) (cons []Constraint, c, lo, hi []float64) {
	d := 1 + r.Intn(5)
	lo = make([]float64, d)
	hi = make([]float64, d)
	c = make([]float64, d)
	for k := range lo {
		lo[k] = r.NormFloat64()
		hi[k] = lo[k] + 2*r.Float64()
		c[k] = r.NormFloat64()
	}
	kind := r.Intn(3)
	for i, m := 0, r.Intn(61); i < m; i++ {
		a := make([]float64, d)
		for k := range a {
			a[k] = r.NormFloat64()
		}
		b := r.NormFloat64()
		switch {
		case kind == 1 && len(cons) > 0 && r.Intn(3) == 0:
			p := cons[r.Intn(len(cons))]
			copy(a, p.A)
			b = p.B
		case kind == 1 && len(cons) > 0 && r.Intn(2) == 0:
			p := cons[r.Intn(len(cons))]
			for k := range a {
				a[k] = -p.A[k]
			}
			b = -p.B
		case kind == 1 && r.Intn(4) == 0:
			clear(a)
		case kind == 2:
			b = math.Abs(b) + 3
		}
		cons = append(cons, Constraint{A: a, B: b})
	}
	return cons, c, lo, hi
}

// call is one workspace method invocation with its inputs.
type call struct {
	op        int // 0 Solve, 1 Maximize, 2 InteriorPoint, 3 FeasibleOnHyperplane
	cons      []Constraint
	c, lo, hi []float64
	g0        float64
	x         []float64
	margin    float64
	err       error
	ok        bool
}

func (cl *call) run(ws *Workspace, rng *rand.Rand) {
	var x []float64
	switch cl.op {
	case 0:
		x, cl.err = ws.Solve(&Problem{C: cl.c, Cons: cl.cons, Lo: cl.lo, Hi: cl.hi}, rng)
	case 1:
		x, cl.err = ws.Maximize(cl.c, cl.cons, cl.lo, cl.hi, rng)
	case 2:
		x, cl.margin, cl.err = ws.InteriorPoint(cl.cons, cl.lo, cl.hi, rng)
	case 3:
		x, cl.ok = ws.FeasibleOnHyperplane(cl.c, cl.g0, cl.cons, cl.lo, cl.hi, 1e-7, rng)
	}
	cl.x = append([]float64(nil), x...) // x aliases ws
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// A workspace reused across a random interleaving of all four methods must
// answer exactly like a fresh workspace per call: equal bits, equal errors.
// A row, box bound or basis vector left stale from an earlier, larger or
// differently shaped problem shows up here as a diverging answer.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	calls := make([]call, 2000)
	for i := range calls {
		cons, c, lo, hi := randomRegion(r)
		// The hyperplane c·x = g0 passes through a random point of the box.
		var g0 float64
		for k := range c {
			g0 += c[k] * (lo[k] + r.Float64()*(hi[k]-lo[k]))
		}
		calls[i] = call{op: r.Intn(4), cons: cons, c: c, lo: lo, hi: hi, g0: g0}
	}
	reused := make([]call, len(calls))
	copy(reused, calls)
	var ws Workspace
	rng := rand.New(rand.NewSource(7))
	for i := range reused {
		reused[i].run(&ws, rng)
	}
	fresh := calls
	rng = rand.New(rand.NewSource(7))
	var solved, infeasible, crossed int
	for i := range fresh {
		fresh[i].run(new(Workspace), rng)
		got, want := reused[i], fresh[i]
		if !sameBits(got.x, want.x) || !sameBits([]float64{got.margin}, []float64{want.margin}) ||
			got.ok != want.ok || !sameError(got.err, want.err) {
			t.Fatalf("call %d (op %d, d=%d, m=%d): reused workspace gave x=%v margin=%v ok=%v err=%v; fresh gave x=%v margin=%v ok=%v err=%v",
				i, want.op, len(want.lo), len(want.cons), got.x, got.margin, got.ok, got.err, want.x, want.margin, want.ok, want.err)
		}
		switch {
		case errors.Is(want.err, ErrInfeasible):
			infeasible++
		case want.op == 3 && want.ok:
			crossed++
		case want.op < 3 && want.err == nil:
			solved++
		}
	}
	// The mix must exercise both outcomes, or the comparison proves little.
	if solved < 200 || infeasible < 200 || crossed < 50 {
		t.Errorf("weak mix: %d solved, %d infeasible, %d crossings", solved, infeasible, crossed)
	}
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// A warm workspace solves without allocating.
func TestWorkspaceNoAllocsWhenWarm(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d, m := 4, 60
	p := &Problem{C: make([]float64, d), Lo: make([]float64, d), Hi: make([]float64, d)}
	for k := 0; k < d; k++ {
		p.C[k] = r.NormFloat64()
		p.Hi[k] = 1
	}
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		for k := range a {
			a[k] = r.NormFloat64()
		}
		p.Cons = append(p.Cons, Constraint{A: a, B: 0.5 + r.Float64()})
	}
	g := []float64{1, 1, 1, 1}
	var ws Workspace
	rng := rand.New(rand.NewSource(4))
	run := map[string]func(){
		"Solve": func() {
			if _, err := ws.Solve(p, rng); err != nil {
				t.Fatal(err)
			}
		},
		"InteriorPoint": func() {
			if _, _, err := ws.InteriorPoint(p.Cons, p.Lo, p.Hi, rng); err != nil {
				t.Fatal(err)
			}
		},
		"FeasibleOnHyperplane": func() {
			if _, ok := ws.FeasibleOnHyperplane(g, 0.2, p.Cons, p.Lo, p.Hi, 1e-7, rng); !ok {
				t.Fatal("hyperplane should cross the region")
			}
		},
	}
	for name, f := range run {
		f() // warm
		if allocs := testing.AllocsPerRun(50, f); allocs != 0 {
			t.Errorf("warm Workspace.%s allocates %v times per run", name, allocs)
		}
	}
}
