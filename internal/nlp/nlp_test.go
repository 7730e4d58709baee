package nlp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"fairrank/internal/geom"
	"fairrank/internal/lp"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(5)) }

func TestClosestPointQueryInside(t *testing.T) {
	// Region: whole box. Closest point to any query is the query itself.
	box := geom.FullAngleBox(3)
	q := geom.Angles{0.7, 0.4}
	p, dist, err := new(Workspace).ClosestAnglePoint(q, nil, box, Options{}, rng())
	if err != nil {
		t.Fatal(err)
	}
	if dist > 1e-4 {
		t.Errorf("distance to self-region = %v, point %v", dist, p)
	}
}

func TestClosestPointHalfSpace(t *testing.T) {
	// Region θ1 ≥ 1 within [0,π/2]²; query at θ=(0.2, 0.3).
	// The closest point should sit on the boundary θ1 = 1.
	box := geom.FullAngleBox(3)
	cons := []lp.Constraint{{A: []float64{-1, 0}, B: -1}} // −θ1 ≤ −1
	q := geom.Angles{0.2, 0.3}
	p, dist, err := new(Workspace).ClosestAnglePoint(q, cons, box, Options{}, rng())
	if err != nil {
		t.Fatal(err)
	}
	if p[0] < 1-1e-4 {
		t.Errorf("solution not in region: %v", p)
	}
	if math.Abs(p[0]-1) > 0.02 {
		t.Errorf("expected boundary solution near θ1=1, got %v", p)
	}
	// Distance must beat any naive region point, e.g. (1.2, 0.3).
	naive, _ := geom.AngleDistance(q, geom.Angles{1.2, 0.3})
	if dist > naive+1e-6 {
		t.Errorf("dist %v worse than naive %v", dist, naive)
	}
}

func TestClosestPointEmptyRegion(t *testing.T) {
	box := geom.FullAngleBox(3)
	cons := []lp.Constraint{
		{A: []float64{1, 0}, B: 0.1},
		{A: []float64{-1, 0}, B: -0.5},
	}
	if _, _, err := new(Workspace).ClosestAnglePoint(geom.Angles{0.3, 0.3}, cons, box, Options{}, rng()); err != ErrEmptyRegion {
		t.Errorf("want ErrEmptyRegion, got %v", err)
	}
}

func TestClosestPointDimensionMismatch(t *testing.T) {
	if _, _, err := new(Workspace).ClosestAnglePoint(geom.Angles{0.3}, nil, geom.FullAngleBox(3), Options{}, rng()); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

// Property: against brute-force grid search over random polytope regions in
// 2 angle dimensions, Frank–Wolfe is within grid resolution of optimal and
// always feasible.
func TestClosestPointAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	box := geom.FullAngleBox(3)
	for iter := 0; iter < 60; iter++ {
		var cons []lp.Constraint
		for i := 0; i < 1+r.Intn(3); i++ {
			a := []float64{r.NormFloat64(), r.NormFloat64()}
			cons = append(cons, lp.Constraint{A: a, B: r.Float64()*2 - 0.3})
		}
		q := geom.Angles{r.Float64() * math.Pi / 2, r.Float64() * math.Pi / 2}
		p, dist, err := new(Workspace).ClosestAnglePoint(q, cons, box, Options{}, r)
		if err == ErrEmptyRegion {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Feasibility.
		for _, con := range cons {
			if con.A[0]*p[0]+con.A[1]*p[1] > con.B+1e-5 {
				t.Fatalf("iter %d: solution infeasible: %v", iter, p)
			}
		}
		// Brute force over a 120×120 grid.
		best := math.Inf(1)
		const steps = 120
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				th := geom.Angles{float64(i) * math.Pi / 2 / steps, float64(j) * math.Pi / 2 / steps}
				ok := true
				for _, con := range cons {
					if con.A[0]*th[0]+con.A[1]*th[1] > con.B+1e-9 {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				if d, _ := geom.AngleDistance(q, th); d < best {
					best = d
				}
			}
		}
		if math.IsInf(best, 1) {
			continue // region thinner than grid
		}
		gridRes := math.Pi / 2 / steps * 2
		if dist > best+gridRes {
			t.Fatalf("iter %d: FW dist %v, brute force %v", iter, dist, best)
		}
	}
}

func TestGoldenSection(t *testing.T) {
	x := goldenSection(func(t float64) float64 { return (t - 0.3) * (t - 0.3) }, 0, 1, 60)
	if math.Abs(x-0.3) > 1e-6 {
		t.Errorf("golden section min = %v, want 0.3", x)
	}
}

// randomRegions draws angle-space regions in 1–4 angles with 0–40
// half-spaces, plus a query per region.
func randomRegions(r *rand.Rand, n int) (regions [][]lp.Constraint, queries []geom.Angles) {
	for i := 0; i < n; i++ {
		m := 1 + r.Intn(4)
		var cons []lp.Constraint
		for j, k := 0, r.Intn(41); j < k; j++ {
			a := make([]float64, m)
			for l := range a {
				a[l] = r.NormFloat64()
			}
			cons = append(cons, lp.Constraint{A: a, B: r.Float64()*2 - 0.3})
		}
		q := make(geom.Angles, m)
		for l := range q {
			q[l] = r.Float64() * math.Pi / 2
		}
		regions = append(regions, cons)
		queries = append(queries, q)
	}
	return regions, queries
}

// One workspace reused across regions of different dimension and
// constraint count must answer exactly like a fresh workspace per region.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	regions, queries := randomRegions(rand.New(rand.NewSource(99)), 300)
	type answer struct {
		p    []uint64
		dist uint64
		err  error
	}
	solve := func(ws *Workspace, i int, rng *rand.Rand) answer {
		p, dist, err := ws.ClosestAnglePoint(queries[i], regions[i], geom.FullAngleBox(len(queries[i])+1), Options{}, rng)
		a := answer{dist: math.Float64bits(dist), err: err}
		for _, v := range p {
			a.p = append(a.p, math.Float64bits(v))
		}
		return a
	}
	var ws Workspace
	rng := rand.New(rand.NewSource(3))
	reused := make([]answer, len(regions))
	for i := range regions {
		reused[i] = solve(&ws, i, rng)
	}
	rng = rand.New(rand.NewSource(3))
	var solved, empty int
	for i := range regions {
		want := solve(new(Workspace), i, rng)
		if !reflect.DeepEqual(reused[i], want) {
			t.Fatalf("region %d (%d angles, %d half-spaces): reused workspace gave %+v, fresh gave %+v",
				i, len(queries[i]), len(regions[i]), reused[i], want)
		}
		if want.err == nil {
			solved++
		} else {
			empty++
		}
	}
	if solved < 50 || empty < 50 {
		t.Errorf("weak mix: %d solved, %d empty regions", solved, empty)
	}
}

// A warm workspace solves without allocating.
func TestWorkspaceNoAllocsWhenWarm(t *testing.T) {
	box := geom.FullAngleBox(4)
	cons := []lp.Constraint{{A: []float64{-1, 0, 0.5}, B: -0.6}, {A: []float64{0.2, 1, 0}, B: 1.1}}
	q := geom.Angles{0.2, 0.3, 1.1}
	var ws Workspace
	rng := rand.New(rand.NewSource(5))
	f := func() {
		if _, _, err := ws.ClosestAnglePoint(q, cons, box, Options{}, rng); err != nil {
			t.Fatal(err)
		}
	}
	f()
	if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
		t.Errorf("warm ClosestAnglePoint allocates %v times per run", allocs)
	}
}
