package twod

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

func mustDS(t *testing.T, rows [][]float64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.New([]string{"x", "y"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestExchangeAnglesPaperFigure2(t *testing.T) {
	// t1⟨1,2⟩ and t2⟨2,1⟩ exchange at exactly π/4 (Figure 2 of the paper).
	ds := mustDS(t, [][]float64{{1, 2}, {2, 1}})
	ex, err := ExchangeAngles(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 1 {
		t.Fatalf("exchanges = %v", ex)
	}
	if math.Abs(ex[0].Theta-math.Pi/4) > 1e-12 {
		t.Errorf("theta = %v, want π/4", ex[0].Theta)
	}
}

func TestExchangeAnglesDominatedPairsSkipped(t *testing.T) {
	ds := mustDS(t, [][]float64{{2, 2}, {1, 1}, {3, 0.5}})
	ex, err := ExchangeAngles(ds)
	if err != nil {
		t.Fatal(err)
	}
	// (0,1): 0 dominates 1 → skipped. (0,2) and (1,2) are incomparable.
	if len(ex) != 2 {
		t.Fatalf("exchanges = %v, want 2", ex)
	}
}

func TestExchangeAnglesDuplicates(t *testing.T) {
	ds := mustDS(t, [][]float64{{1, 1}, {1, 1}})
	ex, err := ExchangeAngles(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(ex) != 0 {
		t.Errorf("duplicate items should have no exchange: %v", ex)
	}
}

func TestExchangeAnglesWrongDimension(t *testing.T) {
	ds, _ := dataset.New([]string{"a", "b", "c"}, [][]float64{{1, 2, 3}})
	if _, err := ExchangeAngles(ds); err == nil {
		t.Error("expected dimension error")
	}
}

// Property: at angles slightly below and above each exchange, the pair's
// relative order flips.
func TestExchangeFlipsOrder(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for iter := 0; iter < 50; iter++ {
		rows := make([][]float64, 8)
		for i := range rows {
			rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
		}
		ds := mustDS(t, rows)
		ex, err := ExchangeAngles(ds)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ex {
			const h = 1e-6
			lo := geom.Vector{math.Cos(e.Theta - h), math.Sin(e.Theta - h)}
			hi := geom.Vector{math.Cos(e.Theta + h), math.Sin(e.Theta + h)}
			si := ds.Item(int(e.I))
			sj := ds.Item(int(e.J))
			before := lo.Dot(si) - lo.Dot(sj)
			after := hi.Dot(si) - hi.Dot(sj)
			if before*after > 0 {
				t.Fatalf("iter %d: pair (%d,%d) does not flip at %v: %v vs %v",
					iter, e.I, e.J, e.Theta, before, after)
			}
		}
	}
}

// topBlueOracle accepts orderings whose top-k contains at most maxBlue items
// with color index 0.
func topBlueOracle(ds *dataset.Dataset, k, maxBlue int, t *testing.T) fairness.Oracle {
	t.Helper()
	o, err := fairness.NewTopK(ds, "color", k, []fairness.GroupBound{{Group: "blue", Min: -1, Max: maxBlue}})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRaySweepAlwaysSatisfied(t *testing.T) {
	ds := mustDS(t, [][]float64{{1, 3.5}, {1.5, 3.1}, {1.91, 2.3}, {2.3, 1.8}, {3.2, 0.9}})
	idx, err := RaySweep(ds, fairness.Func(func([]int) bool { return true }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ivs := idx.Intervals()
	if len(ivs) != 1 || ivs[0].Start != 0 || math.Abs(ivs[0].End-math.Pi/2) > 1e-12 {
		t.Fatalf("intervals = %v, want [0, π/2]", ivs)
	}
	if !idx.Satisfiable() {
		t.Error("should be satisfiable")
	}
}

func TestRaySweepNeverSatisfied(t *testing.T) {
	ds := mustDS(t, [][]float64{{1, 3.5}, {3.2, 0.9}})
	idx, err := RaySweep(ds, fairness.Func(func([]int) bool { return false }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Satisfiable() {
		t.Error("should be unsatisfiable")
	}
	if _, _, err := idx.Query(geom.Vector{1, 1}); err != ErrUnsatisfiable {
		t.Errorf("want ErrUnsatisfiable, got %v", err)
	}
}

// brute-force reference: sample many angles, evaluate the oracle directly.
func bruteSatisfied(t *testing.T, ds *dataset.Dataset, oracle fairness.Oracle, theta float64) bool {
	t.Helper()
	w := geom.Vector{math.Cos(theta), math.Sin(theta)}
	order, err := ranking.Order(ds, w)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.Check(order)
}

// randomColoredDS builds a random dataset with a binary color attribute.
func randomColoredDS(t *testing.T, r *rand.Rand, n int) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, n)
	colors := make([]int, n)
	for i := range rows {
		rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
		colors[i] = r.Intn(2)
	}
	ds := mustDS(t, rows)
	if err := ds.AddTypeAttr("color", []string{"blue", "orange"}, colors); err != nil {
		t.Fatal(err)
	}
	return ds
}

// Property: the interval index agrees with direct oracle evaluation at a
// dense sample of angles (excluding points within tolerance of a boundary).
func TestRaySweepAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for iter := 0; iter < 25; iter++ {
		n := 6 + r.Intn(10)
		ds := randomColoredDS(t, r, n)
		k := 2 + r.Intn(3)
		maxBlue := r.Intn(k + 1)
		oracle := topBlueOracle(ds, k, maxBlue, t)
		idx, err := RaySweep(ds, oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		exchanges, _ := ExchangeAngles(ds)
		const samples = 400
		for s := 0; s <= samples; s++ {
			theta := float64(s) * math.Pi / 2 / samples
			// Skip samples too close to an exchange (ordering ambiguous).
			tooClose := false
			for _, e := range exchanges {
				if math.Abs(e.Theta-theta) < 1e-4 {
					tooClose = true
					break
				}
			}
			if tooClose {
				continue
			}
			want := bruteSatisfied(t, ds, oracle, theta)
			got := false
			for _, iv := range idx.Intervals() {
				if iv.Contains(theta) {
					got = true
					break
				}
			}
			if got != want {
				t.Fatalf("iter %d: disagreement at θ=%v: index=%v oracle=%v (intervals %v)",
					iter, theta, got, want, idx.Intervals())
			}
		}
	}
}

// Property: incremental sweep and validate-mode sweep produce identical
// interval structures.
func TestRaySweepValidateModeAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for iter := 0; iter < 20; iter++ {
		ds := randomColoredDS(t, r, 6+r.Intn(12))
		oracle := topBlueOracle(ds, 3, 1, t)
		fast, err := RaySweep(ds, oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := RaySweep(ds, oracle, Options{Validate: true})
		if err != nil {
			t.Fatal(err)
		}
		fi, si := fast.Intervals(), slow.Intervals()
		if len(fi) != len(si) {
			t.Fatalf("iter %d: interval count %d vs %d\nfast %v\nslow %v", iter, len(fi), len(si), fi, si)
		}
		for k := range fi {
			if math.Abs(fi[k].Start-si[k].Start) > 1e-9 || math.Abs(fi[k].End-si[k].End) > 1e-9 {
				t.Fatalf("iter %d: interval %d differs: %v vs %v", iter, k, fi[k], si[k])
			}
		}
	}
}

func TestQuerySatisfactoryInputReturned(t *testing.T) {
	ds := randomColoredDS(t, rand.New(rand.NewSource(15)), 10)
	idx, err := RaySweep(ds, fairness.Func(func([]int) bool { return true }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	w := geom.Vector{0.3, 0.7}
	got, dist, err := idx.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	if dist != 0 || got[0] != 0.3 || got[1] != 0.7 {
		t.Errorf("satisfactory query modified: %v dist %v", got, dist)
	}
}

func TestQueryReturnsNearestBoundary(t *testing.T) {
	// Hand-built index: satisfactory only on [0.5, 0.7] ∪ [1.2, 1.3].
	idx := &Index{intervals: []Interval{{0.5, 0.7}, {1.2, 1.3}}}
	cases := []struct {
		theta float64
		want  float64
	}{
		{0.6, 0.6},   // inside first
		{0.1, 0.5},   // below first
		{0.9, 0.7},   // between, closer to 0.7
		{1.1, 1.2},   // between, closer to 1.2
		{1.5, 1.3},   // above last
		{1.25, 1.25}, // inside second
	}
	for _, c := range cases {
		w := geom.Vector{math.Cos(c.theta), math.Sin(c.theta)}
		got, dist, err := idx.Query(w)
		if err != nil {
			t.Fatal(err)
		}
		// Boundary answers are nudged ≤1e-7 inside the interval, so allow
		// that much slack.
		_, a, _ := geom.ToPolar(got)
		if math.Abs(a[0]-c.want) > 2e-7 {
			t.Errorf("Query(θ=%v) → θ=%v, want %v", c.theta, a[0], c.want)
		}
		if math.Abs(dist-math.Abs(c.theta-c.want)) > 2e-7 {
			t.Errorf("Query(θ=%v) dist = %v, want %v", c.theta, dist, math.Abs(c.theta-c.want))
		}
	}
}

func TestQueryPreservesMagnitude(t *testing.T) {
	idx := &Index{intervals: []Interval{{0.5, 0.7}}}
	w := geom.Vector{5 * math.Cos(0.1), 5 * math.Sin(0.1)}
	got, _, err := idx.Query(w)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Norm()-5) > 1e-9 {
		t.Errorf("magnitude not preserved: |w'| = %v", got.Norm())
	}
}

func TestQueryInvalidInput(t *testing.T) {
	idx := &Index{intervals: []Interval{{0.5, 0.7}}}
	if _, _, err := idx.Query(geom.Vector{1, 2, 3}); err == nil {
		t.Error("expected dimension error")
	}
	if _, _, err := idx.Query(geom.Vector{0, 0}); err == nil {
		t.Error("expected zero-vector error")
	}
	if _, _, err := idx.Query(geom.Vector{-1, 1}); err == nil {
		t.Error("expected negative-weight error")
	}
}

// Property: the returned function is always satisfactory per the oracle, and
// no sampled angle closer to the query is satisfactory.
func TestQueryOptimalityAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for iter := 0; iter < 15; iter++ {
		ds := randomColoredDS(t, r, 12)
		oracle := topBlueOracle(ds, 4, 1, t)
		idx, err := RaySweep(ds, oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !idx.Satisfiable() {
			continue
		}
		for q := 0; q < 20; q++ {
			theta := r.Float64() * math.Pi / 2
			w := geom.Vector{math.Cos(theta), math.Sin(theta)}
			got, dist, err := idx.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			// Check the result is satisfactory (nudge inward if on boundary).
			_, a, _ := geom.ToPolar(got)
			thGot := a[0]
			satisfied := false
			for _, nudge := range []float64{0, 1e-7, -1e-7} {
				if bruteSatisfied(t, ds, oracle, clampAngle(thGot+nudge)) {
					satisfied = true
					break
				}
			}
			if !satisfied {
				t.Fatalf("iter %d: returned function θ=%v not satisfactory", iter, thGot)
			}
			// No sampled angle closer to the query may be satisfactory.
			const samples = 300
			for s := 0; s <= samples; s++ {
				th := float64(s) * math.Pi / 2 / samples
				if math.Abs(th-theta) < dist-1e-3 && bruteSatisfied(t, ds, oracle, th) {
					// Tolerate boundary effects within 1e-3.
					t.Fatalf("iter %d: angle %v closer than %v is satisfactory (query θ=%v)",
						iter, th, dist, theta)
				}
			}
		}
	}
}

func clampAngle(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > math.Pi/2 {
		return math.Pi / 2
	}
	return x
}

// Property: PruneTopK leaves the satisfactory intervals of a top-k oracle
// unchanged while tracking no more exchanges.
func TestRaySweepPruneTopKExact(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 15; iter++ {
		ds := randomColoredDS(t, r, 20)
		k := 4
		oracle := topBlueOracle(ds, k, 2, t)
		full, err := RaySweep(ds, oracle, Options{})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := RaySweep(ds, oracle, Options{PruneTopK: k})
		if err != nil {
			t.Fatal(err)
		}
		if pruned.ExchangeCount > full.ExchangeCount {
			t.Fatalf("iter %d: pruning increased exchanges %d > %d",
				iter, pruned.ExchangeCount, full.ExchangeCount)
		}
		fi, pi := full.Intervals(), pruned.Intervals()
		if len(fi) != len(pi) {
			t.Fatalf("iter %d: interval counts differ: %v vs %v", iter, fi, pi)
		}
		for j := range fi {
			if math.Abs(fi[j].Start-pi[j].Start) > 1e-9 || math.Abs(fi[j].End-pi[j].End) > 1e-9 {
				t.Fatalf("iter %d: interval %d differs: %v vs %v", iter, j, fi[j], pi[j])
			}
		}
	}
}

func TestRaySweepStatistics(t *testing.T) {
	ds := mustDS(t, [][]float64{{1, 3.5}, {1.5, 3.1}, {1.91, 2.3}, {2.3, 1.8}, {3.2, 0.9}})
	idx, err := RaySweep(ds, fairness.Func(func([]int) bool { return true }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Figure 3's five points form an antichain: all C(5,2)=10 pairs exchange.
	if idx.ExchangeCount != 10 {
		t.Errorf("ExchangeCount = %d, want 10", idx.ExchangeCount)
	}
	if idx.Sectors != 11 {
		t.Errorf("Sectors = %d, want 11", idx.Sectors)
	}
	if idx.OracleCalls != idx.Sectors {
		t.Errorf("OracleCalls = %d, want %d", idx.OracleCalls, idx.Sectors)
	}
}
