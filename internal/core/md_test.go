package core

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
	"fairrank/internal/twod"
)

// colored3D builds a random 3-attribute dataset with a binary color.
func colored3D(t *testing.T, r *rand.Rand, n int) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, n)
	colors := make([]int, n)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64(), r.Float64()}
		colors[i] = r.Intn(2)
	}
	ds, err := dataset.New([]string{"a", "b", "c"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("color", []string{"blue", "orange"}, colors); err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestSatRegionsAlwaysTrue(t *testing.T) {
	ds := colored3D(t, rand.New(rand.NewSource(1)), 8)
	idx, err := SatRegions(ds, fairness.Func(func([]int) bool { return true }), Options{UseTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if !idx.Satisfiable() {
		t.Fatal("should be satisfiable")
	}
	if len(idx.Sat) != idx.Arr.NumRegions() {
		t.Errorf("all %d regions should be satisfactory, got %d", idx.Arr.NumRegions(), len(idx.Sat))
	}
	if idx.OracleCalls != idx.Arr.NumRegions() {
		t.Errorf("oracle calls = %d, want one per region (%d)", idx.OracleCalls, idx.Arr.NumRegions())
	}
	// A satisfactory query comes back unchanged with distance 0.
	w := geom.Vector{0.5, 0.3, 0.2}
	got, dist, err := idx.Baseline(w)
	if err != nil || dist != 0 {
		t.Fatalf("Baseline on satisfactory query: %v %v %v", got, dist, err)
	}
}

func TestSatRegionsUnsatisfiable(t *testing.T) {
	ds := colored3D(t, rand.New(rand.NewSource(2)), 6)
	idx, err := SatRegions(ds, fairness.Func(func([]int) bool { return false }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Satisfiable() {
		t.Fatal("should be unsatisfiable")
	}
	if _, _, err := idx.Baseline(geom.Vector{1, 1, 1}); err != ErrUnsatisfiable {
		t.Errorf("want ErrUnsatisfiable, got %v", err)
	}
}

func TestSatRegionsDimensionError(t *testing.T) {
	ds, _ := dataset.New([]string{"x"}, [][]float64{{1}, {2}})
	if _, err := SatRegions(ds, fairness.Func(func([]int) bool { return true }), Options{}); err == nil {
		t.Error("expected dimension error")
	}
}

func TestBaselineQueryDimensionError(t *testing.T) {
	ds := colored3D(t, rand.New(rand.NewSource(3)), 5)
	idx, err := SatRegions(ds, fairness.Func(func([]int) bool { return true }), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := idx.Baseline(geom.Vector{1, 1}); err == nil {
		t.Error("expected dimension error")
	}
}

// In 2D the angle-space hyperplanes are exact, so SATREGIONS + MDBASELINE
// must agree with the exact 2D ray sweep.
func TestMDAgreesWith2D(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 10; iter++ {
		n := 6 + r.Intn(8)
		rows := make([][]float64, n)
		colors := make([]int, n)
		for i := range rows {
			rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
			colors[i] = r.Intn(2)
		}
		ds, err := dataset.New([]string{"x", "y"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.AddTypeAttr("color", []string{"blue", "orange"}, colors); err != nil {
			t.Fatal(err)
		}
		oracle, err := fairness.NewTopK(ds, "color", 3, []fairness.GroupBound{{Group: "blue", Min: -1, Max: 1}})
		if err != nil {
			t.Fatal(err)
		}
		sweep, err := twod.RaySweep(ds, oracle, twod.Options{})
		if err != nil {
			t.Fatal(err)
		}
		md, err := SatRegions(ds, oracle, Options{UseTree: true, Seed: int64(iter)})
		if err != nil {
			t.Fatal(err)
		}
		if sweep.Satisfiable() != md.Satisfiable() {
			t.Fatalf("iter %d: satisfiability disagrees: 2D=%v MD=%v", iter, sweep.Satisfiable(), md.Satisfiable())
		}
		if !sweep.Satisfiable() {
			continue
		}
		for q := 0; q < 10; q++ {
			theta := r.Float64() * math.Pi / 2
			w := geom.Vector{math.Cos(theta), math.Sin(theta)}
			w2, d2, err := sweep.Query(w)
			if err != nil {
				t.Fatal(err)
			}
			wmd, dmd, err := md.Baseline(w)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(d2-dmd) > 0.02 {
				t.Fatalf("iter %d q %d: distances disagree: 2D %v (%v) vs MD %v (%v)",
					iter, q, d2, w2, dmd, wmd)
			}
		}
	}
}

// Property: Baseline's answer is always satisfactory (verified against the
// oracle directly) on 3D instances.
func TestBaselineAnswerSatisfactory(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 6; iter++ {
		ds := colored3D(t, r, 7)
		oracle, err := fairness.NewTopK(ds, "color", 3, []fairness.GroupBound{{Group: "blue", Min: -1, Max: 2}})
		if err != nil {
			t.Fatal(err)
		}
		idx, err := SatRegions(ds, oracle, Options{UseTree: true, Seed: int64(iter)})
		if err != nil {
			t.Fatal(err)
		}
		if !idx.Satisfiable() {
			continue
		}
		for q := 0; q < 5; q++ {
			w := geom.Vector{r.Float64() + 0.01, r.Float64() + 0.01, r.Float64() + 0.01}
			got, _, err := idx.Baseline(w)
			if err != nil {
				t.Fatal(err)
			}
			order, err := ranking.Order(ds, got)
			if err != nil {
				t.Fatal(err)
			}
			if !oracle.Check(order) {
				// Because angle-space hyperplanes interpolate a curved
				// surface for d ≥ 3, the witness verdict can disagree with
				// the exact verdict near region boundaries. Accept if any
				// satisfactory region's witness agrees closely.
				bestD := math.Inf(1)
				_, qa, _ := geom.ToPolar(got)
				for _, reg := range idx.Sat {
					if d, _ := geom.AngleDistance(qa, geom.Angles(reg.Witness)); d < bestD {
						bestD = d
					}
				}
				if bestD > 0.2 {
					t.Fatalf("iter %d: answer %v unsatisfactory and far from any sat region (%v)", iter, got, bestD)
				}
			}
		}
	}
}

// Property: the PruneTopK optimization preserves satisfiability and answer
// quality for top-k oracles in 2D (where everything is exact).
func TestPruneTopKConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 8; iter++ {
		n := 14
		rows := make([][]float64, n)
		colors := make([]int, n)
		for i := range rows {
			rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
			colors[i] = r.Intn(2)
		}
		ds, _ := dataset.New([]string{"x", "y"}, rows)
		_ = ds.AddTypeAttr("color", []string{"blue", "orange"}, colors)
		oracle, err := fairness.NewTopK(ds, "color", 4, []fairness.GroupBound{{Group: "blue", Min: -1, Max: 2}})
		if err != nil {
			t.Fatal(err)
		}
		full, err := SatRegions(ds, oracle, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		pruned, err := SatRegions(ds, oracle, Options{Seed: 7, PruneTopK: 4})
		if err != nil {
			t.Fatal(err)
		}
		if full.Satisfiable() != pruned.Satisfiable() {
			t.Fatalf("iter %d: satisfiability changed by pruning", iter)
		}
		if pruned.HyperplaneCount > full.HyperplaneCount {
			t.Fatalf("iter %d: pruning increased hyperplanes %d > %d",
				iter, pruned.HyperplaneCount, full.HyperplaneCount)
		}
		if !full.Satisfiable() {
			continue
		}
		for q := 0; q < 5; q++ {
			theta := r.Float64() * math.Pi / 2
			w := geom.Vector{math.Cos(theta), math.Sin(theta)}
			_, df, err1 := full.Baseline(w)
			_, dp, err2 := pruned.Baseline(w)
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if math.Abs(df-dp) > 0.02 {
				t.Fatalf("iter %d: pruned answer differs: %v vs %v", iter, df, dp)
			}
		}
	}
}

func TestMaxHyperplanesCap(t *testing.T) {
	ds := colored3D(t, rand.New(rand.NewSource(20)), 10)
	idx, err := SatRegions(ds, fairness.Func(func([]int) bool { return true }),
		Options{MaxHyperplanes: 5, UseTree: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(idx.Arr.Hyperplanes) > 5 {
		t.Errorf("inserted %d hyperplanes, cap was 5", len(idx.Arr.Hyperplanes))
	}
	if idx.HyperplaneCount <= 5 {
		t.Errorf("HyperplaneCount should report the uncapped total, got %d", idx.HyperplaneCount)
	}
}

// TestCappedBuildRetainsOnlyKeptHyperplanes: a capped exact index holds
// only the kept hyperplanes, and every coefficient vector it retains from
// the builder is its own d−1 floats, pinning no larger array.
func TestCappedBuildRetainsOnlyKeptHyperplanes(t *testing.T) {
	const maxH = 12
	ds := colored3D(t, rand.New(rand.NewSource(72)), 40)
	oracle, err := fairness.NewTopK(ds, "color", 8, []fairness.GroupBound{{Group: "blue", Min: 3, Max: -1}})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := SatRegions(ds, oracle, Options{UseTree: true, MaxHyperplanes: maxH, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(idx.Arr.Hyperplanes); got != maxH {
		t.Fatalf("arrangement holds %d hyperplanes, want %d", got, maxH)
	}
	if idx.HyperplaneCount <= maxH {
		t.Fatalf("HyperplaneCount %d: the cap should bind", idx.HyperplaneCount)
	}
	for i, h := range idx.Arr.Hyperplanes {
		if len(h.Coef) != 2 || cap(h.Coef) != 2 {
			t.Fatalf("hyperplane %d coefficients len %d cap %d, want 2", i, len(h.Coef), cap(h.Coef))
		}
	}
}
