package twod

import (
	"math/rand"
	"sort"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
)

// latticeDS builds an m×m integer lattice dataset: many item pairs share
// exchange angles exactly (e.g. every pair symmetric about the diagonal
// meets at π/4), so the sweep hits large concurrent-exchange tie groups.
func latticeDS(t *testing.T, m int) *dataset.Dataset {
	t.Helper()
	var rows [][]float64
	var colors []int
	for i := 1; i <= m; i++ {
		for j := 1; j <= m; j++ {
			rows = append(rows, []float64{float64(i), float64(j)})
			colors = append(colors, (i+j)%2)
		}
	}
	ds, err := dataset.New([]string{"x", "y"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("color", []string{"blue", "orange"}, colors); err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertIdentical asserts two indexes agree exactly: same intervals
// (byte-identical floats), same sector and oracle-call counts.
func assertIdentical(t *testing.T, label string, ref, got *Index) {
	t.Helper()
	ri, gi := ref.Intervals(), got.Intervals()
	if len(ri) != len(gi) {
		t.Fatalf("%s: interval count %d vs %d\nref %v\ngot %v", label, len(ri), len(gi), ri, gi)
	}
	for k := range ri {
		if ri[k] != gi[k] {
			t.Fatalf("%s: interval %d differs exactly: %v vs %v", label, k, ri[k], gi[k])
		}
	}
	if ref.Sectors != got.Sectors {
		t.Errorf("%s: sectors %d vs %d", label, ref.Sectors, got.Sectors)
	}
	if ref.OracleCalls != got.OracleCalls {
		t.Errorf("%s: oracle calls %d vs %d", label, ref.OracleCalls, got.OracleCalls)
	}
	if ref.ExchangeCount != got.ExchangeCount {
		t.Errorf("%s: exchanges %d vs %d", label, ref.ExchangeCount, got.ExchangeCount)
	}
}

// oracleFamilies builds one oracle per family over a colored dataset.
func oracleFamilies(t *testing.T, ds *dataset.Dataset) map[string]fairness.Oracle {
	t.Helper()
	maxShare, err := fairness.MaxShare(ds, "color", "blue", 0.30, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	minShare, err := fairness.MinShare(ds, "color", "orange", 0.40, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := fairness.Proportional(ds, "color", 0.50, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	k := 3
	if ds.N() < 6 {
		k = ds.N() / 2
	}
	topk, err := fairness.NewTopK(ds, "color", k, []fairness.GroupBound{{Group: "blue", Min: -1, Max: k - 1}})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]fairness.Oracle{
		"topk":         topk,
		"maxshare":     maxShare,
		"minshare":     minShare,
		"proportional": prop,
		"all":          fairness.All{maxShare, minShare},
		"any":          fairness.Any{topk, prop},
	}
}

// The tentpole equivalence property: the incremental oracle drive and the
// parallel segmented sweep produce byte-identical intervals and identical
// statistics to the serial full-Check sweep, across oracle families, random
// seeds, concurrent-exchange tie groups, and Options.Validate.
func TestSweepEquivalenceAcrossModes(t *testing.T) {
	datasets := map[string]*dataset.Dataset{
		"lattice": latticeDS(t, 6), // dense tie groups at shared angles
	}
	for seed := int64(30); seed < 36; seed++ {
		r := rand.New(rand.NewSource(seed))
		datasets["rand"+string(rune('0'+seed-30))] = randomColoredDS(t, r, 10+r.Intn(25))
	}
	for dsName, ds := range datasets {
		for oName, oracle := range oracleFamilies(t, ds) {
			ref, err := RaySweep(ds, oracle, Options{FullCheck: true})
			if err != nil {
				t.Fatal(err)
			}
			variants := map[string]Options{
				"incremental":        {},
				"parallel2":          {Workers: 2},
				"parallel7":          {Workers: 7},
				"parallelMax":        {Workers: -1},
				"fullcheck-parallel": {FullCheck: true, Workers: 3},
				"validate":           {Validate: true},
				"validate-parallel":  {Validate: true, Workers: 4},
			}
			for vName, opt := range variants {
				got, err := RaySweep(ds, oracle, opt)
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, dsName+"/"+oName+"/"+vName, ref, got)
			}
		}
	}
}

// PruneTopK composed with the incremental + parallel sweep stays exact for
// top-k oracles.
func TestSweepEquivalencePruned(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 6; iter++ {
		ds := randomColoredDS(t, r, 24)
		k := 4
		oracle := topBlueOracle(ds, k, 2, t)
		ref, err := RaySweep(ds, oracle, Options{FullCheck: true, PruneTopK: k})
		if err != nil {
			t.Fatal(err)
		}
		inc, err := RaySweep(ds, oracle, Options{PruneTopK: k})
		if err != nil {
			t.Fatal(err)
		}
		par, err := RaySweep(ds, oracle, Options{PruneTopK: k, Workers: 5})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "pruned/incremental", ref, inc)
		assertIdentical(t, "pruned/parallel", ref, par)
	}
}

// The radix branch of sortExchanges (taken above 1<<14 elements) must agree
// with the comparison sort. Inputs are generated in ascending (I, J) order
// with heavily duplicated thetas — the stability precondition pairs.fill
// provides and the ties the radix sort must keep in (I, J) order.
func TestSortExchangesRadixMatchesComparisonSort(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	var ex []Exchange
	for i := 0; len(ex) < 40000; i++ {
		for j := i + 1; j < i+60; j++ {
			// Quantized thetas force long runs of exact ties.
			theta := float64(r.Intn(500)) * 1e-3
			ex = append(ex, Exchange{Theta: theta, I: int32(i), J: int32(j)})
		}
	}
	want := append([]Exchange(nil), ex...)
	slicesSortFuncRef(want)
	sortExchanges(ex, nil)
	if len(ex) < 1<<14 {
		t.Fatalf("test input too small to reach the radix path: %d", len(ex))
	}
	for k := range want {
		if ex[k] != want[k] {
			t.Fatalf("element %d differs: radix %+v vs comparison %+v", k, ex[k], want[k])
		}
	}
}

// slicesSortFuncRef is the reference order: a stable sort by theta keeps the
// (I, J)-ascending input order within equal thetas — exactly the stability
// contract the radix sort must honor.
func slicesSortFuncRef(ex []Exchange) {
	sort.SliceStable(ex, func(a, b int) bool { return ex[a].Theta < ex[b].Theta })
}

// Parallel chunked exchange construction must produce the identical sorted
// slice, at a size large enough that chunks take the radix path.
func TestExchangeAnglesParallelChunksIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	rows := make([][]float64, 400)
	for i := range rows {
		rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
	}
	ds := mustDS(t, rows)
	serial, err := exchangeAngles(ds, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) < 1<<14 {
		t.Fatalf("dataset too small to reach the radix path: %d exchanges", len(serial))
	}
	for _, workers := range []int{2, 3, 8} {
		par, err := exchangeAngles(ds, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d exchanges vs %d serial", workers, len(par), len(serial))
		}
		for k := range serial {
			if par[k] != serial[k] {
				t.Fatalf("workers=%d: element %d differs: %+v vs %+v", workers, k, par[k], serial[k])
			}
		}
	}
}

// More workers than sectors must degrade gracefully to one sector each.
func TestSweepMoreWorkersThanSectors(t *testing.T) {
	ds := mustDS(t, [][]float64{{1, 2}, {2, 1}}) // single exchange: 2 sectors
	oracle := fairness.Func(func(order []int) bool { return order[0] == 0 })
	ref, err := RaySweep(ds, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RaySweep(ds, oracle, Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, "tiny", ref, got)
}
