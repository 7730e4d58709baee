package fairness

import (
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
)

// randGrouped builds an n-item dataset with a g-group type attribute "g".
func randGrouped(t *testing.T, r *rand.Rand, n, g int) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, n)
	vals := make([]int, n)
	labels := make([]string, g)
	for i := range labels {
		labels[i] = string(rune('a' + i))
	}
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64()}
		vals[i] = r.Intn(g)
	}
	ds, err := dataset.New([]string{"x", "y"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("g", labels, vals); err != nil {
		t.Fatal(err)
	}
	return ds
}

// driveEquivalence runs a long random swap sequence, asserting after every
// step that the incremental verdict matches a fresh full Check.
func driveEquivalence(t *testing.T, o Oracle, n int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	order := r.Perm(n)
	inc := NewIncremental(o)
	inc.Begin(order)
	for step := 0; step < 500; step++ {
		if got, want := inc.Valid(), o.Check(order); got != want {
			t.Fatalf("seed %d step %d: incremental %v, full Check %v (order %v)", seed, step, got, want, order)
		}
		a, b := r.Intn(n), r.Intn(n)
		if a == b {
			continue
		}
		order[a], order[b] = order[b], order[a]
		inc.Swap(a, b)
		if r.Intn(50) == 0 {
			// Occasional rebuild, as the sweep does at concurrent exchanges.
			r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
			inc.Begin(order)
		}
	}
}

func TestIncrementalTopKMatchesCheck(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		ds := randGrouped(t, r, n, 2+r.Intn(3))
		k := 2 + r.Intn(n/2)
		o, err := NewTopK(ds, "g", k, []GroupBound{
			{Group: "a", Min: -1, Max: k / 2},
			{Group: "b", Min: 1, Max: -1},
		})
		if err != nil {
			t.Fatal(err)
		}
		driveEquivalence(t, o, n, seed)
	}
}

func TestIncrementalConstructorFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ds := randGrouped(t, r, 40, 3)
	maxShare, err := MaxShare(ds, "g", "a", 0.30, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	minShare, err := MinShare(ds, "g", "b", 0.40, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := Proportional(ds, "g", 0.50, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range []Oracle{maxShare, minShare, prop} {
		if _, ok := o.(IncrementalProvider); !ok {
			t.Fatalf("oracle %d from a TopK constructor should be an IncrementalProvider", i)
		}
		driveEquivalence(t, o, 40, int64(100+i))
	}
}

func TestIncrementalCombinators(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds := randGrouped(t, r, 30, 2)
	a, _ := NewTopK(ds, "g", 10, []GroupBound{{Group: "a", Min: -1, Max: 6}})
	b, _ := NewTopK(ds, "g", 5, []GroupBound{{Group: "b", Min: 1, Max: -1}})
	prefix, _ := NewPrefix(ds, "g", "a", 8, 0.2, 1)
	cases := []Oracle{
		All{a, b},
		Any{a, b},
		Not{a},
		All{a, Any{b, Not{a}}},
		All{a, prefix},
		Any{prefix, Not{b}},
	}
	for i, o := range cases {
		driveEquivalence(t, o, 30, int64(200+i))
	}
}

func TestIncrementalPrefixMatchesCheck(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 20 + r.Intn(30)
		ds := randGrouped(t, r, n, 2+r.Intn(3))
		k := 2 + r.Intn(n-2)
		pf, err := NewPrefix(ds, "g", "a", k, 0.1+0.5*r.Float64(), r.Intn(3))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := Oracle(pf).(IncrementalProvider); !ok {
			t.Fatal("Prefix should provide a native incremental state")
		}
		driveEquivalence(t, pf, n, seed)
	}
}

// The prefix state must stay exact across the boundary cases a random drive
// may hit rarely: swaps straddling k, swaps entirely past k, and need
// thresholds at or below zero.
func TestIncrementalPrefixBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	ds := randGrouped(t, r, 24, 2)
	for _, tc := range []struct {
		k     int
		p     float64
		slack int
	}{
		{1, 0.9, 0},  // single-prefix window
		{24, 0.5, 0}, // whole dataset: every swap inside the window
		{12, 0.0, 0}, // need = 0 everywhere: never violated
		{12, 0.9, 5}, // big slack pushes early needs below zero
	} {
		pf, err := NewPrefix(ds, "g", "a", tc.k, tc.p, tc.slack)
		if err != nil {
			t.Fatal(err)
		}
		driveEquivalence(t, pf, 24, int64(300+tc.k))
	}
}

func TestIncrementalFallback(t *testing.T) {
	calls := 0
	o := Func(func(order []int) bool { calls++; return order[0]%2 == 0 })
	inc := NewIncremental(o)
	if _, ok := inc.(*fallbackInc); !ok {
		t.Fatalf("plain Func should get the fallback adapter, got %T", inc)
	}
	order := []int{2, 1, 3}
	inc.Begin(order)
	if !inc.Valid() {
		t.Error("order starting with 2 should be valid")
	}
	order[0], order[1] = order[1], order[0]
	inc.Swap(0, 1)
	if inc.Valid() {
		t.Error("order starting with 1 should be invalid")
	}
	if calls != 2 {
		t.Errorf("fallback should call Check once per Valid, got %d", calls)
	}
}

func TestCounterConcurrentSafe(t *testing.T) {
	c := &Counter{O: Func(func([]int) bool { return true })}
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func() {
			for i := 0; i < 1000; i++ {
				c.Check(nil)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if c.Calls() != 8000 {
		t.Errorf("Calls = %d, want 8000", c.Calls())
	}
}
