package ranking

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// randomRows draws n rows of d values: uniform ones with negatives, or few
// distinct levels so that many items tie at the K-th score, and every fifth
// row an exact duplicate of an earlier one.
func randomRows(r *rand.Rand, n, d int) [][]float64 {
	levels := r.Intn(2) == 0
	rows := make([][]float64, n)
	for i := range rows {
		if i > 0 && r.Intn(5) == 0 {
			rows[i] = append([]float64(nil), rows[r.Intn(i)]...)
			continue
		}
		row := make([]float64, d)
		for j := range row {
			if levels {
				row[j] = float64(r.Intn(5)-1) / 2
			} else {
				row[j] = r.Float64()*2 - 0.5
			}
		}
		rows[i] = row
	}
	return rows
}

// randomBox returns a box of weight vectors of one of three kinds: the
// cartesian bounds of an angle box (some touching 0 or π/2, some points on
// an axis), a single point, or the coordinate-wise span of a cloud of
// query vectors, some with negative weights.
func randomBox(r *rand.Rand, d int) (wlo, whi geom.Vector) {
	wlo, whi = make(geom.Vector, d), make(geom.Vector, d)
	switch r.Intn(3) {
	case 0:
		from, to := make(geom.Angles, d-1), make(geom.Angles, d-1)
		for k := range from {
			a, b := r.Float64()*math.Pi/2, r.Float64()*math.Pi/2
			switch r.Intn(5) {
			case 0:
				a = 0
			case 1:
				b = math.Pi / 2
			case 2:
				b = a
			case 3:
				b = min(a+0.05*r.Float64(), math.Pi/2)
			}
			from[k], to[k] = min(a, b), max(a, b)
		}
		geom.CartesianBounds(from, to, wlo, whi)
	case 1:
		for j := range wlo {
			wlo[j] = r.Float64()*1.5 - 0.25
			whi[j] = wlo[j]
		}
	default:
		center := make(geom.Vector, d)
		for j := range center {
			center[j] = r.Float64()*1.5 - 0.25
		}
		spread := 0.2 * r.Float64()
		for q := 0; q < 2+r.Intn(40); q++ {
			for j := range center {
				v := center[j] + spread*r.NormFloat64()
				if q == 0 {
					wlo[j], whi[j] = v, v
				}
				wlo[j], whi[j] = min(wlo[j], v), max(whi[j], v)
			}
		}
	}
	return wlo, whi
}

// weightProbes returns the corners of the box [wlo, whi], a point on each
// face and a few interior points, all inside it, then points outside it:
// one coordinate past each end, and a NaN.
func weightProbes(r *rand.Rand, wlo, whi geom.Vector) (inside, outside []geom.Vector) {
	d := len(wlo)
	interior := func() geom.Vector {
		p := make(geom.Vector, d)
		for j := range p {
			p[j] = min(max(wlo[j]+r.Float64()*(whi[j]-wlo[j]), wlo[j]), whi[j])
		}
		return p
	}
	for mask := 0; mask < 1<<d; mask++ {
		p := wlo.Clone()
		for j := range p {
			if mask&(1<<j) != 0 {
				p[j] = whi[j]
			}
		}
		inside = append(inside, p)
	}
	for j := 0; j < d; j++ {
		lo, hi := interior(), interior()
		lo[j], hi[j] = wlo[j], whi[j]
		inside = append(inside, lo, hi)
	}
	for i := 0; i < 4; i++ {
		inside = append(inside, interior())
	}
	for j := 0; j < d; j++ {
		step := (0.01 + r.Float64()) * (1 + math.Abs(whi[j]) + math.Abs(wlo[j]))
		lo, hi := interior(), interior()
		lo[j], hi[j] = wlo[j]-step, whi[j]+step
		outside = append(outside, lo, hi)
	}
	nan := interior()
	nan[r.Intn(d)] = math.NaN()
	return inside, append(outside, nan)
}

// A restricted rank gives Buffers.Rank's top K at every weight vector: the
// same set under SetOnly, the same sequence under a sorted need, and the
// whole order for K ≤ 0 or K ≥ n. Inside the box and for 1 ≤ K ≤ the
// list's k it ranks only the kept items, also right after a rank outside
// the box; everywhere else it ranks all n.
func TestRestrictedMatchesRank(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	var full Buffers
	var rr Restricted
	for iter := 0; iter < 400; iter++ {
		n, d := 2+r.Intn(150), 2+r.Intn(3)
		ds, err := dataset.New(make([]string, d), randomRows(r, n, d))
		if err != nil {
			t.Fatal(err)
		}
		wlo, whi := randomBox(r, d)
		k := 1 + r.Intn(n)
		kept, err := rr.Restrict(ds, wlo, whi, k)
		if err != nil {
			t.Fatal(err)
		}
		if kept < k || kept > n {
			t.Fatalf("iter %d: kept %d items for k=%d of n=%d", iter, kept, k, n)
		}
		setOnly := r.Intn(2) == 0
		needs := []Need{
			{K: k, SetOnly: setOnly}, {K: 1 + r.Intn(k), SetOnly: !setOnly},
			{K: 0}, {K: -1, SetOnly: true}, {K: n, SetOnly: setOnly}, {K: n + 2},
		}
		inside, outside := weightProbes(r, wlo, whi)
		check := func(w geom.Vector, need Need, wantRanked int) {
			t.Helper()
			want, err := full.Rank(ds, w, need)
			if err != nil {
				t.Fatal(err)
			}
			want = slices.Clone(want)
			got, ranked, err := rr.Rank(ds, w, need)
			if err != nil {
				t.Fatal(err)
			}
			if msg := sameRanking(got, want, need); msg != "" {
				t.Fatalf("iter %d (n=%d d=%d k=%d kept=%d, box %v–%v, need %+v, probe %v): %s",
					iter, n, d, k, kept, wlo, whi, need, w, msg)
			}
			if ranked != wantRanked {
				t.Fatalf("iter %d (n=%d k=%d kept=%d, need %+v, probe %v): ranked %d items, want %d",
					iter, n, k, kept, need, w, ranked, wantRanked)
			}
		}
		for i, w := range inside {
			// A rank outside the box first: the list must stay in force.
			out := outside[i%len(outside)]
			check(out, needs[i%len(needs)], n)
			for _, need := range needs {
				want := n
				if need.K >= 1 && need.K <= k {
					want = kept
				}
				check(w, need, want)
			}
		}
	}
}

// sameRanking compares got with want as far as need asks: the first need.K
// entries as sets under SetOnly and as sequences otherwise, the whole order
// when need.K ≤ 0 or ≥ n (as a set under SetOnly with K ≥ n). It also
// checks got is a permutation, and returns "" when they agree.
func sameRanking(got, want []int, need Need) string {
	n := len(want)
	if len(got) != n {
		return fmt.Sprintf("length %d, want %d", len(got), n)
	}
	seen := make([]bool, n)
	for _, it := range got {
		if it < 0 || it >= n || seen[it] {
			return fmt.Sprintf("not a permutation: %v", got)
		}
		seen[it] = true
	}
	k, setOnly := need.K, need.SetOnly
	switch {
	case k <= 0:
		k, setOnly = n, false
	case k > n:
		k = n
	}
	if !setOnly {
		if !slices.Equal(got[:k], want[:k]) {
			return fmt.Sprintf("prefix %v, want %v", got[:k], want[:k])
		}
		return ""
	}
	a, b := slices.Clone(got[:k]), slices.Clone(want[:k])
	slices.Sort(a)
	slices.Sort(b)
	if !slices.Equal(a, b) {
		return fmt.Sprintf("top set %v, want %v", a, b)
	}
	return ""
}

// A list is used only for the dataset it was built for: another dataset of
// the same size and dimension, even one with equal rows, ranks all n items.
func TestRestrictedKeysOnDataset(t *testing.T) {
	const n = 20
	high, low := make([][]float64, n), make([][]float64, n)
	for i := range high {
		high[i] = []float64{float64(n - i), float64(n - i)}
		low[i] = []float64{float64(i), float64(i)}
	}
	ds, err := dataset.New([]string{"x", "y"}, high)
	if err != nil {
		t.Fatal(err)
	}
	same, _ := dataset.New([]string{"x", "y"}, high)
	other, _ := dataset.New([]string{"x", "y"}, low)
	var rr Restricted
	kept, err := rr.Restrict(ds, geom.Vector{0.5, 0.5}, geom.Vector{1, 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if kept >= n {
		t.Fatalf("kept all %d items; the test needs a list that drops some", kept)
	}
	w := geom.Vector{0.7, 0.8}
	need := Need{K: 3, SetOnly: true}
	var full Buffers
	for _, tc := range []struct {
		name string
		ds   *dataset.Dataset
	}{{"other rows", other}, {"equal rows", same}} {
		want, _ := full.Rank(tc.ds, w, need)
		want = slices.Clone(want)
		got, ranked, err := rr.Rank(tc.ds, w, need)
		if err != nil {
			t.Fatal(err)
		}
		if msg := sameRanking(got, want, need); msg != "" {
			t.Errorf("%s: %s", tc.name, msg)
		}
		if ranked != n {
			t.Errorf("%s: ranked %d items through a list built for another dataset, want %d", tc.name, ranked, n)
		}
	}
	if _, ranked, _ := rr.Rank(ds, w, need); ranked != kept {
		t.Errorf("the list's own dataset ranked %d items, want the %d kept", ranked, kept)
	}
}

func TestRestrictedErrors(t *testing.T) {
	ds, _ := dataset.New([]string{"x", "y"}, [][]float64{{3, 1}, {1, 2}, {2, 2}})
	var rr Restricted
	w := geom.Vector{0.6, 0.8}
	ranked := func(need Need) int {
		t.Helper()
		_, k, err := rr.Rank(ds, w, need)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if got := ranked(Need{K: 1}); got != 3 {
		t.Errorf("without a list: ranked %d items, want 3", got)
	}
	if _, err := rr.Restrict(ds, geom.Vector{0, 0}, geom.Vector{1, 1}, 0); err == nil {
		t.Error("Restrict with k=0: expected error")
	}
	if _, err := rr.Restrict(ds, geom.Vector{0}, geom.Vector{1, 1}, 1); err == nil {
		t.Error("Restrict with a short box: expected error")
	}
	kept, err := rr.Restrict(ds, geom.Vector{0, 0}, geom.Vector{1, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := ranked(Need{K: 2}); got != kept {
		t.Errorf("inside the box: ranked %d items, want the %d kept", got, kept)
	}
	if got := ranked(Need{K: 3}); got != 3 {
		t.Errorf("beyond the list's k: ranked %d items, want 3", got)
	}
	if _, _, err := rr.Rank(ds, geom.Vector{1}, Need{K: 1}); err == nil {
		t.Error("Rank with a short weight vector: expected error")
	}
	// A failed Restrict leaves no list in force, and so does Drop.
	if _, err := rr.Restrict(ds, geom.Vector{0, 0}, geom.Vector{1, 1}, 0); err == nil {
		t.Fatal("Restrict with k=0: expected error")
	}
	if got := ranked(Need{K: 2}); got != 3 {
		t.Errorf("after a failed Restrict: ranked %d items, want 3", got)
	}
	if _, err := rr.Restrict(ds, geom.Vector{0, 0}, geom.Vector{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	rr.Drop()
	if got := ranked(Need{K: 2}); got != 3 {
		t.Errorf("after Drop: ranked %d items, want 3", got)
	}
}

func TestKthLargestMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(200)
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(r.Intn(1 + r.Intn(20))) // many ties
		}
		k := 1 + r.Intn(n)
		sorted := slices.Clone(v)
		slices.Sort(sorted)
		if got, want := kthLargest(v, k), sorted[n-k]; got != want {
			t.Fatalf("iter %d: %d-th largest of %v is %v, want %v", iter, k, sorted, got, want)
		}
	}
}
