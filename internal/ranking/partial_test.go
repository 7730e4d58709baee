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

func TestPartialOrderMatchesFullPrefix(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for iter := 0; iter < 100; iter++ {
		n := 5 + r.Intn(100)
		d := 1 + r.Intn(4)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.Float64()
			}
			rows[i] = row
		}
		names := make([]string, d)
		ds, err := dataset.New(names, rows)
		if err != nil {
			t.Fatal(err)
		}
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = r.Float64()
		}
		k := 1 + r.Intn(n)
		full, err := Order(ds, w)
		if err != nil {
			t.Fatal(err)
		}
		partial, err := PartialOrder(ds, w, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(partial) != n {
			t.Fatalf("partial order length %d, want %d", len(partial), n)
		}
		for i := 0; i < k; i++ {
			if partial[i] != full[i] {
				t.Fatalf("iter %d (n=%d k=%d): prefix mismatch at %d: %v vs %v",
					iter, n, k, i, partial[:k], full[:k])
			}
		}
		// The tail must be a permutation of the remaining items.
		seen := make([]bool, n)
		for _, it := range partial {
			if seen[it] {
				t.Fatal("duplicate item in partial order")
			}
			seen[it] = true
		}
	}
}

func TestPartialOrderTies(t *testing.T) {
	// All-equal scores: top-k must be the k smallest indices (the full
	// ordering's deterministic tie-break).
	rows := make([][]float64, 20)
	for i := range rows {
		rows[i] = []float64{1}
	}
	ds, _ := dataset.New([]string{"x"}, rows)
	partial, err := PartialOrder(ds, geom.Vector{1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if partial[i] != i {
			t.Fatalf("tie-break wrong: %v", partial[:5])
		}
	}
}

func TestPartialOrderEdges(t *testing.T) {
	ds, _ := dataset.New([]string{"x"}, [][]float64{{3}, {1}, {2}})
	if _, err := PartialOrder(ds, geom.Vector{1}, 0); err == nil {
		t.Error("expected k≥1 error")
	}
	full, err := PartialOrder(ds, geom.Vector{1}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if full[0] != 0 || full[1] != 2 || full[2] != 1 {
		t.Errorf("k≥n should be the full order: %v", full)
	}
	if _, err := PartialOrder(ds, geom.Vector{1, 2}, 2); err == nil {
		t.Error("expected dimension error")
	}
}

func BenchmarkPartialOrderVsFull(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	n := 10000
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = []float64{r.Float64(), r.Float64()}
	}
	ds, _ := dataset.New([]string{"x", "y"}, rows)
	w := geom.Vector{0.4, 0.6}
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Order(ds, w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partial-k100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := PartialOrder(ds, w, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// RankKept over the items Restrict keeps for an angle box gives Rank's top K
// at every weight vector of the box: the same set under SetOnly, the same
// sequence under a sorted need. Rows include negative values and exact
// duplicates, which tie at every score and so also at the K-th; boxes
// include points and ones touching 0 and π/2; probes sit inside each box,
// on its faces and at its corners.
func TestRankKeptMatchesRank(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	var full, cand Buffers
	for iter := 0; iter < 400; iter++ {
		n := 2 + r.Intn(150)
		d := 2 + r.Intn(3)
		levels := r.Intn(2) == 0 // few distinct values: ties everywhere
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
		ds, err := dataset.New(make([]string, d), rows)
		if err != nil {
			t.Fatal(err)
		}
		from, to := make(geom.Angles, d-1), make(geom.Angles, d-1)
		for k := range from {
			a, b := r.Float64()*math.Pi/2, r.Float64()*math.Pi/2
			switch r.Intn(5) {
			case 0:
				a = 0
			case 1:
				b = math.Pi / 2
			case 2:
				b = a // a point on this axis
			case 3:
				b = min(a+0.05*r.Float64(), math.Pi/2)
			}
			from[k], to[k] = min(a, b), max(a, b)
		}
		wlo, whi := make(geom.Vector, d), make(geom.Vector, d)
		geom.CartesianBounds(from, to, wlo, whi)
		need := Need{K: 1 + r.Intn(n), SetOnly: r.Intn(2) == 0}
		kept, err := cand.Restrict(ds, wlo, whi, need.K)
		if err != nil {
			t.Fatal(err)
		}
		if kept < need.K || kept > n {
			t.Fatalf("iter %d: kept %d items for K=%d of n=%d", iter, kept, need.K, n)
		}
		for _, theta := range boxProbes(r, from, to) {
			w := theta.ToCartesian(1)
			want, err := full.Rank(ds, w, need)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cand.RankKept(ds, w, need)
			if err != nil {
				t.Fatal(err)
			}
			if msg := samePrefix(got, want, need); msg != "" {
				t.Fatalf("iter %d (n=%d d=%d K=%d setOnly=%v kept=%d, box %v–%v, probe %v): %s",
					iter, n, d, need.K, need.SetOnly, kept, from, to, theta, msg)
			}
		}
	}
}

// boxProbes returns every corner of the angle box [from, to], a point on
// each face and a few interior points.
func boxProbes(r *rand.Rand, from, to geom.Angles) []geom.Angles {
	dim := len(from)
	inside := func() geom.Angles {
		p := make(geom.Angles, dim)
		for k := range p {
			p[k] = from[k] + r.Float64()*(to[k]-from[k])
		}
		return p
	}
	var out []geom.Angles
	for mask := 0; mask < 1<<dim; mask++ {
		p := make(geom.Angles, dim)
		for k := range p {
			p[k] = from[k]
			if mask&(1<<k) != 0 {
				p[k] = to[k]
			}
		}
		out = append(out, p)
	}
	for k := 0; k < dim; k++ {
		lo, hi := inside(), inside()
		lo[k], hi[k] = from[k], to[k]
		out = append(out, lo, hi)
	}
	for i := 0; i < 4; i++ {
		out = append(out, inside())
	}
	return out
}

// samePrefix compares got's first need.K entries with want's — as sets
// under SetOnly, as sequences otherwise — and checks got is a permutation.
// It returns "" when they agree.
func samePrefix(got, want []int, need Need) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	seen := make([]bool, len(got))
	for _, it := range got {
		if it < 0 || it >= len(got) || seen[it] {
			return fmt.Sprintf("not a permutation: %v", got)
		}
		seen[it] = true
	}
	k := min(need.K, len(got))
	if !need.SetOnly {
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

func TestRankKeptErrors(t *testing.T) {
	ds, _ := dataset.New([]string{"x", "y"}, [][]float64{{3, 1}, {1, 2}, {2, 2}})
	var b Buffers
	w := geom.Vector{0.6, 0.8}
	if _, err := b.RankKept(ds, w, Need{K: 1}); err == nil {
		t.Error("RankKept without Restrict: expected error")
	}
	if _, err := b.Restrict(ds, geom.Vector{0, 0}, geom.Vector{1, 1}, 0); err == nil {
		t.Error("Restrict with k=0: expected error")
	}
	if _, err := b.Restrict(ds, geom.Vector{0}, geom.Vector{1, 1}, 1); err == nil {
		t.Error("Restrict with a short box: expected error")
	}
	if _, err := b.Restrict(ds, geom.Vector{0, 0}, geom.Vector{1, 1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RankKept(ds, w, Need{K: 3}); err == nil {
		t.Error("RankKept beyond the restricted K: expected error")
	}
	if _, err := b.RankKept(ds, w, Need{K: 2}); err != nil {
		t.Fatal(err)
	}
	// A full ranking reuses the buffers and discards the restriction.
	if _, err := b.Rank(ds, w, Need{K: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.RankKept(ds, w, Need{K: 2}); err == nil {
		t.Error("RankKept after Rank: expected error")
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
