package arrangement

import (
	"math/rand"
	"testing"

	"fairrank/internal/geom"
)

// TestFitHyperplanesMatchesAllPairs is the byte-identity argument of
// FitHyperplanes as a test: fitting only the kept prefix of the shuffled
// pair list returns the same hyperplanes, pair tags and |H| as fitting
// every pair, shuffling and cutting — and leaves the rng where the
// all-pairs sequence leaves it. Duplicated and dominated rows exercise the
// pair filter.
func TestFitHyperplanesMatchesAllPairs(t *testing.T) {
	r := rand.New(rand.NewSource(1803))
	for iter := 0; iter < 30; iter++ {
		n, d := 2+r.Intn(40), 2+r.Intn(3)
		items := make([]geom.Vector, n)
		for i := range items {
			items[i] = make(geom.Vector, d)
			for j := range items[i] {
				items[i][j] = r.Float64()
			}
			if i > 0 && r.Intn(6) == 0 {
				copy(items[i], items[r.Intn(i)])
			}
		}
		all, err := BuildHyperplanes(items)
		if err != nil {
			t.Fatal(err)
		}
		maxH := []int{0, 1, 7, len(all), len(all) + 3}[r.Intn(5)]
		seed := r.Int63()

		want := append([]geom.Hyperplane(nil), all...)
		wantRng := rand.New(rand.NewSource(seed))
		ShuffleHyperplanes(want, wantRng)
		if maxH > 0 && len(want) > maxH {
			want = want[:maxH]
		}
		gotRng := rand.New(rand.NewSource(seed))
		got, total, err := FitHyperplanes(items, gotRng, maxH)
		if err != nil {
			t.Fatal(err)
		}
		if total != len(all) {
			t.Fatalf("iter %d: total %d, want %d", iter, total, len(all))
		}
		if len(got) != len(want) || cap(got) != len(got) {
			t.Fatalf("iter %d: %d hyperplanes (cap %d), want %d", iter, len(got), cap(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.I != w.I || g.J != w.J || len(g.Coef) != len(w.Coef) {
				t.Fatalf("iter %d: hyperplane %d is pair (%d,%d), want (%d,%d)", iter, i, g.I, g.J, w.I, w.J)
			}
			for k := range w.Coef {
				if g.Coef[k] != w.Coef[k] {
					t.Fatalf("iter %d: hyperplane %d coefficient %d = %v, want %v", iter, i, k, g.Coef[k], w.Coef[k])
				}
			}
		}
		if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
			t.Fatalf("iter %d: rng diverged after fitting: %d vs %d", iter, g, w)
		}
	}
}
