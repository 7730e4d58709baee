package dataset

import (
	"math/rand"
	"sort"
	"testing"

	"fairrank/internal/geom"
)

func TestDominatedCountsFig3(t *testing.T) {
	// The Figure 3 dataset is an antichain: no item dominates another.
	ds := fig3(t)
	for i, c := range ds.DominatedCounts() {
		if c != 0 {
			t.Errorf("item %d dominated %d times, want 0", i, c)
		}
	}
}

func TestTopKCandidatesCorrectness(t *testing.T) {
	// Property: for random datasets and random non-negative weight vectors,
	// every top-k item under the induced ranking is in TopKCandidates(k).
	r := rand.New(rand.NewSource(13))
	for iter := 0; iter < 50; iter++ {
		n, d := 30, 2+r.Intn(3)
		rows := make([][]float64, n)
		for i := range rows {
			row := make([]float64, d)
			for j := range row {
				row[j] = r.Float64()
			}
			rows[i] = row
		}
		ds, err := New(make([]string, d), rows)
		if err == nil && d >= 1 {
			// names must be non-empty for New? They may be empty strings; fine.
		}
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + r.Intn(5)
		cand := map[int]bool{}
		for _, i := range ds.TopKCandidates(k) {
			cand[i] = true
		}
		for trial := 0; trial < 20; trial++ {
			w := make(geom.Vector, d)
			for j := range w {
				w[j] = r.Float64() + 1e-3
			}
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.Slice(order, func(a, b int) bool {
				return w.Dot(ds.Item(order[a])) > w.Dot(ds.Item(order[b]))
			})
			for _, i := range order[:k] {
				if !cand[i] {
					t.Fatalf("iter %d: top-%d item %d missing from candidates", iter, k, i)
				}
			}
		}
	}
}

func TestTopKCandidatesAllWhenKLarge(t *testing.T) {
	ds := fig3(t)
	if got := ds.TopKCandidates(10); len(got) != 5 {
		t.Errorf("want all items, got %v", got)
	}
}
