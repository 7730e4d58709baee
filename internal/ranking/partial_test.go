package ranking

import (
	"math/rand"
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
