package ranking

import (
	"math/rand"
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

func TestSwapReturnsPositions(t *testing.T) {
	m := NewMutableOrder([]int{2, 0, 1})
	posA, posB := m.Swap(2, 1) // item 2 at rank 0, item 1 at rank 2
	if posA != 0 || posB != 2 {
		t.Errorf("Swap positions = (%d, %d), want (0, 2)", posA, posB)
	}
	posA, posB = m.Swap(2, 1) // swapped back: positions reversed
	if posA != 2 || posB != 0 {
		t.Errorf("Swap-back positions = (%d, %d), want (2, 0)", posA, posB)
	}
}

// Buffers.Order must agree with the allocating Order for random datasets and
// weights, and reuse its backing storage across calls.
func TestBuffersOrderAgrees(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	var bufs Buffers
	for iter := 0; iter < 20; iter++ {
		n := 2 + r.Intn(40)
		rows := make([][]float64, n)
		for i := range rows {
			// Duplicates included so tie-breaking is exercised.
			rows[i] = []float64{float64(r.Intn(5)), float64(r.Intn(5))}
		}
		ds, err := dataset.New([]string{"x", "y"}, rows)
		if err != nil {
			t.Fatal(err)
		}
		w := geom.Vector{r.Float64() + 0.01, r.Float64() + 0.01}
		want, err := Order(ds, w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := bufs.Order(ds, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d: buffered order %v, want %v", iter, got, want)
			}
		}
	}
}

func TestBuffersOrderDimensionError(t *testing.T) {
	ds, _ := dataset.New([]string{"x"}, [][]float64{{1}, {2}})
	var bufs Buffers
	if _, err := bufs.Order(ds, geom.Vector{1, 2}); err == nil {
		t.Error("expected dimension error")
	}
}

// The sweep's hot path must not allocate per rebuild once the buffers are
// warm.
func TestBuffersOrderNoAllocsWhenWarm(t *testing.T) {
	ds, err := dataset.New([]string{"x", "y"}, [][]float64{
		{1, 3.5}, {1.5, 3.1}, {1.91, 2.3}, {2.3, 1.8}, {3.2, 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	var bufs Buffers
	w := geom.Vector{0.6, 0.4}
	if _, err := bufs.Order(ds, w); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := bufs.Order(ds, w); err != nil {
			t.Fatal(err)
		}
	})
	// sort.SliceStable itself allocates a couple of small headers; the
	// per-item score/order slices must not be reallocated.
	if allocs > 4 {
		t.Errorf("warm Buffers.Order allocates %v times per run", allocs)
	}
}
