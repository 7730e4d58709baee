package cells

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/geom"
)

func TestCellSideKnown(t *testing.T) {
	// d=3: η = π^{3/2}/(4·Γ(1.5)) = π/2; side = √(π/(2N)).
	n := 1000
	want := 2 * math.Asin(math.Sqrt(math.Pi/(2*float64(n)))/2)
	if got := CellSide(3, n); math.Abs(got-want) > 1e-12 {
		t.Errorf("CellSide(3,%d) = %v, want %v", n, got, want)
	}
	// More cells → smaller side; higher d → larger side at same N.
	if CellSide(3, 100) <= CellSide(3, 1000) {
		t.Error("side should shrink with N")
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(1, 10); err == nil {
		t.Error("expected d error")
	}
	if _, err := NewGrid(3, 0); err == nil {
		t.Error("expected N error")
	}
}

func TestGridCellCountNearN(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 50}, {3, 100}, {3, 1000}, {4, 500}, {5, 200}} {
		g, err := NewGrid(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		got := g.NumCells()
		// Eq. 14's equal-area heuristic lands within a small constant
		// factor of N (exact for the hypersphere, not the angle cube).
		if got < tc.n/4 || got > tc.n*30 {
			t.Errorf("d=%d N=%d: produced %d cells", tc.d, tc.n, got)
		}
	}
}

func TestGridCellsTileTheBox(t *testing.T) {
	g, err := NewGrid(3, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Total area (in angle-coordinate measure) must equal (π/2)².
	var total float64
	for _, c := range g.Cells {
		area := 1.0
		for k := 0; k < 2; k++ {
			area *= c.Box.Hi[k] - c.Box.Lo[k]
		}
		total += area
	}
	want := math.Pi / 2 * math.Pi / 2
	if math.Abs(total-want) > 1e-6 {
		t.Errorf("cells tile %v of %v", total, want)
	}
}

func TestGridCellDiameterBounded(t *testing.T) {
	// Every cell's box diagonal must be ≤ γ·√(d−1) (+ rounding): this is
	// what Theorem 6's error bound rests on.
	for _, tc := range []struct{ d, n int }{{2, 100}, {3, 300}, {4, 200}} {
		g, err := NewGrid(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		limit := g.Gamma*math.Sqrt(float64(tc.d-1)) + 1e-9
		for _, c := range g.Cells {
			if c.Box.Diameter() > limit {
				t.Errorf("d=%d: cell %d diameter %v > %v", tc.d, c.Index, c.Box.Diameter(), limit)
			}
		}
	}
}

func TestLocateFindsContainingCell(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, d := range []int{2, 3, 4} {
		g, err := NewGrid(d, 300)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < 500; s++ {
			theta := make(geom.Angles, d-1)
			for k := range theta {
				theta[k] = r.Float64() * math.Pi / 2
			}
			c := g.Locate(theta)
			if c == nil {
				t.Fatalf("d=%d: no cell for %v", d, theta)
			}
			if !c.Box.Contains(geom.Vector(theta)) {
				t.Fatalf("d=%d: cell %d %v does not contain %v", d, c.Index, c.Box, theta)
			}
		}
	}
}

func TestLocateBoundaries(t *testing.T) {
	g, err := NewGrid(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	corners := []geom.Angles{
		{0, 0},
		{math.Pi / 2, math.Pi / 2},
		{0, math.Pi / 2},
		{math.Pi / 2, 0},
	}
	for _, c := range corners {
		if cell := g.Locate(c); cell == nil || !cell.Box.Contains(geom.Vector(c)) {
			t.Errorf("corner %v not located", c)
		}
	}
	if g.Locate(geom.Angles{-0.5, 0}) != nil {
		t.Error("negative angle should not locate")
	}
	if g.Locate(geom.Angles{0, 2.0}) != nil {
		t.Error("angle beyond π/2 should not locate")
	}
	if g.Locate(geom.Angles{0}) != nil {
		t.Error("wrong dimension should not locate")
	}
}

func TestCellsDisjoint(t *testing.T) {
	g, err := NewGrid(3, 150)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	// Random interior points must be contained in exactly one cell.
	for s := 0; s < 300; s++ {
		theta := geom.Vector{r.Float64() * math.Pi / 2, r.Float64() * math.Pi / 2}
		count := 0
		for _, c := range g.Cells {
			// Strict interior test to avoid double counting shared facets.
			inside := true
			for k := range theta {
				if theta[k] <= c.Box.Lo[k]+1e-12 || theta[k] >= c.Box.Hi[k]-1e-12 {
					inside = false
					break
				}
			}
			if inside {
				count++
			}
		}
		if count > 1 {
			t.Fatalf("point %v inside %d cells", theta, count)
		}
	}
}

// gridDigest is a SHA-256 over every number NewGrid produces: each cell's
// box bounds and centre in cell order, then every axis node's bounds in
// depth-first order.
func gridDigest(g *Grid) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v []float64) {
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	for _, c := range g.Cells {
		put(c.Box.Lo)
		put(c.Box.Hi)
		put(c.Center)
	}
	var walk func(n *axisNode)
	walk = func(n *axisNode) {
		put(n.bounds)
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(g.root)
	return hex.EncodeToString(h.Sum(nil))
}

// The partition is pinned bit for bit: approx indexes persist only cell
// states and functions, and LoadIndex re-runs NewGrid to rebuild the boxes,
// so any change in the partition's floating-point operations would move
// every approx answer and orphan every stored index.
func TestGridDigests(t *testing.T) {
	for _, tc := range []struct {
		d, n   int
		digest string
	}{
		{2, 100, "d69d5b34bc270fe1f3e095b76a75d940ad7c123961e9648bb2b1475e68454207"},
		{3, 500, "1dfb2b2a3157b540f26593c27bfdc5fa3767e3ee6cd671d8b694038fe34985d7"},
		{3, 4000, "a6bd4e90f2e551eff68f0c50c9b2c51454532f3be931fbb2113f833d25f24c3b"},
		{3, 20000, "5fc29972df4aeddb1f819f16145c2fd456aef3a5ee2a3f7d4d6dac6a626dedb7"},
		{4, 3000, "2a723d25145acb07fc94dfe92e2f08234314ebd07dd515f49057eb61fb6077da"},
		{5, 2000, "22b036b9c44bce678c71fd13b0b3edc1525d58802b9beda8aa227ca1171e5dac"},
	} {
		g, err := NewGrid(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := gridDigest(g); got != tc.digest {
			t.Errorf("NewGrid(%d, %d): %d cells, digest %s, want %s", tc.d, tc.n, g.NumCells(), got, tc.digest)
		}
	}
}
