// Package cells implements the approximation pipeline of §5 of the paper:
// partitioning the angle coordinate system into ~N cells with bounded
// angular diameter (ANGLEPARTITIONING, Algorithm 12 / Appendix A.2),
// assigning every ordering-exchange hyperplane to the cells it crosses
// (CELLPLANE×, Algorithm 7), finding a satisfactory ranking function inside
// each cell that intersects a satisfactory region with an early-stopping
// per-cell arrangement (MARKCELL and ATC+, Algorithms 8-9), flooding the
// remaining cells from the nearest satisfactory cell with Dijkstra's
// algorithm (CELLCOLORING, Algorithm 10), and answering online queries with
// a per-axis binary search (MDONLINE, Algorithm 11).
package cells

import (
	"errors"
	"fmt"
	"math"

	"fairrank/internal/geom"
)

// Cell is one hypercube of the partitioned angle space.
type Cell struct {
	Index  int
	Box    geom.Box
	Center geom.Angles
	// HC holds the indices (into the grid owner's hyperplane list) of the
	// ordering exchanges crossing this cell — the paper's HC[c].
	HC []int
	// F is the satisfactory function assigned to the cell (angle vector),
	// nil until marking/coloring. Marked records whether F was found
	// inside this cell (true) or inherited from a neighbor (false).
	F      geom.Angles
	Marked bool
}

// axisNode is one level of the hierarchical partition: boundaries along one
// axis plus a child per range. Leaf levels store cell indices instead.
type axisNode struct {
	bounds   []float64 // len = #ranges + 1, ascending, [0 ... π/2]
	children []*axisNode
	cells    []int // cell index per range at the last axis
}

// Grid is the partitioned angle space for rays in R^d (cells live in
// [0, π/2]^(d−1)).
type Grid struct {
	D     int     // ambient dimensionality (number of scoring attributes)
	N     int     // requested number of cells
	Gamma float64 // per-axis angular step (Eq. 14)
	Cells []*Cell
	root  *axisNode
}

// CellSide computes γ, the angular side length of a cell, from Eq. 14: the
// first quadrant of the unit hypersphere in R^d has area
// η = π^{d/2} / (2^{d-1} Γ(d/2)); dividing by N and taking the (d−1)-th
// root gives the side of the hypercube base of each cell.
func CellSide(d, n int) float64 {
	eta := math.Pow(math.Pi, float64(d)/2) /
		(float64(uint(1)<<uint(d-1)) * math.Gamma(float64(d)/2))
	side := math.Pow(eta/float64(n), 1/float64(d-1))
	return 2 * math.Asin(side/2)
}

// NewGrid runs ANGLEPARTITIONING (Algorithm 12): it partitions each axis
// into ranges whose endpoints' rays are γ apart (Eq. 16), recursing per
// range for the next axis. The paper's Eq. 16 — with Θ_0 = π/2 as defined
// for Eq. 8 — algebraically reduces to uniform steps θ' = θ + γ (the prefix
// sum in Eq. 15 is the squared norm of a unit vector); we evaluate the
// formula as written, so any deviation would surface in tests.
func NewGrid(d, n int) (*Grid, error) {
	if d < 2 {
		return nil, fmt.Errorf("cells: need d ≥ 2, got %d", d)
	}
	if n < 1 {
		return nil, fmt.Errorf("cells: need N ≥ 1, got %d", n)
	}
	g := &Grid{D: d, N: n, Gamma: CellSide(d, n)}
	prefix := make(geom.Angles, 0, d-1)
	g.root = g.partitionAxis(0, prefix)
	if len(g.Cells) == 0 {
		return nil, errors.New("cells: partitioning produced no cells")
	}
	return g, nil
}

// partitionAxis builds the node for axis i given the prefix angles of
// enclosing ranges (the row-start angles Θ of Algorithm 12). Eq. 16's prefix
// sum and, on the last axis, the upper bounds of the enclosing ranges depend
// only on the prefix, so each is computed once per row.
func (g *Grid) partitionAxis(axis int, prefix geom.Angles) *axisNode {
	node := &axisNode{bounds: []float64{0}}
	sum := prefixSum(prefix)
	var highs geom.Vector
	if axis == g.D-2 {
		highs = prefixHighs(prefix, g.Gamma)
	}
	theta := 0.0
	for theta < math.Pi/2-1e-12 {
		next := stepFrom(theta, sum, g.Gamma)
		if next > math.Pi/2 {
			next = math.Pi / 2
		}
		node.bounds = append(node.bounds, next)
		if axis == g.D-2 {
			// Last axis: materialize the cell for this range column.
			lo := append(prefixLows(prefix), theta)
			hi := make(geom.Vector, len(highs), len(highs)+1)
			copy(hi, highs)
			box := geom.Box{Lo: lo, Hi: append(hi, next)}
			c := &Cell{
				Index:  len(g.Cells),
				Box:    box,
				Center: geom.Angles(box.Center()),
			}
			g.Cells = append(g.Cells, c)
			node.cells = append(node.cells, c.Index)
		} else {
			child := g.partitionAxis(axis+1, append(prefix.Clone(), theta))
			node.children = append(node.children, child)
		}
		theta = next
	}
	return node
}

// prefixLows returns the lower bounds of the enclosing ranges.
func prefixLows(prefix geom.Angles) geom.Vector {
	lo := make(geom.Vector, len(prefix), len(prefix)+1)
	copy(lo, prefix)
	return lo
}

// prefixHighs returns the upper bounds of the enclosing ranges: each range
// starts at the recorded prefix angle and extends by the step Eq. 16
// produced there (capped at π/2).
func prefixHighs(prefix geom.Angles, gamma float64) geom.Vector {
	hi := make(geom.Vector, len(prefix))
	for k, th := range prefix {
		h := nextBoundary(th, prefix[:k], gamma)
		if h > math.Pi/2 {
			h = math.Pi / 2
		}
		hi[k] = h
	}
	return hi
}

// nextBoundary evaluates Eq. 16: given the current angle θ on the axis
// being partitioned and the prefix angles Θ of the enclosing rows, find θ'
// such that the rays of ⟨Θ, θ, 0...⟩ and ⟨Θ, θ', 0...⟩ are γ apart.
func nextBoundary(theta float64, prefix geom.Angles, gamma float64) float64 {
	return stepFrom(theta, prefixSum(prefix), gamma)
}

// prefixSum is the part of Eq. 16 that depends only on the prefix angles:
// Σ_{k=0}^{i-1} sin²Θ_k Π_{l=k+1}^{i-1} cos²Θ_l (Θ_0 = π/2).
func prefixSum(prefix geom.Angles) float64 {
	full := append(geom.Angles{math.Pi / 2}, prefix...)
	var sum float64
	for k := 0; k < len(full); k++ {
		term := math.Sin(full[k]) * math.Sin(full[k])
		for l := k + 1; l < len(full); l++ {
			term *= math.Cos(full[l]) * math.Cos(full[l])
		}
		sum += term
	}
	return sum
}

// stepFrom is Eq. 16 given the prefix sum: α = cos θ · sum, β = sin θ,
// δ = arctan(β/α), Δ = √(α²+β²), θ' = arccos(cos γ / Δ) + δ.
func stepFrom(theta, sum, gamma float64) float64 {
	alpha := math.Cos(theta) * sum
	beta := math.Sin(theta)
	delta := math.Atan2(beta, alpha)
	Delta := math.Hypot(alpha, beta)
	arg := math.Cos(gamma) / Delta
	if arg > 1 {
		arg = 1
	}
	if arg < -1 {
		arg = -1
	}
	next := math.Acos(arg) + delta
	if next <= theta+1e-12 {
		// Guard against a degenerate zero-width range from rounding.
		next = theta + gamma
	}
	return next
}

// Locate is the cell-lookup of MDONLINE (Algorithm 11): per-axis binary
// search for the range containing each angle. It returns nil when theta is
// outside [0, π/2]^(d−1).
func (g *Grid) Locate(theta geom.Angles) *Cell {
	if len(theta) != g.D-1 {
		return nil
	}
	node := g.root
	for axis := 0; axis < g.D-1; axis++ {
		t := theta[axis]
		if t < -geom.Eps || t > math.Pi/2+geom.Eps {
			return nil
		}
		// Binary search: greatest i with bounds[i] ≤ t.
		lo, hi := 0, len(node.bounds)-1
		for lo < hi {
			mid := (lo + hi + 1) / 2
			if node.bounds[mid] <= t {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		if lo == len(node.bounds)-1 {
			lo-- // t == π/2 belongs to the last range
		}
		if axis == g.D-2 {
			return g.Cells[node.cells[lo]]
		}
		node = node.children[lo]
	}
	return nil
}

// NumCells returns the number of cells actually produced (≈ N up to the
// constant factor the paper's Eq. 14 induces).
func (g *Grid) NumCells() int { return len(g.Cells) }
