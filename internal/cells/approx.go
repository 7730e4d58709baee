package cells

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// ErrUnsatisfiable is returned by Query when no cell anywhere holds a
// satisfactory function.
var ErrUnsatisfiable = errors.New("cells: no satisfactory ranking function exists")

// Options tunes Preprocess.
type Options struct {
	// Seed drives LP randomization and hyperplane shuffling.
	Seed int64
	// PruneTopK, when positive, builds hyperplanes only over items that can
	// reach the top-k (see core.Options.PruneTopK); exact for top-k oracles.
	PruneTopK int
	// MaxHyperplanes caps the number of ordering-exchange hyperplanes
	// (0 = all), mirroring the paper's capped-arrangement experiments.
	MaxHyperplanes int
	// MaxRegionsPerCell caps how many arrangement regions MARKCELL may
	// probe inside one cell before giving up on it (0 = unlimited, the
	// paper's behaviour). Unsatisfiable cells otherwise force a complete
	// per-cell arrangement — the dominant preprocessing cost the paper
	// reports — and a cap trades a slightly weaker Theorem 6 guarantee
	// (a capped cell falls back to CELLCOLORING) for bounded work.
	MaxRegionsPerCell int
	// Workers is the number of goroutines for the MARKCELL phase
	// (cells are independent). 0 = serial; negative = GOMAXPROCS. The
	// index is identical for any worker count.
	Workers int
}

// PhaseTimes records the duration of each preprocessing phase — the series
// plotted in Figures 22 and 23.
type PhaseTimes struct {
	BuildHyperplanes time.Duration // pair listing, shuffle, HYPERPOLAR over the kept pairs
	Partition        time.Duration // ANGLEPARTITIONING
	Assign           time.Duration // CELLPLANE×
	Mark             time.Duration // MARKCELL / ATC+
	Color            time.Duration // CELLCOLORING
}

// Total returns the end-to-end preprocessing time.
func (p PhaseTimes) Total() time.Duration {
	return p.BuildHyperplanes + p.Partition + p.Assign + p.Mark + p.Color
}

// Approx is the §5 index: a partitioned angle space in which every cell
// carries a satisfactory ranking function (when one exists at all), plus
// the per-phase statistics the paper's preprocessing figures report.
type Approx struct {
	Grid        *Grid
	DS          *dataset.Dataset
	Oracle      fairness.Oracle
	Hyperplanes []geom.Hyperplane
	Times       PhaseTimes
	AssignStats AssignStats
	MarkStats   MarkStats
	ColorStats  ColorStats
	OracleCalls int
}

// Preprocess runs the full offline pipeline of §5 over the dataset: build
// ordering-exchange hyperplanes, partition the angle space into ~n cells,
// assign hyperplanes to cells, mark cells intersecting satisfactory
// regions, and color the rest. Under a MaxHyperplanes cap only the kept
// pairs are fitted (arrangement.FitHyperplanes).
func Preprocess(ds *dataset.Dataset, oracle fairness.Oracle, n int, opt Options) (*Approx, error) {
	if ds.D() < 2 {
		return nil, fmt.Errorf("cells: need at least 2 scoring attributes, got %d", ds.D())
	}
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	a := &Approx{DS: ds, Oracle: oracle}

	start := time.Now()
	items := make([]geom.Vector, 0, ds.N())
	if opt.PruneTopK > 0 {
		for _, i := range ds.TopKCandidates(opt.PruneTopK) {
			items = append(items, ds.Item(i))
		}
	} else {
		for i := 0; i < ds.N(); i++ {
			items = append(items, ds.Item(i))
		}
	}
	hps, _, err := arrangement.FitHyperplanes(items, rng, opt.MaxHyperplanes)
	if err != nil {
		return nil, err
	}
	a.Hyperplanes = hps
	a.Times.BuildHyperplanes = time.Since(start)

	start = time.Now()
	grid, err := NewGrid(ds.D(), n)
	if err != nil {
		return nil, err
	}
	a.Grid = grid
	a.Times.Partition = time.Since(start)

	start = time.Now()
	a.AssignStats = grid.AssignHyperplanes(hps)
	a.Times.Assign = time.Since(start)

	var oracleCalls, ranked atomic.Int64
	need := fairness.Reads(oracle)
	newCheck := func() Checker {
		return newProber(ds, oracle, need, &oracleCalls, &ranked)
	}
	start = time.Now()
	workers := opt.Workers
	if workers == 0 {
		workers = 1
	}
	a.MarkStats = MarkCellsParallel(grid, hps, newCheck, rng.Int63(), opt.MaxRegionsPerCell, workers)
	a.MarkStats.Ranked = int(ranked.Load())
	a.Times.Mark = time.Since(start)

	start = time.Now()
	a.ColorStats = ColorCells(grid)
	a.Times.Color = time.Since(start)

	a.OracleCalls = int(oracleCalls.Load())
	return a, nil
}

// stripPad widens a strip's box, in radians, before its candidate list is
// built, so witnesses an LP tolerance puts just outside a cell still rank
// among the candidates.
const stripPad = 1e-7

// prober is one MARKCELL worker's Checker. It owns the restricted ranking
// and the cartesian probe vector, so a probe allocates nothing. When the
// oracle reads only a top-K prefix with 1 ≤ K < n, Strip builds the strip's
// candidate list: geom.CartesianBounds turns the padded strip box into a
// box of weight vectors, and ranking.Restricted keeps the items that can
// reach the top K anywhere in it. A probe whose weight vector lies in that
// box then ranks only those, with the verdict a full ranking gives; any
// other probe, or any probe of an oracle that may read the whole order,
// ranks all n items.
type prober struct {
	ds     *dataset.Dataset
	oracle fairness.Oracle
	need   ranking.Need
	// box is the padded strip box.
	box           geom.Box
	w, wlo, whi   geom.Vector
	rank          ranking.Restricted
	calls, ranked *atomic.Int64
}

func newProber(ds *dataset.Dataset, oracle fairness.Oracle, need ranking.Need, calls, ranked *atomic.Int64) *prober {
	d := ds.D()
	return &prober{
		ds: ds, oracle: oracle, need: need,
		box: geom.Box{Lo: make(geom.Vector, d-1), Hi: make(geom.Vector, d-1)},
		w:   make(geom.Vector, d), wlo: make(geom.Vector, d), whi: make(geom.Vector, d),
		calls: calls, ranked: ranked,
	}
}

// Strip implements Checker: it builds the candidate list of box, padded by
// stripPad and clamped to [0, π/2], when the oracle reads a top K < n.
func (p *prober) Strip(box geom.Box) {
	if p.need.K < 1 || p.need.K >= p.ds.N() {
		return
	}
	for k := range box.Lo {
		p.box.Lo[k] = max(box.Lo[k]-stripPad, 0)
		p.box.Hi[k] = min(box.Hi[k]+stripPad, math.Pi/2)
	}
	geom.CartesianBounds(geom.Angles(p.box.Lo), geom.Angles(p.box.Hi), p.wlo, p.whi)
	// Restrict fails only on a malformed box, and then leaves no list.
	_, _ = p.rank.Restrict(p.ds, p.wlo, p.whi, p.need.K)
}

// Check implements Checker.
func (p *prober) Check(theta geom.Angles) bool {
	theta.ToCartesianInto(1, p.w)
	order, ranked, err := p.rank.Rank(p.ds, p.w, p.need)
	p.ranked.Add(int64(ranked))
	if err != nil {
		return false
	}
	p.calls.Add(1)
	return p.oracle.Check(order)
}

// Satisfiable reports whether any satisfactory function was found.
func (a *Approx) Satisfiable() bool { return a.MarkStats.Marked > 0 }

// Query is MDONLINE (Algorithm 11): if the query function is already
// satisfactory it is returned unchanged; otherwise the query's cell is
// located by per-axis binary search and the cell's stored satisfactory
// function is returned, scaled to the query's magnitude, together with its
// angular distance from the query. By Theorem 6 that distance exceeds the
// optimum by at most 4·arcsin(√(d−1)/2 · (η/N)^{1/(d−1)}).
func (a *Approx) Query(w geom.Vector) (geom.Vector, float64, error) {
	return a.query(w, false)
}

// QueryRefined is Query plus a cheap neighbor refinement: besides the
// located cell's function it considers the functions stored in the 2(d−1)
// axis-adjacent cells and returns the closest. This never worsens the
// answer, costs O(d log N), and in practice recovers much of the gap that
// CELLCOLORING's nearest-seed heuristic leaves (see the abl-refine
// experiment).
func (a *Approx) QueryRefined(w geom.Vector) (geom.Vector, float64, error) {
	return a.query(w, true)
}

// query is Query, plus the neighbor refinement when refine is set.
func (a *Approx) query(w geom.Vector, refine bool) (geom.Vector, float64, error) {
	if len(w) != a.DS.D() {
		return nil, 0, fmt.Errorf("cells: query dimension %d, want %d", len(w), a.DS.D())
	}
	var bufs ranking.Buffers
	order, err := bufs.Rank(a.DS, w, fairness.Reads(a.Oracle))
	if err != nil {
		return nil, 0, err
	}
	if a.Oracle.Check(order) {
		return w.Clone(), 0, nil
	}
	r, q, err := geom.ToPolar(w)
	if err != nil {
		return nil, 0, err
	}
	var probe geom.Angles
	if refine {
		probe = q.Clone()
	}
	bestF, dist := a.bestStored(q, refine, probe, geom.AngleDistance)
	if bestF == nil {
		return nil, 0, ErrUnsatisfiable
	}
	return bestF.ToCartesian(r), dist, nil
}

// bestStored is the one copy of the cell-probe policy shared by the scalar
// and batch query paths: the closest stored function among the located
// cell's and — when refine is set — those of the 2(d−1) axis-adjacent
// cells. probe must be a scratch angle buffer of q's length when refine is
// set (unused otherwise); dist supplies the angular distance so callers can
// choose the allocating or the scratch-buffered implementation. Returns
// (nil, +Inf) when no considered cell holds a function.
func (a *Approx) bestStored(q geom.Angles, refine bool, probe geom.Angles, dist func(a, b geom.Angles) (float64, error)) (geom.Angles, float64) {
	best := math.Inf(1)
	var bestF geom.Angles
	consider := func(c *Cell) {
		if c == nil || c.F == nil {
			return
		}
		if d, err := dist(q, c.F); err == nil && d < best {
			best, bestF = d, c.F
		}
	}
	consider(a.Grid.Locate(q))
	if refine {
		copy(probe, q)
		for k := 0; k < a.DS.D()-1; k++ {
			for _, delta := range [2]float64{-a.Grid.Gamma, a.Grid.Gamma} {
				probe[k] = q[k] + delta
				consider(a.Grid.Locate(probe))
			}
			probe[k] = q[k]
		}
	}
	return bestF, best
}

// Theorem6Bound returns the additive approximation bound of Theorem 6 for
// this index's dimensionality and cell count.
func (a *Approx) Theorem6Bound() float64 {
	return Theorem6Bound(a.DS.D(), a.Grid.N)
}

// Theorem6Bound computes the paper's additive bound
//
//	4·arcsin( √(d−1)/2 · (π^{d/2}/(N·2^{d−1}·Γ(d/2)))^{1/(d−1)} ).
//
// The inner root is the hypercube side 2·sin(γ/2) for γ = CellSide(d, n).
func Theorem6Bound(d, n int) float64 {
	side := 2 * math.Sin(CellSide(d, n)/2)
	arg := math.Sqrt(float64(d-1)) / 2 * side
	if arg > 1 {
		arg = 1
	}
	return 4 * math.Asin(arg)
}
