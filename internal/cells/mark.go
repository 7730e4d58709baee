package cells

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"fairrank/internal/arrangement"
	"fairrank/internal/geom"
)

// CheckFunc evaluates the fairness oracle at a ranking function given by an
// angle vector, returning true when the induced ordering is satisfactory.
// Callers close over the dataset and oracle (and usually a call counter).
type CheckFunc func(geom.Angles) bool

// A Checker is one MARKCELL worker's oracle. Before probing the cells of a
// strip, MarkCellsParallel calls Strip with the box that covers them; every
// probe of those cells then lies in that box, up to the LP's tolerance, so
// a checker may prepare per-strip work there. Check must give the same
// verdict for a probe outside the box.
type Checker interface {
	Strip(box geom.Box)
	Check(theta geom.Angles) bool
}

// Strip implements Checker: a CheckFunc prepares nothing per strip.
func (f CheckFunc) Strip(geom.Box) {}

// Check implements Checker.
func (f CheckFunc) Check(theta geom.Angles) bool { return f(theta) }

// MarkStats summarizes a MarkCells pass.
type MarkStats struct {
	Marked       int // cells that intersect a satisfactory region
	OracleProbes int // oracle evaluations performed
	Inserted     int // hyperplane insertions across all per-cell arrangements
	Capped       int // cells abandoned at the MaxRegionsPerCell budget
	// Ranked is the number of items ranked across all probes, set by
	// Preprocess, whose checks do the ranking; n per probe without a
	// strip's candidate list.
	Ranked int
}

func (s *MarkStats) add(o MarkStats) {
	s.Marked += o.Marked
	s.OracleProbes += o.OracleProbes
	s.Inserted += o.Inserted
	s.Capped += o.Capped
	s.Ranked += o.Ranked
}

// stripLen is the number of consecutive cells of one last-axis row that
// MARKCELL marks as a strip (see Checker). At explore-md's shape (n=1000,
// d=3, 4000 cells, top-200 oracle) a strip's candidate list holds 273
// items on average against 224 for one cell's; strips of 4 and 8 build
// equally fast.
const stripLen = 4

// strip is a run [lo, hi) of consecutive cell indices in one leaf row of
// the partition: the cells share every angle range but the last, and
// their last-axis ranges are adjacent.
type strip struct{ lo, hi int }

// strips cuts every leaf row of the partition into strips of at most
// stripLen cells, in cell-index order.
func (g *Grid) strips() []strip {
	var out []strip
	var walk func(node *axisNode)
	walk = func(node *axisNode) {
		for _, child := range node.children {
			walk(child)
		}
		for i := 0; i < len(node.cells); i += stripLen {
			j := min(i+stripLen, len(node.cells))
			out = append(out, strip{node.cells[i], node.cells[j-1] + 1})
		}
	}
	walk(g.root)
	return out
}

// MarkCells runs MARKCELL (Algorithm 8) on every cell: it builds the
// arrangement of only the hyperplanes crossing the cell, restricted to the
// cell's box, probing a witness function of every region as soon as the
// region appears (ATC+, Algorithm 9) and stopping the construction early
// when a satisfactory function is found. Cells whose arrangement contains
// no satisfactory function are left unmarked for CELLCOLORING.
func MarkCells(g *Grid, hps []geom.Hyperplane, check CheckFunc, rng *rand.Rand) MarkStats {
	return MarkCellsCapped(g, hps, check, rng, 0)
}

// MarkCellsCapped is MarkCells with a per-cell region budget: a cell whose
// arrangement exceeds maxRegions probed regions is abandoned (left for
// CELLCOLORING). maxRegions ≤ 0 means unlimited.
func MarkCellsCapped(g *Grid, hps []geom.Hyperplane, check CheckFunc, rng *rand.Rand, maxRegions int) MarkStats {
	return MarkCellsParallel(g, hps, func() Checker { return check }, rng.Int63(), maxRegions, 1)
}

// MarkCellsParallel runs MARKCELL over the cells with the given number of
// worker goroutines (workers ≤ 0 uses GOMAXPROCS). Cells are independent,
// so this parallelizes perfectly; the workers take strips of cells in turn.
// A cell's LP randomness is seeded from (seed, cell index) alone, so every
// cell draws the same numbers whichever worker marks it and in whatever
// order: the result is identical for any worker count.
// Each worker calls newCheck once and probes only through the checker it
// gets, so a checker may keep per-worker scratch; anything the checkers
// share (the oracle, a call counter) must be safe for concurrent use (the
// oracles in internal/fairness are read-only after construction; count
// calls atomically if exact counts matter under concurrency).
func MarkCellsParallel(g *Grid, hps []geom.Hyperplane, newCheck func() Checker, seed int64, maxRegions, workers int) MarkStats {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	strips := g.strips()
	markStrip := func(s strip, check Checker, rng *rand.Rand, stats *MarkStats) {
		first, last := g.Cells[s.lo], g.Cells[s.hi-1]
		check.Strip(geom.Box{Lo: first.Box.Lo, Hi: last.Box.Hi})
		for _, c := range g.Cells[s.lo:s.hi] {
			rng.Seed(cellSeed(seed, c.Index))
			if f, ok := markCell(c, hps, check, rng, stats, maxRegions); ok {
				c.F = f
				c.Marked = true
				stats.Marked++
			}
		}
	}
	if workers == 1 {
		var stats MarkStats
		check := newCheck()
		rng := rand.New(new(splitMix64))
		for _, s := range strips {
			markStrip(s, check, rng, &stats)
		}
		return stats
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  atomic.Int64
		total MarkStats
	)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check := newCheck()
			rng := rand.New(new(splitMix64))
			var local MarkStats
			for i := int(next.Add(1) - 1); i < len(strips); i = int(next.Add(1) - 1) {
				markStrip(strips[i], check, rng, &local)
			}
			mu.Lock()
			total.add(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return total
}

// markCell searches one cell for a satisfactory ranking function.
func markCell(c *Cell, hps []geom.Hyperplane, check Checker, rng *rand.Rand, stats *MarkStats, maxRegions int) (geom.Angles, bool) {
	if len(c.HC) == 0 {
		// No ordering exchange crosses the cell: the ordering is constant
		// throughout, so its center speaks for the whole cell (lines 1-5 of
		// Algorithm 8).
		stats.OracleProbes++
		if check.Check(c.Center) {
			return c.Center, true
		}
		return nil, false
	}
	arr := arrangement.New(c.Box, true, rng)
	tested := map[*arrangement.Region]int{}
	probe := func() (geom.Angles, bool) {
		for _, r := range arr.Regions() {
			if v, seen := tested[r]; seen && v == r.Version {
				continue
			}
			tested[r] = r.Version
			if r.Witness == nil {
				continue
			}
			stats.OracleProbes++
			if check.Check(geom.Angles(r.Witness)) {
				return geom.Angles(r.Witness), true
			}
		}
		return nil, false
	}
	// The initial probe tests the cell center (the whole-box region).
	if f, ok := probe(); ok {
		return f, true
	}
	for _, hidx := range c.HC {
		if maxRegions > 0 && len(tested) > maxRegions {
			stats.Capped++
			return nil, false
		}
		arr.Insert(hps[hidx])
		stats.Inserted++
		if f, ok := probe(); ok {
			return f, true // early stop: skip the remaining hyperplanes
		}
	}
	return nil, false
}

// splitMix64 is the rand.Source64 of MARKCELL's per-cell LP randomness:
// reseeding it before each cell is O(1) and allocates nothing, unlike a
// fresh rand.NewSource per cell.
type splitMix64 uint64

func (s *splitMix64) Seed(seed int64) { *s = splitMix64(seed) }

func (s *splitMix64) Uint64() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix64) Int63() int64 { return int64(s.Uint64() >> 1) }

// cellSeed is the seed of one cell's LP randomness: output number index of
// the splitmix64 stream started at seed, so neighbouring cells start their
// streams at unrelated states.
func cellSeed(seed int64, index int) int64 {
	s := splitMix64(uint64(seed) + uint64(index)*0x9e3779b97f4a7c15)
	return int64(s.Uint64())
}
