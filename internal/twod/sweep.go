// Package twod implements the two-dimensional pipeline of §3: the ordering
// exchanges of item pairs are single angles in [0, π/2]; the ray-sweeping
// algorithm 2DRAYSWEEP enumerates the sectors between consecutive exchange
// angles, queries the fairness oracle once per sector, and indexes the
// satisfactory angular intervals; the online algorithm 2DONLINE answers a
// query function by binary search over the interval endpoints.
package twod

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// Exchange is the ordering exchange of items I and J: the angle of the
// unique ranking function scoring both equally (Eq. 2 of the paper, via the
// equivalent direct form tan θ = −Δx/Δy). The item indexes are int32 so an
// exchange packs into 16 bytes: an index keeps its whole Θ(n²) exchange
// list for repair, and a dataset whose list fits in memory at all has far
// fewer than 2³¹ items.
type Exchange struct {
	Theta float64
	I, J  int32
}

// ExchangeAngles computes the ordering exchanges of every pair of items that
// do not dominate each other. Pairs where one item dominates the other never
// change relative order, and duplicate items never strictly swap, so neither
// contributes an exchange. The result is sorted by angle (ties by item pair,
// making the output a deterministic total order).
func ExchangeAngles(ds *dataset.Dataset) ([]Exchange, error) {
	return exchangeAngles(ds, runtime.GOMAXPROCS(0))
}

// cmpExchange is the strict total order on exchanges: angle, then item pair.
func cmpExchange(a, b Exchange) int {
	switch {
	case a.Theta < b.Theta:
		return -1
	case a.Theta > b.Theta:
		return 1
	case a.I != b.I:
		return int(a.I) - int(b.I)
	default:
		return int(a.J) - int(b.J)
	}
}

// pairTan is the exchange filter and angle arithmetic for the pair delta
// (dx, dy) = t_i − t_j: it returns tan θ of the pair's exchange, and false
// when the pair has none inside (0, π/2). The dominance tests are
// geom.Dominates inlined for d = 2. Builds and repairs both enumerate
// through it, so one pair always gets a bit-identical angle.
func pairTan(dx, dy float64) (float64, bool) {
	const eps = geom.Eps
	if dx >= -eps && dy >= -eps && (dx > eps || dy > eps) {
		return 0, false // i dominates j
	}
	if dx <= eps && dy <= eps && (dx < -eps || dy < -eps) {
		return 0, false // j dominates i
	}
	if math.Abs(dy) < eps {
		return 0, false // equal items (dominance already filtered Δy=0, Δx≠0)
	}
	r := -dx / dy
	return r, r > eps // r ≤ eps: exchange outside (0, π/2), same order everywhere
}

// coords returns the dataset's two scoring columns as flat arrays, which
// keep the O(n²) pair loops free of slice-header indirection.
func coords(ds *dataset.Dataset) (xs, ys []float64) {
	n := ds.N()
	c := make([]float64, 2*n)
	xs, ys = c[:n:n], c[n:]
	for i := 0; i < n; i++ {
		it := ds.Item(i)
		xs[i], ys[i] = it[0], it[1]
	}
	return xs, ys
}

// pairs is the pair set {(i, j) : rowLo ≤ i < rowHi, max(i+1, colLo) ≤ j < n}:
// one row range of a build (colLo 0) or, in a repair, every pair touching an
// item appended at colLo or later. count and fill apply the same filter, so
// fill's output is sized exactly before any angle is computed.
type pairs struct {
	xs, ys              []float64
	rowLo, rowHi, colLo int
}

// count returns how many of the pairs have an exchange, without the atan.
func (p pairs) count() int {
	xs, ys := p.xs, p.ys
	kept := 0
	for i := p.rowLo; i < p.rowHi; i++ {
		xi, yi := xs[i], ys[i]
		for j := max(i+1, p.colLo); j < len(xs); j++ {
			if _, ok := pairTan(xi-xs[j], yi-ys[j]); ok {
				kept++
			}
		}
	}
	return kept
}

// fill writes the pairs' exchanges into out, which holds exactly count() of
// them, in row-major (I, J) order.
func (p pairs) fill(out []Exchange) {
	xs, ys := p.xs, p.ys
	k := 0
	for i := p.rowLo; i < p.rowHi; i++ {
		xi, yi := xs[i], ys[i]
		for j := max(i+1, p.colLo); j < len(xs); j++ {
			if r, ok := pairTan(xi-xs[j], yi-ys[j]); ok {
				out[k] = Exchange{Theta: math.Atan(r), I: int32(i), J: int32(j)}
				k++
			}
		}
	}
}

// exchangeAngles is ExchangeAngles with the O(n²) pair enumeration and the
// sort split into the given number of chunks: contiguous row ranges of
// roughly equal pair counts, each counted, then filled and sorted in its own
// slot of one exact-size buffer, concurrently; the sorted chunks then merge
// pairwise, alternating between that buffer and a second one that also
// serves as the radix sort's scratch. The comparator is a total order, so
// the result is identical for every chunk count. It has len == cap.
func exchangeAngles(ds *dataset.Dataset, chunks int) ([]Exchange, error) {
	if ds.D() != 2 {
		return nil, fmt.Errorf("twod: dataset has %d scoring attributes, want 2", ds.D())
	}
	n := ds.N()
	chunks = max(1, min(chunks, n))
	xs, ys := coords(ds)
	// Row i contributes n−1−i pairs; give each chunk ~1/chunks of the
	// n(n−1)/2 total.
	parts := make([]pairs, chunks)
	rowLo, target := 0, n*(n-1)/2/chunks
	for c := range parts {
		rowHi := n
		if c < chunks-1 {
			rowHi = rowLo
			for p := 0; rowHi < n && p < target; rowHi++ {
				p += n - 1 - rowHi
			}
		}
		parts[c] = pairs{xs: xs, ys: ys, rowLo: rowLo, rowHi: rowHi}
		rowLo = rowHi
	}
	// bounds[c] is where chunk c starts in the buffers; bounds[chunks] is the
	// total.
	bounds := make([]int, chunks+1)
	parallel(chunks, func(c int) { bounds[c+1] = parts[c].count() })
	for c := 1; c <= chunks; c++ {
		bounds[c] += bounds[c-1]
	}
	src, dst := make([]Exchange, bounds[chunks]), make([]Exchange, bounds[chunks])
	parallel(chunks, func(c int) {
		lo, hi := bounds[c], bounds[c+1]
		parts[c].fill(src[lo:hi])
		sortExchanges(src[lo:hi], dst[lo:hi])
	})
	// Pairwise merge tree: each round merges neighbouring runs of src into
	// the same span of dst (an odd last run is copied across) and swaps the
	// buffers; merges within a round run concurrently.
	for runs := chunks; runs > 1; runs = (runs + 1) / 2 {
		parallel((runs+1)/2, func(m int) {
			lo, mid := bounds[2*m], bounds[2*m+1]
			if 2*m+1 == runs {
				copy(dst[lo:mid], src[lo:mid])
				return
			}
			hi := bounds[2*m+2]
			mergeExchanges(dst[lo:hi], src[lo:mid], src[mid:hi])
		})
		for m := 0; 2*m < runs; m++ {
			bounds[m] = bounds[2*m]
		}
		bounds[(runs+1)/2] = bounds[runs]
		src, dst = dst, src
	}
	return src, nil
}

// parallel runs f(0), …, f(k−1) concurrently, the last on the calling
// goroutine, and returns once all have finished.
func parallel(k int, f func(int)) {
	var wg sync.WaitGroup
	wg.Add(k - 1)
	for c := 0; c < k-1; c++ {
		go func() {
			defer wg.Done()
			f(c)
		}()
	}
	f(k - 1)
	wg.Wait()
}

// sortExchanges sorts ex into cmpExchange order; ex must list equal thetas
// in ascending (I, J) order, as row-major enumeration does. Large inputs use
// a stable LSD radix sort on the theta float bits through scratch (nil, or
// shorter than ex, allocates it): all thetas are positive, so their IEEE bit
// patterns order like the values, and stability preserves the (I, J)
// tie-break. The radix passes beat the comparison sort's Θ(E log E)
// comparator calls on the sweep's hottest input sizes.
func sortExchanges(ex, scratch []Exchange) {
	if len(ex) < 1<<14 {
		slices.SortFunc(ex, cmpExchange)
		return
	}
	if len(scratch) < len(ex) {
		scratch = make([]Exchange, len(ex))
	}
	src, dst := ex, scratch[:len(ex)]
	var counts [1 << 16]int32
	for shift := 0; shift < 64; shift += 16 {
		for i := range counts {
			counts[i] = 0
		}
		for k := range src {
			counts[(math.Float64bits(src[k].Theta)>>shift)&0xffff]++
		}
		var sum int32
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for k := range src {
			b := (math.Float64bits(src[k].Theta) >> shift) & 0xffff
			dst[counts[b]] = src[k]
			counts[b]++
		}
		src, dst = dst, src
	}
	// 64/16 = 4 passes: the sorted data landed back in ex.
}

// mergeExchanges merges the cmpExchange-sorted a and b into dst, which has
// room for exactly len(a)+len(b) exchanges.
func mergeExchanges(dst, a, b []Exchange) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if cmpExchange(a[i], b[j]) <= 0 {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}

// Interval is a satisfactory angular range [Start, End] ⊆ [0, π/2]: every
// ranking function with angle inside it produces a fair ordering.
type Interval struct {
	Start, End float64
}

// Contains reports whether theta lies in the closed interval.
func (iv Interval) Contains(theta float64) bool {
	return theta >= iv.Start-geom.Eps && theta <= iv.End+geom.Eps
}

// Index is the offline product of the 2D ray sweep: the sorted satisfactory
// intervals (the paper's list S of region borders) plus sweep statistics.
type Index struct {
	intervals []Interval
	// ExchangeCount is |Θ|, the number of ordering exchanges swept
	// (plotted on the left axis of Fig. 17).
	ExchangeCount int
	// OracleCalls is the number of fairness-oracle evaluations performed.
	OracleCalls int
	// Sectors is the number of angular sectors examined.
	Sectors int

	// Retained build state for incremental repair (see Repair): the sorted
	// exchange list the sweep ran over, the item count it was built for, and
	// the build options. In-memory only — persisted indexes drop it, so a
	// loaded index reports repairable == false and patches fall back to a
	// rebuild. PruneTopK builds also drop it: the candidate set is a global
	// property of the dataset that a delta can reshape arbitrarily.
	exchanges  []Exchange
	n          int
	buildOpts  Options
	repairable bool
}

// Options tunes RaySweep.
type Options struct {
	// Validate re-sorts the ordering from scratch inside every sector
	// instead of maintaining it incrementally by swaps. Quadratically
	// slower; used by tests to cross-check the incremental sweep.
	Validate bool
	// PruneTopK, when positive, drops ordering exchanges between pairs of
	// items that are both dominated by at least PruneTopK others — such
	// items never reach rank ≤ PruneTopK under any non-negative linear
	// function, so those exchanges cannot change a top-k oracle's verdict.
	// This is the §8 convex/dominance-layer optimization; it is exact for
	// oracles that inspect only the top-PruneTopK prefix and unsound for
	// oracles that look deeper.
	PruneTopK int
	// Workers sets only the sector sweep; the pair enumeration and sort
	// always use every CPU (GOMAXPROCS), because their output is identical
	// however the rows are split. Workers splits [0, π/2] into that many
	// contiguous sector segments swept concurrently, each seeded with one
	// full sort at its segment start; satisfactory intervals are merged
	// exactly at segment boundaries, so the result is identical to the
	// serial sweep for any worker count. The only caveat is eps-degenerate
	// data, the one case where a segmented sweep can differ: a pair whose
	// exchange was filtered at the geom.Eps tolerance (near-duplicate
	// items, near-zero exchange angle) keeps its serial order everywhere,
	// while a segment seed re-sorts it by exact score — observable only
	// when scores differ by less than Eps and the pair straddles the
	// oracle's top-k boundary. 0 or 1 = serial; negative = GOMAXPROCS.
	Workers int
	// FullCheck forces a full Oracle.Check per sector instead of driving
	// the oracle's incremental state (fairness.Incremental) — the
	// pre-incremental behaviour, kept for benchmarks and equivalence tests.
	FullCheck bool
}

// resolveWorkers maps the Workers option to an effective worker count.
func resolveWorkers(workers int) int {
	if workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(1, workers)
}

// tieTol groups exchanges at numerically identical angles; they must be
// applied together before the next sector is examined. An event is the run
// of exchanges within tieTol of the run's first angle, and that first angle
// is the event's angle: the boundary between the sectors on either side.
// Runs longer than one are concurrent exchanges — three or more items
// meeting at one angle make the pairwise swap order ambiguous, so the items
// of the run are re-sorted exactly instead.
const tieTol = 1e-12

// runEnd returns the end of the event run that starts at exchanges[lo].
func runEnd(exchanges []Exchange, lo int) int {
	theta := exchanges[lo].Theta
	hi := lo + 1
	for hi < len(exchanges) && exchanges[hi].Theta-theta <= tieTol {
		hi++
	}
	return hi
}

// RaySweep is Algorithm 1 (2DRAYSWEEP): it sweeps a ray from the x-axis
// (θ = 0) to the y-axis (θ = π/2), maintaining the induced ordering across
// ordering exchanges, evaluating the oracle once per sector, and merging
// consecutive satisfactory sectors into intervals.
//
// Each sector is one logical oracle call, but the call is O(1) amortized
// when the oracle supports fairness.Incremental (TopK and its combinators):
// consecutive sectors differ by a single swap, so the verdict state is
// updated instead of recomputed. The pair enumeration and sort always use
// every CPU, with identical output; Options.Workers additionally sweeps
// disjoint sector segments concurrently, and the output is identical for
// every worker count up to the eps-degeneracy caveat on Options.Workers.
func RaySweep(ds *dataset.Dataset, oracle fairness.Oracle, opt Options) (*Index, error) {
	exchanges, err := exchangeAngles(ds, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	if opt.PruneTopK > 0 {
		candidate := make([]bool, ds.N())
		for _, i := range ds.TopKCandidates(opt.PruneTopK) {
			candidate[i] = true
		}
		kept := exchanges[:0]
		for _, e := range exchanges {
			if candidate[e.I] || candidate[e.J] {
				kept = append(kept, e)
			}
		}
		exchanges = kept
	}
	idx, err := sweepIndex(ds, oracle, exchanges, opt)
	if err != nil {
		return nil, err
	}
	if opt.PruneTopK == 0 {
		idx.exchanges = exchanges
		idx.n = ds.N()
		idx.buildOpts = opt
		idx.repairable = true
	}
	return idx, nil
}

// segmentsPerWorker is the parallel sweep's oversplit factor: each worker's
// sector share is cut into this many queue segments so dense segments are
// stolen by idle workers. Each extra segment costs one extra full-sort seed.
const segmentsPerWorker = 4

// segment is a contiguous run of sectors. Its first sector starts at angle
// start and ends at the event whose run begins at exchanges[pos]; its last
// sector ends at the event beginning at exchanges[last], or at π/2 when
// last == len(exchanges). The segment holding sector 0 has pos == 0.
type segment struct {
	start     float64
	pos, last int
}

// sweepIndex is the sweep stage of RaySweep: it takes an already-sorted
// exchange list (cmpExchange order) and runs the sector sweep over it,
// serial or segmented. Split out so Repair can re-enter the pipeline with a
// merged exchange list instead of a freshly enumerated one.
func sweepIndex(ds *dataset.Dataset, oracle fairness.Oracle, exchanges []Exchange, opt Options) (*Index, error) {
	counter := &fairness.Counter{O: oracle}
	idx := &Index{ExchangeCount: len(exchanges)}
	var segs []segment
	workers := resolveWorkers(opt.Workers)
	if workers > 1 {
		segs, idx.Sectors = segmentSectors(exchanges, workers)
		workers = min(workers, idx.Sectors)
	}
	if len(segs) <= 1 {
		intervals, sectors, err := sweepSegment(ds, counter, exchanges, segment{last: len(exchanges)}, opt)
		if err != nil {
			return nil, err
		}
		idx.intervals, idx.Sectors = intervals, sectors
		idx.OracleCalls = counter.Calls()
		return idx, nil
	}

	// Parallel segmented sweep: contiguous sector ranges, one full sort to
	// seed each, exact interval merge at the segment boundaries.
	// Work stealing: sectors are split into more segments than workers and
	// handed out through a shared queue, so a worker whose segments happen to
	// be dense (many oracle calls, big tie groups) simply claims fewer and
	// the others don't idle behind it. The oversplit factor trades one extra
	// full-sort seed per extra segment against tail latency; 4 segments per
	// worker keeps the seed overhead a few percent while capping the
	// straggler at ~a quarter of a worker's share. Results are unchanged:
	// segments are still contiguous sector ranges merged in order.
	parts := make([][]Interval, len(segs))
	errs := make([]error, len(segs))
	var nextSeg atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(nextSeg.Add(1)) - 1
				if k >= len(segs) {
					return
				}
				parts[k], _, errs[k] = sweepSegment(ds, counter, exchanges, segs[k], opt)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var intervals []Interval
	for _, part := range parts {
		for _, iv := range part {
			// A satisfactory run crossing a segment boundary arrives as two
			// intervals sharing the boundary angle exactly (both read it
			// from the same event's first exchange); merge them.
			if k := len(intervals) - 1; k >= 0 && intervals[k].End == iv.Start {
				intervals[k].End = iv.End
				continue
			}
			intervals = append(intervals, iv)
		}
	}
	idx.intervals = intervals
	idx.OracleCalls = counter.Calls()
	return idx, nil
}

// segmentSectors cuts the sectors of the sorted exchange list into
// min(workers·segmentsPerWorker, sectors) segments of near-equal sector
// counts — segment k holds sectors [k·S/m, (k+1)·S/m) — and returns them
// with the sector count S. It walks the event runs twice, once to count
// them and once to find each segment's first exchange and start angle.
func segmentSectors(exchanges []Exchange, workers int) ([]segment, int) {
	sectors := 1
	for pos := 0; pos < len(exchanges); pos = runEnd(exchanges, pos) {
		sectors++
	}
	m := min(workers*segmentsPerWorker, sectors)
	segs := make([]segment, m)
	k, prev := 1, -1 // next segment to open; start of the previous run
	for pos, ev := 0, 0; k < m; ev++ {
		// pos starts event ev, which ends sector ev. Every segment opens at
		// a sector ≤ the last event, so the walk stops before running off
		// the list.
		if ev == k*sectors/m {
			segs[k-1].last = prev
			segs[k] = segment{start: exchanges[prev].Theta, pos: pos}
			if k++; k == m {
				break
			}
		}
		prev, pos = pos, runEnd(exchanges, pos)
	}
	segs[m-1].last = len(exchanges)
	return segs, sectors
}

// sweepSegment sweeps one segment and returns its satisfactory intervals and
// its sector count. The first sector's ordering is seeded by a full sort (or,
// for sector 0, the exact limit ordering at θ → 0+); every following sector
// is reached by applying the previous event's swaps to the mutable order and
// to the oracle's incremental state. The incremental path adds its probes to
// counter once, at the end: one atomic add per segment, not per sector.
func sweepSegment(ds *dataset.Dataset, counter *fairness.Counter, exchanges []Exchange, seg segment, opt Options) ([]Interval, int, error) {
	endAngle := func(pos int) float64 {
		if pos == len(exchanges) {
			return math.Pi / 2
		}
		return exchanges[pos].Theta
	}

	var bufs ranking.Buffers
	var mo *ranking.MutableOrder
	if !opt.Validate {
		if seg.pos == 0 {
			// Initial ordering at θ → 0+: x descending, ties by y
			// descending (the limit ordering just off the axis), then index
			// for determinism.
			init := make([]int, ds.N())
			for i := range init {
				init[i] = i
			}
			slices.SortFunc(init, func(a, b int) int {
				ia, ib := ds.Item(a), ds.Item(b)
				switch {
				case ia[0] > ib[0]:
					return -1
				case ia[0] < ib[0]:
					return 1
				case ia[1] > ib[1]:
					return -1
				case ia[1] < ib[1]:
					return 1
				default:
					return a - b
				}
			})
			mo = ranking.NewMutableOrder(init)
		} else {
			mid := (seg.start + endAngle(seg.pos)) / 2
			order, err := bufs.Order(ds, geom.Vector{math.Cos(mid), math.Sin(mid)})
			if err != nil {
				return nil, 0, err
			}
			mo = ranking.NewMutableOrder(order)
		}
	}

	var inc fairness.Incremental
	if !opt.Validate && !opt.FullCheck {
		inc = fairness.NewIncremental(counter.O)
		inc.Begin(mo.Order())
	}

	var meet meetScratch
	var intervals []Interval
	var curStart float64
	inSat := false
	sectors := 0
	for start, pos := seg.start, seg.pos; ; {
		end := endAngle(pos)
		sectors++
		var sat bool
		switch {
		case opt.Validate:
			mid := (start + end) / 2
			order, err := bufs.Order(ds, geom.Vector{math.Cos(mid), math.Sin(mid)})
			if err != nil {
				return nil, 0, err
			}
			sat = counter.Check(order)
		case opt.FullCheck:
			sat = counter.Check(mo.Order())
		default:
			sat = inc.Valid()
		}
		if sat {
			if !inSat {
				inSat = true
				curStart = start
			}
		} else if inSat {
			inSat = false
			intervals = append(intervals, Interval{Start: curStart, End: start})
		}
		if pos == seg.last {
			break // last sector of the segment
		}
		hi := runEnd(exchanges, pos)
		switch {
		case opt.Validate:
			// Re-sorting every sector anyway.
		case hi-pos == 1:
			posA, posB := mo.Swap(int(exchanges[pos].I), int(exchanges[pos].J))
			if inc != nil {
				inc.Swap(posA, posB)
			}
		default:
			// Concurrent exchanges: resolve the meet exactly — only the
			// items meeting at this angle move, re-sorting among the ranks
			// they already occupy by their score just past the boundary.
			meet.apply(ds, mo, inc, exchanges[pos:hi], (end+endAngle(hi))/2)
		}
		start, pos = end, hi
	}
	if inSat {
		intervals = append(intervals, Interval{Start: curStart, End: endAngle(seg.last)})
	}
	if inc != nil {
		counter.Add(sectors)
	}
	return intervals, sectors, nil
}

// meetScratch holds reusable buffers for resolving concurrent-exchange
// groups (three or more items meeting at one angle).
type meetScratch struct {
	seen    []bool
	members []meetMember
	ranks   []int
}

type meetMember struct {
	item  int
	score float64
}

// apply resolves one concurrent-exchange group: every item involved in the
// group ties with its exchange partners exactly at the boundary angle, so
// just past it the members re-sort among the ranks they already occupy,
// ordered by score at mid (ties — identical items — keep ascending-index
// order, matching ranking.Order). Items not in the group cannot cross any
// member inside the group's angle window (such a crossing would itself be an
// exchange in the group), so their ranks are untouched. O(c log c) for a
// c-item meet instead of an O(n log n) re-sort of the whole dataset.
func (sc *meetScratch) apply(ds *dataset.Dataset, mo *ranking.MutableOrder, inc fairness.Incremental, group []Exchange, mid float64) {
	if sc.seen == nil {
		sc.seen = make([]bool, ds.N())
	}
	w := geom.Vector{math.Cos(mid), math.Sin(mid)}
	sc.members = sc.members[:0]
	for _, e := range group {
		for _, it := range [2]int{int(e.I), int(e.J)} {
			if !sc.seen[it] {
				sc.seen[it] = true
				sc.members = append(sc.members, meetMember{item: it, score: w.Dot(ds.Item(it))})
			}
		}
	}
	sc.ranks = sc.ranks[:0]
	for _, m := range sc.members {
		sc.seen[m.item] = false
		sc.ranks = append(sc.ranks, mo.Rank(m.item))
	}
	slices.Sort(sc.ranks)
	slices.SortFunc(sc.members, func(a, b meetMember) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		default:
			return a.item - b.item
		}
	})
	order := mo.Order()
	for i, m := range sc.members {
		if cur := order[sc.ranks[i]]; cur != m.item {
			posA, posB := mo.Swap(m.item, cur)
			if inc != nil {
				inc.Swap(posA, posB)
			}
		}
	}
}

// Intervals returns the satisfactory intervals in ascending order (shared
// slice; treat as read-only).
func (idx *Index) Intervals() []Interval { return idx.intervals }

// Satisfiable reports whether any satisfactory function exists.
func (idx *Index) Satisfiable() bool { return len(idx.intervals) > 0 }

// ErrUnsatisfiable is returned by Query when no linear function satisfies
// the oracle anywhere in [0, π/2].
var ErrUnsatisfiable = errors.New("twod: no satisfactory ranking function exists")

// Query is Algorithm 2 (2DONLINE): given a query weight vector it returns
// the closest satisfactory weight vector by binary search over the interval
// endpoints — the query itself when it is already satisfactory, otherwise
// the nearest interval border, preserving the query's magnitude r.
func (idx *Index) Query(w geom.Vector) (geom.Vector, float64, error) {
	if len(w) != 2 {
		return nil, 0, fmt.Errorf("twod: query weight vector has dimension %d, want 2", len(w))
	}
	r, theta, err := geom.ToPolar2D(w)
	if err != nil {
		return nil, 0, err
	}
	bestTheta, best, err := idx.QueryAngle(theta)
	if err != nil {
		return nil, 0, err
	}
	if best == 0 {
		return w.Clone(), 0, nil
	}
	return geom.Vector{r * math.Cos(bestTheta), r * math.Sin(bestTheta)}, best, nil
}

// QueryAngle is Query on the polar form: given the query's angle it returns
// the closest satisfactory angle and the angular distance (0 when theta is
// already satisfactory). It performs no allocations, which is what the
// SuggestBatch fast path amortizes per-call overhead down to.
func (idx *Index) QueryAngle(theta float64) (float64, float64, error) {
	if !idx.Satisfiable() {
		return 0, 0, ErrUnsatisfiable
	}
	bestTheta, best := idx.answerNear(idx.lowerBound(theta), theta)
	return bestTheta, best, nil
}

// lowerBound returns the index of the first interval with End ≥ theta —
// the one candidate position an angular query needs (its neighbor below is
// the only other interval that can be closer). The result is a pure function
// of theta, which is what lets the resumable kernel substitute a validated
// cursor for the binary search without changing any answer.
func (idx *Index) lowerBound(theta float64) int {
	lo, hi := 0, len(idx.intervals)
	for lo < hi {
		mid := (lo + hi) / 2
		if idx.intervals[mid].End < theta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// queryAngleFrom is QueryAngle with a cursor: cur is the previous query's
// lower bound, and it substitutes for the binary search exactly when it is
// already a valid lower bound for theta too (cur == 0 or the interval below
// it ends before theta) — true whenever consecutive queries arrive in
// ascending angular order, which is what the batch planner's locality sort
// arranges. The returned position is identical to lowerBound(theta) either
// way, so answers never depend on the cursor; resumed reports whether the
// cursor carried.
func (idx *Index) queryAngleFrom(theta float64, cur int) (bestTheta, dist float64, next int, resumed bool, err error) {
	if !idx.Satisfiable() {
		return 0, 0, 0, false, ErrUnsatisfiable
	}
	n := len(idx.intervals)
	lo := cur
	resumed = cur >= 0 && cur <= n && (cur == 0 || idx.intervals[cur-1].End < theta)
	if resumed {
		// Clustered queries land in or just past the cursor's interval: a
		// short walk finds the bound; a long jump falls back to binary
		// search over the remaining suffix (same result, bounded cost).
		const walkLimit = 8
		for steps := 0; lo < n && idx.intervals[lo].End < theta; steps++ {
			if steps == walkLimit {
				lo += idx.suffixLowerBound(lo, theta)
				break
			}
			lo++
		}
	} else {
		lo = idx.lowerBound(theta)
	}
	bestTheta, dist = idx.answerNear(lo, theta)
	return bestTheta, dist, lo, resumed, nil
}

// suffixLowerBound is lowerBound restricted to intervals[from:], returning
// the offset from from.
func (idx *Index) suffixLowerBound(from int, theta float64) int {
	lo, hi := 0, len(idx.intervals)-from
	for lo < hi {
		mid := (lo + hi) / 2
		if idx.intervals[from+mid].End < theta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// answerNear turns a lower-bound position into the query answer: the closest
// satisfactory angle to theta and its distance (0 when theta itself lies in a
// satisfactory interval).
func (idx *Index) answerNear(lo int, theta float64) (float64, float64) {
	best := math.Inf(1)
	bestTheta := theta
	consider := func(iv Interval) {
		if iv.Contains(theta) {
			best, bestTheta = 0, theta
			return
		}
		// Interval borders are ordering exchanges: exactly on one, two
		// items tie and the tie-break may fall on the unfair side. Return
		// a point nudged strictly inside the interval instead.
		nudge := math.Min(1e-7, (iv.End-iv.Start)/1000)
		for _, edge := range [2]struct{ pos, inner float64 }{
			{iv.Start, iv.Start + nudge},
			{iv.End, iv.End - nudge},
		} {
			if d := math.Abs(edge.pos - theta); d < best {
				best, bestTheta = d, edge.inner
			}
		}
	}
	if lo < len(idx.intervals) {
		consider(idx.intervals[lo])
	}
	if lo > 0 {
		consider(idx.intervals[lo-1])
	}
	return bestTheta, best
}
