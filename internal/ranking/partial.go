package ranking

import (
	"fmt"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// Need names the part of an ordering a reader inspects, so that a probe
// ranks no more than that. K is the prefix length; K ≤ 0 means the reader
// may inspect the whole ordering. SetOnly means only which items occupy
// order[:K] matters, not their order among themselves.
type Need struct {
	K       int
	SetOnly bool
}

// Rank ranks ds under w into the buffers, producing only what need asks
// for — the one ranking step of every oracle probe:
//
//   - SetOnly: order[:K] holds the K best items, in unspecified order
//     (selection alone, O(n) expected);
//   - K in [1, n): order[:K] is the sorted top-K, equal to Order's prefix
//     (selection, then sortByScore on the prefix, O(n + K log K));
//   - otherwise: the full ordering, equal to Order (O(n log n)).
//
// The rest of the slice holds the remaining items in unspecified order.
// Because the ordering is strict (score descending, ties by ascending
// index), the selected set and any sorted prefix are unique: an oracle that
// reads no more than need gives the same verdict on this slice as on Order.
// The returned slice aliases the buffers and is valid until the next call.
func (b *Buffers) Rank(ds *dataset.Dataset, w geom.Vector, need Need) ([]int, error) {
	s, order, err := b.fill(ds, w)
	if err != nil {
		return nil, err
	}
	rankIn(order, s, need)
	return order, nil
}

// rankIn orders the items of order by the scores s as need asks (see Rank).
func rankIn(order []int, s []float64, need Need) {
	k := need.K
	switch {
	case k >= len(order) && need.SetOnly:
		// Every item is in the set: the order as given serves.
	case k <= 0 || k >= len(order):
		sortByScore(order, s)
	default:
		selectTop(order, s, k)
		if !need.SetOnly {
			sortByScore(order[:k], s)
		}
	}
}

// restrictSlack is the margin, relative to the largest score magnitude over
// the box, by which Restrict keeps items whose best score falls short of
// the cut. Rounding in the bounds and in a probe's scores is a few units in
// the last place of that magnitude, far below it.
const restrictSlack = 1e-9

// Restrict prepares RankKept to rank only the items that can reach the top
// k for some weight vector w in the box wlo ≤ w ≤ whi (per coordinate).
// Over the box, item i's score lies in [lo_i, hi_i], each coordinate taking
// its box end by the sign of the item's value. At every point of the box at
// least k items score at least τ, the k-th largest lo_i, so an item with
// hi_i < τ is beaten by k items there and can never be in the top k; such
// items are dropped, less a slack for rounding. The kept items move to the
// front of the order buffer. It returns how many are kept, at least
// min(k, n). Rank and Order discard the restriction.
func (b *Buffers) Restrict(ds *dataset.Dataset, wlo, whi geom.Vector, k int) (int, error) {
	if len(wlo) != ds.D() || len(whi) != ds.D() {
		return 0, fmt.Errorf("ranking: weight box dimension %d/%d, dataset has %d attributes", len(wlo), len(whi), ds.D())
	}
	n := ds.N()
	if k < 1 {
		return 0, fmt.Errorf("ranking: Restrict needs k ≥ 1, got %d", k)
	}
	b.grow(n)
	if cap(b.hi) < n {
		b.hi = make([]float64, n)
	}
	lo, hi, order := b.scores[:n], b.hi[:n], b.order[:n]
	// |score| ≤ (Σ_j |t_j|) · max_j max(|wlo_j|, |whi_j|) over the box.
	var wmax, tmax float64
	for j := range wlo {
		wmax = max(wmax, math.Abs(wlo[j]), math.Abs(whi[j]))
	}
	for i := 0; i < n; i++ {
		var l, h, mag float64
		for j, v := range ds.Item(i) {
			if v >= 0 {
				l += v * wlo[j]
				h += v * whi[j]
				mag += v
			} else {
				l += v * whi[j]
				h += v * wlo[j]
				mag -= v
			}
		}
		lo[i], hi[i] = l, h
		tmax = max(tmax, mag)
	}
	cut := math.Inf(-1)
	if k < n {
		cut = kthLargest(lo, k) - restrictSlack*wmax*tmax
	}
	kept, tail := 0, n
	for i, h := range hi {
		if h >= cut {
			order[kept] = i
			kept++
		} else {
			tail--
			order[tail] = i
		}
	}
	b.restricted, b.kept, b.keptK = order, kept, k
	return kept, nil
}

// kthLargest returns the k-th largest value of v, 1 ≤ k ≤ len(v), in
// expected linear time, reordering v: Restrict's cut needs only the value,
// so this quickselect moves the floats themselves rather than selectTop's
// item indexes, and needs no tie-break.
func kthLargest(v []float64, k int) float64 {
	k-- // the position of the answer in descending order
	lo, hi := 0, len(v)-1
	for lo < hi {
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi]
		pivot := max(min(a, b), min(max(a, b), c)) // median of three
		i, j := lo, hi
		for i <= j {
			for v[i] > pivot {
				i++
			}
			for v[j] < pivot {
				j--
			}
			if i <= j {
				v[i], v[j] = v[j], v[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return v[k] // v[j+1:i] all equal the pivot
		}
	}
	return v[k]
}

// RankKept is Rank over the items the last Restrict kept, for a w inside
// that Restrict's box and a need of at most its k: only their scores are
// computed and only they are selected and sorted. Since they include the
// top need.K at every such w, order[:need.K] is what Rank gives: the same
// set, and under a sorted need the same sequence. The slice is still a
// permutation of all n items, the dropped ones last. The caller guarantees
// w lies in the box; RankKept cannot check it.
func (b *Buffers) RankKept(ds *dataset.Dataset, w geom.Vector, need Need) ([]int, error) {
	if len(w) != ds.D() {
		return nil, fmt.Errorf("ranking: weight dimension %d, dataset has %d attributes", len(w), ds.D())
	}
	if b.restricted == nil || len(b.restricted) != ds.N() {
		return nil, fmt.Errorf("ranking: RankKept without a Restrict over these %d items", ds.N())
	}
	if need.K < 1 || need.K > b.keptK {
		return nil, fmt.Errorf("ranking: RankKept needs 1 ≤ K ≤ %d, got %d", b.keptK, need.K)
	}
	kept := b.restricted[:b.kept]
	s := b.scores[:ds.N()]
	for _, i := range kept {
		s[i] = w.Dot(ds.Item(i))
	}
	rankIn(kept, s, need)
	return b.restricted, nil
}

// PartialOrder returns an ordering of the item indices whose first k
// entries are exactly the top-k of the full ordering (score descending,
// ties by ascending index), with the remaining entries in unspecified
// order: Rank with Need{K: k} into fresh buffers. k ≥ n gives the full
// ordering.
func PartialOrder(ds *dataset.Dataset, w geom.Vector, k int) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ranking: PartialOrder needs k ≥ 1, got %d", k)
	}
	return new(Buffers).Rank(ds, w, Need{K: k})
}

// better reports whether item a ranks ahead of item b: the strict order of
// sortByScore. A plain function of the score slice rather than a closure,
// so the selection loop inlines every comparison.
func better(s []float64, a, b int) bool {
	switch {
	case s[a] > s[b]:
		return true
	case s[a] < s[b]:
		return false
	}
	return a < b
}

// selectTop partitions order so that the k best items occupy order[:k], in
// expected linear time (quickselect with median-of-three pivots, insertion
// sort for small ranges). Deterministic: the pivot choice draws no random
// numbers.
func selectTop(order []int, s []float64, k int) {
	lo, hi := 0, len(order)
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		// Median of three: order[lo], order[mid], order[hi-1].
		a, b, c := order[lo], order[mid], order[hi-1]
		var pivot int
		switch {
		case better(s, a, b) == better(s, b, c):
			pivot = b
		case better(s, b, a) == better(s, a, c):
			pivot = a
		default:
			pivot = c
		}
		// Partition around pivot.
		i, j := lo, hi-1
		for i <= j {
			for better(s, order[i], pivot) {
				i++
			}
			for better(s, pivot, order[j]) {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j + 1
		case k >= i:
			lo = i
		default:
			return // order[:k] holds the k best already
		}
	}
	// Insertion sort the small remaining window.
	for i := lo + 1; i < hi; i++ {
		for j := i; j > lo && better(s, order[j], order[j-1]); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
}
