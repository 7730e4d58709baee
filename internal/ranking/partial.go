package ranking

import (
	"fmt"

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
