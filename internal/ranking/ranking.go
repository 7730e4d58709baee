// Package ranking implements the score-based ranking model of the paper
// (§2): linear scoring functions over a dataset's scoring attributes, the
// orderings they induce, and a mutable ordering that supports the
// ordering-exchange swaps of the ray-sweeping and arrangement algorithms.
package ranking

import (
	"fmt"
	"slices"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// Scores computes f_w(t) = Σ w_j·t[j] for every item.
func Scores(ds *dataset.Dataset, w geom.Vector) ([]float64, error) {
	if len(w) != ds.D() {
		return nil, fmt.Errorf("ranking: weight dimension %d, dataset has %d attributes", len(w), ds.D())
	}
	s := make([]float64, ds.N())
	for i := range s {
		s[i] = w.Dot(ds.Item(i))
	}
	return s, nil
}

// Order returns item indices sorted by descending score under w. Ties break
// by ascending item index, making the ordering deterministic.
func Order(ds *dataset.Dataset, w geom.Vector) ([]int, error) {
	s, err := Scores(ds, w)
	if err != nil {
		return nil, err
	}
	order := make([]int, ds.N())
	for i := range order {
		order[i] = i
	}
	sortByScore(order, s)
	return order, nil
}

// sortByScore sorts items by descending score, ties by ascending index — a
// strict total order, so the (faster) non-stable sort is deterministic.
func sortByScore(order []int, s []float64) {
	slices.SortFunc(order, func(a, b int) int {
		switch {
		case s[a] > s[b]:
			return -1
		case s[a] < s[b]:
			return 1
		default:
			return a - b
		}
	})
}

// Buffers holds reusable score and order scratch space for repeated
// rankings over the same dataset — the sweep's segment seeds, and every
// oracle probe (Rank), would otherwise allocate two slices per ranking.
type Buffers struct {
	scores []float64
	order  []int
}

// fill computes scores and the identity permutation into the reusable
// buffers — the shared front half of Order and Rank. The returned
// slices alias the buffers and are valid until the next call.
func (b *Buffers) fill(ds *dataset.Dataset, w geom.Vector) ([]float64, []int, error) {
	if len(w) != ds.D() {
		return nil, nil, fmt.Errorf("ranking: weight dimension %d, dataset has %d attributes", len(w), ds.D())
	}
	n := ds.N()
	if cap(b.scores) < n {
		b.scores = make([]float64, n)
		b.order = make([]int, n)
	}
	s := b.scores[:n]
	order := b.order[:n]
	for i := 0; i < n; i++ {
		s[i] = w.Dot(ds.Item(i))
		order[i] = i
	}
	return s, order, nil
}

// Order is ranking.Order into the reusable buffers. The returned slice
// aliases the buffer and is valid until the next call.
func (b *Buffers) Order(ds *dataset.Dataset, w geom.Vector) ([]int, error) {
	s, order, err := b.fill(ds, w)
	if err != nil {
		return nil, err
	}
	sortByScore(order, s)
	return order, nil
}

// Trim releases the score/order buffers when their capacity exceeds maxItems
// elements. Pooled buffer owners call it before parking a buffer, so one
// pass over a giant dataset does not pin arrays of its size forever.
func (b *Buffers) Trim(maxItems int) {
	if cap(b.scores) > maxItems {
		b.scores, b.order = nil, nil
	}
}

// TopK returns the first k entries of order (all of it if k exceeds length).
func TopK(order []int, k int) []int {
	if k > len(order) {
		k = len(order)
	}
	if k < 0 {
		k = 0
	}
	return order[:k]
}

// MutableOrder is an ordering that supports O(1) position lookup and O(1)
// swapping of two items — the primitive the ray sweep (Algorithm 1) uses to
// move from one sector of the function space to the next.
type MutableOrder struct {
	order []int // order[r] = item at rank r (0 = best)
	pos   []int // pos[item] = rank
}

// NewMutableOrder builds a MutableOrder from an initial permutation.
func NewMutableOrder(order []int) *MutableOrder {
	m := &MutableOrder{
		order: append([]int(nil), order...),
		pos:   make([]int, len(order)),
	}
	for r, it := range m.order {
		m.pos[it] = r
	}
	return m
}

// Swap exchanges the ranks of items a and b and returns the two positions
// that changed — the hook incremental fairness oracles need to update their
// top-k state in O(1) (fairness.Incremental.Swap takes positions, not item
// ids).
func (m *MutableOrder) Swap(a, b int) (posA, posB int) {
	ra, rb := m.pos[a], m.pos[b]
	m.order[ra], m.order[rb] = b, a
	m.pos[a], m.pos[b] = rb, ra
	return ra, rb
}

// Order returns the current ordering (shared slice; treat as read-only).
func (m *MutableOrder) Order() []int { return m.order }

// Rank returns the current rank of an item (0 = best).
func (m *MutableOrder) Rank(item int) int { return m.pos[item] }

// Len returns the number of items.
func (m *MutableOrder) Len() int { return len(m.order) }

// Clone returns an independent copy.
func (m *MutableOrder) Clone() *MutableOrder {
	return &MutableOrder{
		order: append([]int(nil), m.order...),
		pos:   append([]int(nil), m.pos...),
	}
}
