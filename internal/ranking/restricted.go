package ranking

import (
	"fmt"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/geom"
)

// restrictSlack is the margin, relative to the largest score magnitude over
// the box, by which Restrict keeps items whose best score falls short of
// the cut. Rounding in the bounds and in a probe's scores is a few units in
// the last place of that magnitude, far below it.
const restrictSlack = 1e-9

// Restricted ranks weight vectors among the items that can reach the top K
// somewhere in a box of weight vectors — the candidate list of MARKCELL's
// strips and of a batch kernel's chunk. Rank checks the list's precondition
// itself and ranks all n items through a second buffer whenever it does not
// hold, so a caller can never get a verdict the full ranking would not give.
// The zero value holds no list and ranks everything. A Restricted must not
// be shared between concurrent callers.
type Restricted struct {
	// ds is the dataset the list was built for, nil when no list is in
	// force; lo and hi are a copy of its box, k the top-k it covers.
	ds     *dataset.Dataset
	lo, hi geom.Vector
	k      int
	// order holds the kept items first, kept of them, then the dropped
	// ones. scores holds the kept items' scores under the last listed rank;
	// bound holds Restrict's upper score bounds.
	order         []int
	kept          int
	scores, bound []float64
	// full ranks every weight vector the list does not cover.
	full Buffers
}

// Restrict builds the list: the items that can reach the top k for some
// weight vector w in the box wlo ≤ w ≤ whi (per coordinate). Over the box,
// item i's score lies in [lo_i, hi_i], each coordinate taking its box end by
// the sign of the item's value. At every point of the box at least k items
// score at least τ, the k-th largest lo_i, so an item with hi_i < τ is
// beaten by k items there and can never be in the top k; such items are
// dropped, less a slack for rounding. It returns how many are kept, at
// least min(k, n). The list replaces any earlier one; on an error no list
// is in force.
func (r *Restricted) Restrict(ds *dataset.Dataset, wlo, whi geom.Vector, k int) (int, error) {
	r.Drop()
	if len(wlo) != ds.D() || len(whi) != ds.D() {
		return 0, fmt.Errorf("ranking: weight box dimension %d/%d, dataset has %d attributes", len(wlo), len(whi), ds.D())
	}
	if k < 1 {
		return 0, fmt.Errorf("ranking: Restrict needs k ≥ 1, got %d", k)
	}
	n := ds.N()
	if cap(r.order) < n {
		r.order = make([]int, n)
		r.scores = make([]float64, n)
		r.bound = make([]float64, n)
	}
	lo, hi, order := r.scores[:n], r.bound[:n], r.order[:n]
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
	r.ds, r.k, r.kept = ds, k, kept
	r.lo = append(r.lo[:0], wlo...)
	r.hi = append(r.hi[:0], whi...)
	return kept, nil
}

// Drop discards the list, so Rank ranks all n items until the next Restrict.
// Owners that park a Restricted (a pooled scratch) drop it first, so the
// list pins no dataset.
func (r *Restricted) Drop() { r.ds = nil }

// Rank ranks ds under w as Buffers.Rank does and returns the order with the
// number of items it ranked. When the list was built for this very dataset
// (not merely one of the same size), w lies in the list's box and
// 1 ≤ need.K ≤ the list's k, only the kept items are scored, selected and
// sorted: they include the top need.K at every such w, so order[:need.K] is
// what Buffers.Rank gives, the same set and under a sorted need the same
// sequence. The order is still a permutation of all n items, the dropped
// ones last. Otherwise all n items are ranked through the second buffer and
// the list stays in force. The slice is valid until the next call.
func (r *Restricted) Rank(ds *dataset.Dataset, w geom.Vector, need Need) ([]int, int, error) {
	if r.ds != ds || need.K < 1 || need.K > r.k || !r.covers(w) {
		order, err := r.full.Rank(ds, w, need)
		return order, ds.N(), err
	}
	kept := r.order[:r.kept]
	s := r.scores[:ds.N()]
	for _, i := range kept {
		s[i] = w.Dot(ds.Item(i))
	}
	rankIn(kept, s, need)
	return r.order[:ds.N()], r.kept, nil
}

// covers reports whether w lies in the list's closed box; a NaN never does.
func (r *Restricted) covers(w geom.Vector) bool {
	if len(w) != len(r.lo) {
		return false
	}
	for j, v := range w {
		if !(r.lo[j] <= v && v <= r.hi[j]) {
			return false
		}
	}
	return true
}

// Trim releases the buffers, and with them the list, when their capacity
// exceeds maxItems elements (see Buffers.Trim).
func (r *Restricted) Trim(maxItems int) {
	if cap(r.order) > maxItems {
		r.Drop()
		r.order, r.scores, r.bound = nil, nil, nil
	}
	r.full.Trim(maxItems)
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
