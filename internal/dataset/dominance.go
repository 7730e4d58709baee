package dataset

import "fairrank/internal/geom"

// DominatedCounts returns, for every item, the number of items that dominate
// it. O(n²·d); used by the top-k pruning filter and by tests.
func (ds *Dataset) DominatedCounts() []int {
	n := ds.N()
	counts := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && geom.Dominates(ds.items[j], ds.items[i]) {
				counts[i]++
			}
		}
	}
	return counts
}

// TopKCandidates returns the indices of items that can appear in the top k
// of SOME linear ranking function with non-negative weights: exactly the
// items dominated by fewer than k others (an item dominated by k or more
// items scores below all of them under every such function). This is the
// §8 "convex/dominance layer" pruning that shrinks the arrangement from
// n^{2(d−1)} to n_k^{2(d−1)}.
func (ds *Dataset) TopKCandidates(k int) []int {
	if k >= ds.N() {
		all := make([]int, ds.N())
		for i := range all {
			all[i] = i
		}
		return all
	}
	var out []int
	for i, c := range ds.DominatedCounts() {
		if c < k {
			out = append(out, i)
		}
	}
	return out
}
