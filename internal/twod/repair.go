package twod

import (
	"fmt"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
)

// Incremental repair of the 2D index. An item participates in O(n) ordering
// exchanges, so a patch of c items invalidates O(c·n) of the O(n²) swept
// exchanges: the retained ones keep their angles bit for bit (an exchange
// angle is a function of the two item value vectors only), removals just
// drop every exchange touching a removed item, and additions contribute
// fresh pairs computed with the very arithmetic of the build's pair loop.
// Merging retained and fresh exchanges reproduces the exact sorted list a
// rebuild would enumerate — cmpExchange is a strict total order, so the
// sorted sequence is unique — and re-running the sweep stage over it with
// the patched dataset's oracle yields bit-identical intervals. The sweep
// itself must re-run in full: an added item shifts the induced ordering in
// every sector, so no sector's verdict is reusable; what repair saves is
// the Θ(n²) pair enumeration (atan per pair) and the Θ(E log E) sort, both
// of which shrink to O(c·n).

// Repair returns a new index over the patched dataset whose answers are
// byte-identical to RaySweep(ds, oracle, sameOptions). The receiver keeps
// serving untouched. engine.ErrRepairUnsupported when the index was loaded
// from a stream or built with PruneTopK (no retained exchanges).
func (idx *Index) Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta engine.Delta) (*Index, error) {
	if !idx.repairable {
		return nil, engine.ErrRepairUnsupported
	}
	if ds.D() != 2 {
		return nil, fmt.Errorf("twod: patched dataset has %d scoring attributes, want 2", ds.D())
	}
	if err := delta.Validate(idx.n, ds.N()); err != nil {
		return nil, err
	}
	// Fresh exchanges: every pair with at least one endpoint among the
	// items the patch appended, enumerated by the build's own filter.
	xs, ys := coords(ds)
	added := pairs{xs: xs, ys: ys, rowHi: ds.N(), colLo: idx.n - len(delta.Removed)}
	fresh := make([]Exchange, added.count())
	added.fill(fresh)
	sortExchanges(fresh, nil)
	merged := remapMerge(idx.exchanges, delta.Remap(idx.n), len(delta.Removed) > 0, fresh)
	out, err := sweepIndex(ds, oracle, merged, idx.buildOpts)
	if err != nil {
		return nil, err
	}
	out.exchanges = merged
	out.n = ds.N()
	out.buildOpts = idx.buildOpts
	out.repairable = true
	return out, nil
}

// remapMerge is repair's one pass over the retained list: it re-tags the
// survivors of kept through remap, drops every exchange touching a removed
// item, and merges the sorted fresh exchanges in, writing one list of
// exactly the resulting length in cmpExchange order. The remap is monotone,
// so the survivors stay in cmpExchange order (theta unchanged, relative
// index order within equal thetas unchanged); every fresh pair touches an
// added item, so no fresh exchange ties a survivor.
func remapMerge(kept []Exchange, remap []int, removed bool, fresh []Exchange) []Exchange {
	survivors := len(kept)
	if removed {
		survivors = 0
		for _, e := range kept {
			if remap[e.I] >= 0 && remap[e.J] >= 0 {
				survivors++
			}
		}
	}
	out := make([]Exchange, survivors+len(fresh))
	k, f := 0, 0
	for _, e := range kept {
		i, j := remap[e.I], remap[e.J]
		if i < 0 || j < 0 {
			continue
		}
		s := Exchange{Theta: e.Theta, I: int32(i), J: int32(j)}
		for f < len(fresh) && cmpExchange(fresh[f], s) < 0 {
			out[k] = fresh[f]
			k, f = k+1, f+1
		}
		out[k] = s
		k++
	}
	copy(out[k:], fresh[f:])
	return out
}

// Repair implements engine.Patchable for the 2D adapter.
func (e indexEngine) Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta engine.Delta) (engine.Engine, error) {
	idx, err := e.idx.Repair(ds, oracle, delta)
	if err != nil {
		return nil, err
	}
	return NewEngine(idx), nil
}
