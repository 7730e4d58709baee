package core

import (
	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// Incremental repair of the exact index. A patch of c items invalidates
// only the pairs touching a changed item; every surviving pair's hyperplane
// is a deterministic function of its two (unchanged) item value vectors, so
// a fit the old arrangement holds is reused bit for bit. The repair replays
// the build's random choices exactly — the pair list is enumerated in the
// same row-major order and shuffled with the same seeded stream
// (arrangement.FitHyperplanes) — so the resulting arrangement, witnesses,
// region order, and labels match a from-scratch SatRegions run byte for
// byte. Reuse pays only for uncapped indexes (MaxHyperplanes 0): a capped
// build fits just the kept pairs, so a capped repair saves a few dozen fits
// and costs about what a rebuild does.

// Repair returns a new index over the patched dataset whose answers are
// byte-identical to SatRegions(ds, oracle, sameOptions). The receiver keeps
// serving untouched. engine.ErrRepairUnsupported when the index was loaded
// from a stream or built with PruneTopK.
func (idx *MDIndex) Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta engine.Delta) (*MDIndex, error) {
	if !idx.repairable {
		return nil, engine.ErrRepairUnsupported
	}
	if err := delta.Validate(idx.DS.N(), ds.N()); err != nil {
		return nil, err
	}
	remap := delta.Remap(idx.DS.N())
	// Every hyperplane the old arrangement holds whose pair survives is
	// reusable under its remapped pair key. With a binding MaxHyperplanes
	// cap this misses surviving pairs outside the old cap prefix; those are
	// fitted afresh — correctness never depends on the map being complete.
	reuse := make(map[arrangement.Pair]geom.Hyperplane, len(idx.Arr.Hyperplanes))
	for _, h := range idx.Arr.Hyperplanes {
		i, j := remap[h.I], remap[h.J]
		if i < 0 || j < 0 {
			continue
		}
		reuse[arrangement.Pair{I: i, J: j}] = h
	}
	items := make([]geom.Vector, ds.N())
	itemIDs := make([]int, ds.N())
	for i := range items {
		items[i] = ds.Item(i)
		itemIDs[i] = i
	}
	return satRegions(ds, oracle, idx.buildOpts, items, itemIDs, reuse)
}

// Repair implements engine.Patchable for the exact adapter.
func (e mdEngine) Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta engine.Delta) (engine.Engine, error) {
	idx, err := e.idx.Repair(ds, oracle, delta)
	if err != nil {
		return nil, err
	}
	return NewEngine(idx), nil
}
