package cells

import (
	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
)

// Incremental repair of the grid index. The grid's marking cannot be patched
// cell by cell: a patch moves the hyperplanes, and with them every cell's
// crossing list and verdicts. What a patch can skip is refitting the kept
// hyperplanes: a hyperplane is a deterministic function of its two item
// value vectors, so every kept pair untouched by the delta reuses its fit
// bit for bit (arrangement.FitHyperplanes). The full pipeline then re-runs
// (partition, assign, mark, color) with the rng replayed exactly, and
// MARKCELL seeds each cell's LP randomness from (build seed, cell index),
// so the repaired index matches a from-scratch Preprocess byte for byte on
// any worker count. Reuse pays only for uncapped indexes (MaxHyperplanes
// 0): a capped build fits just the kept pairs, so a capped repair costs
// about what a rebuild does.

// Repair returns a new index over the patched dataset byte-identical to
// Preprocess(ds, oracle, sameN, sameOptions). The receiver keeps serving
// untouched.
// engine.ErrRepairUnsupported when the index was loaded from a stream or
// built with PruneTopK (no retained build state).
func (a *Approx) Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta engine.Delta) (*Approx, error) {
	if !a.repairable {
		return nil, engine.ErrRepairUnsupported
	}
	if err := delta.Validate(a.DS.N(), ds.N()); err != nil {
		return nil, err
	}
	remap := delta.Remap(a.DS.N())
	// Every retained hyperplane whose pair survives is reusable under its
	// remapped pair key. With a binding MaxHyperplanes cap this misses
	// surviving pairs outside the old cap prefix; those are fitted afresh —
	// correctness never depends on the map being complete.
	reuse := make(map[arrangement.Pair]geom.Hyperplane, len(a.Hyperplanes))
	for _, h := range a.Hyperplanes {
		i, j := remap[h.I], remap[h.J]
		if i < 0 || j < 0 {
			continue
		}
		reuse[arrangement.Pair{I: i, J: j}] = h
	}
	return preprocessWith(ds, oracle, a.buildN, a.buildOpts, reuse)
}

// Repair implements engine.Patchable for the grid adapter.
func (e approxEngine) Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta engine.Delta) (engine.Engine, error) {
	a, err := e.a.Repair(ds, oracle, delta)
	if err != nil {
		return nil, err
	}
	return NewEngine(a, e.refine), nil
}
