package fairrank

import (
	"errors"
	"fmt"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
)

// DatasetDelta describes a dataset patch: items removed by their pre-patch
// index (strictly ascending) plus items appended after the survivors. See
// ApplyDelta and Designer.Patch.
type DatasetDelta = dataset.Delta

// PatchItem is one appended item: its scoring row plus a category label for
// every type attribute of the dataset.
type PatchItem = dataset.AddItem

// DefaultRepairChurnFrac is the repair-vs-rebuild threshold Patch uses when
// Config.RepairChurnFrac is zero: deltas touching at most this fraction of
// the pre-patch items are spliced into a Mode2D index incrementally.
const DefaultRepairChurnFrac = 0.10

// ApplyDelta builds the patched dataset: the survivors of ds in their
// original order followed by the added items. ds is untouched — datasets are
// immutable, a patch is a new dataset with a new fingerprint.
func ApplyDelta(ds *Dataset, delta DatasetDelta) (*Dataset, error) {
	return dataset.Apply(ds, delta)
}

// DiffDatasets recovers the delta turning old into new when new was derived
// from old by removals and tail appends (the shape every ApplyDelta
// produces); ok is false when the two datasets have different schemas.
func DiffDatasets(old, new *Dataset) (DatasetDelta, bool) {
	return dataset.Diff(old, new)
}

// ChainRevision folds the previous revision fingerprint and a patched
// dataset's content fingerprint into the next revision fingerprint — the
// chaining Patch applies. Exposed so index distribution layers can verify a
// patched peer reached the same revision through the same lineage.
func ChainRevision(prev, fingerprint uint64) uint64 {
	return dataset.ChainFingerprint(prev, fingerprint)
}

// Revision identifies the dataset state this designer answers for: the
// dataset fingerprint at build time, chained through every Patch. Two
// designers at the same revision over the same config answer identically.
func (d *Designer) Revision() uint64 { return d.revision }

// RestoreConfig re-arms a designer restored by LoadDesigner with its build
// configuration. A loaded designer carries no retained build state, so its
// first Patch always rebuilds — with the zero Config unless the caller
// restores the one the index was built with.
func (d *Designer) RestoreConfig(cfg Config) { d.cfg = cfg }

// Patch derives a designer for the patched dataset. ds must be the result of
// ApplyDelta(d's dataset, delta), and oracle must be rebuilt over ds (oracles
// bind group counts and top-k depths to their dataset). Only the 2D engine
// repairs (engine.Patchable): when the delta is small — at most
// Config.RepairChurnFrac of the pre-patch items — and a Mode2D index retains
// its build state, it is repaired incrementally. Every other patch, and
// every patch of a ModeExact or ModeApprox designer, rebuilds with the
// designer's original configuration. Either way the result answers
// byte-identically to a from-scratch NewDesigner over ds, and its Revision
// chains the receiver's. The receiver is untouched and keeps serving;
// repaired reports which path was taken.
func (d *Designer) Patch(ds *Dataset, oracle Oracle, delta DatasetDelta) (next *Designer, repaired bool, err error) {
	if ds == nil || oracle == nil {
		return nil, false, errors.New("fairrank: nil dataset or oracle")
	}
	if ds.N() < 2 {
		return nil, false, fmt.Errorf("fairrank: patched dataset has %d items; need at least 2", ds.N())
	}
	ed := engine.Delta{Removed: delta.Removed, Added: len(delta.Added)}
	if err := ed.Validate(d.ds.N(), ds.N()); err != nil {
		return nil, false, err
	}
	frac := d.cfg.RepairChurnFrac
	if frac == 0 {
		frac = DefaultRepairChurnFrac
	}
	var eng engine.Engine
	if p, ok := d.eng.(engine.Patchable); ok && frac > 0 && float64(ed.Size()) <= frac*float64(d.ds.N()) {
		// Repair is an optimization, never a capability: any failure — no
		// retained build state, a degenerate refit — falls back to the
		// always-correct rebuild below.
		if e, rerr := p.Repair(ds, oracle, ed); rerr == nil {
			eng, repaired = e, true
		}
	}
	if eng == nil {
		eng, err = buildEngine(d.mode, ds, oracle, d.cfg)
		if err != nil {
			return nil, false, err
		}
	}
	return &Designer{
		ds:       ds,
		oracle:   oracle,
		mode:     d.mode,
		refine:   d.refine,
		eng:      eng,
		cfg:      d.cfg,
		revision: dataset.ChainFingerprint(d.revision, ds.Fingerprint()),
	}, repaired, nil
}
