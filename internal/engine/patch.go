package engine

import (
	"errors"
	"fmt"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
)

// ErrRepairUnsupported reports that an index retains no build state to
// repair from: it was decoded from a persisted stream (only the queryable
// tables survive a save), or it was built with an option whose work cannot
// be patched incrementally (top-k pruning re-derives its candidate set from
// the whole dataset). Callers fall back to a full rebuild — the repair path
// is an optimization, never a capability.
var ErrRepairUnsupported = errors.New("engine: index cannot be repaired incrementally")

// Delta summarizes a dataset patch for index repair: which pre-patch item
// indices were removed (strictly ascending) and how many items were appended
// at the tail of the patched dataset. The patched dataset's first
// n−Added items are the survivors in their original relative order, so
// RemapItems below is a pure function of Removed.
type Delta struct {
	Removed []int
	Added   int
}

// Size is the churn: removals plus additions.
func (d Delta) Size() int { return len(d.Removed) + d.Added }

// Validate checks the delta's shape: removals strictly ascending and in
// range of the old item count, and the patched item count consistent with
// oldN − len(Removed) + Added.
func (d Delta) Validate(oldN, newN int) error {
	prev := -1
	for _, r := range d.Removed {
		if r < 0 || r >= oldN {
			return fmt.Errorf("engine: delta removes item %d of %d", r, oldN)
		}
		if r <= prev {
			return fmt.Errorf("engine: delta removals not strictly ascending at %d", r)
		}
		prev = r
	}
	if d.Added < 0 {
		return fmt.Errorf("engine: delta adds %d items", d.Added)
	}
	if want := oldN - len(d.Removed) + d.Added; newN != want {
		return fmt.Errorf("engine: patched dataset has %d items, delta implies %d", newN, want)
	}
	return nil
}

// Remap returns the survivor index map: remap[oldIndex] is the item's index
// in the patched dataset, or −1 when the item was removed. The map is
// monotone on survivors, which is what lets repair kernels re-tag retained
// structures without disturbing any ordering keyed on item indices.
func (d Delta) Remap(oldN int) []int {
	remap := make([]int, oldN)
	r, shift := 0, 0
	for i := 0; i < oldN; i++ {
		if r < len(d.Removed) && d.Removed[r] == i {
			remap[i] = -1
			r++
			shift++
			continue
		}
		remap[i] = i - shift
	}
	return remap
}

// Patchable is the optional engine extension for incremental index repair.
// Only the 2D engine implements it: a 2D index built in-process retains its
// sorted exchange list and splices a small dataset delta into it instead of
// re-enumerating and re-sorting every pair. The exact and grid engines do
// not: their builds fit only the hyperplanes a MaxHyperplanes cap keeps, so
// a repair would cost what a rebuild does.
type Patchable interface {
	// Repair returns a new engine over the patched dataset and oracle whose
	// answers are byte-identical to a from-scratch rebuild with the same
	// build options — Suggest, SuggestBatch, QualityBound, Satisfiable all
	// agree bit for bit. The receiver is left untouched and keeps serving.
	// ErrRepairUnsupported when no retained build state exists.
	Repair(ds *dataset.Dataset, oracle fairness.Oracle, delta Delta) (Engine, error)
}
