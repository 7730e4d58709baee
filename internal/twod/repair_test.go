package twod

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
)

// dupDS is a random colored dataset on a coarse integer grid with some rows
// repeated verbatim: exact duplicates and many shared exchange angles.
func dupDS(t *testing.T, r *rand.Rand) *dataset.Dataset {
	t.Helper()
	var rows [][]float64
	var colors []int
	for i := 0; i < 30; i++ {
		row := []float64{float64(1 + r.Intn(7)), float64(1 + r.Intn(7))}
		if i > 0 && r.Intn(4) == 0 {
			row = slices.Clone(rows[r.Intn(i)])
		}
		rows = append(rows, row)
		colors = append(colors, r.Intn(2))
	}
	ds := mustDS(t, rows)
	if err := ds.AddTypeAttr("color", []string{"blue", "orange"}, colors); err != nil {
		t.Fatal(err)
	}
	return ds
}

// tieDelta removes 1–3 items and appends 1–3 items that are lattice points
// or duplicates of survivors, so fresh exchanges land at the angles of kept
// ones and the repair's merge interleaves them inside one tie run.
func tieDelta(r *rand.Rand, ds *dataset.Dataset) dataset.Delta {
	var d dataset.Delta
	for _, i := range r.Perm(ds.N())[:1+r.Intn(3)] {
		d.Removed = append(d.Removed, i)
	}
	slices.Sort(d.Removed)
	for k := 1 + r.Intn(3); k > 0; k-- {
		row := []float64{float64(1 + r.Intn(7)), float64(1 + r.Intn(7))}
		if r.Intn(2) == 0 {
			for {
				i := r.Intn(ds.N())
				if !slices.Contains(d.Removed, i) {
					row = slices.Clone(ds.Item(i))
					break
				}
			}
		}
		color := []string{"blue", "orange"}[r.Intn(2)]
		d.Added = append(d.Added, dataset.AddItem{Row: row, Types: map[string]string{"color": color}})
	}
	return d
}

// Repair across tie runs: after each of 20 random deltas, every oracle
// family's repaired index matches a rebuild over the patched dataset
// exactly, and keeps the very exchange list the rebuild enumerates.
func TestRepairMatchesRebuildWithTies(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	for _, c := range []struct {
		name string
		ds   *dataset.Dataset
	}{
		{"lattice", latticeDS(t, 7)},
		{"dups", dupDS(t, r)},
	} {
		name, ds := c.name, c.ds
		idxs := map[string]*Index{}
		for oName, oracle := range oracleFamilies(t, ds) {
			idx, err := RaySweep(ds, oracle, Options{})
			if err != nil {
				t.Fatal(err)
			}
			idxs[oName] = idx
		}
		for step := 0; step < 20; step++ {
			delta := tieDelta(r, ds)
			next, err := dataset.Apply(ds, delta)
			if err != nil {
				t.Fatal(err)
			}
			ed := engine.Delta{Removed: delta.Removed, Added: len(delta.Added)}
			for oName, oracle := range oracleFamilies(t, next) {
				label := fmt.Sprintf("%s/%s/step%d", name, oName, step)
				got, err := idxs[oName].Repair(next, oracle, ed)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := RaySweep(next, oracle, Options{})
				if err != nil {
					t.Fatal(err)
				}
				assertIdentical(t, label, ref, got)
				if !slices.Equal(ref.exchanges, got.exchanges) {
					t.Fatalf("%s: repaired exchange list differs from the rebuild's", label)
				}
				idxs[oName] = got
			}
			ds = next
		}
	}
}

// The retained exchange list is exact-size after a build and after a
// repair, and a one-item repair allocates a bounded number of times rather
// than once per growth step of a list-sized array.
func TestRepairRetentionAndAllocs(t *testing.T) {
	ds, err := datagen.Biased(1200, 2, 0.5, 0.3, 1, 17)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	exact := func(label string, idx *Index) {
		t.Helper()
		if len(idx.exchanges) != cap(idx.exchanges) || len(idx.exchanges) != idx.ExchangeCount {
			t.Errorf("%s: exchanges len %d cap %d, ExchangeCount %d", label,
				len(idx.exchanges), cap(idx.exchanges), idx.ExchangeCount)
		}
	}
	idx, err := RaySweep(ds, oracle, Options{})
	if err != nil {
		t.Fatal(err)
	}
	exact("build", idx)

	delta := dataset.Delta{
		Removed: []int{7},
		Added:   []dataset.AddItem{{Row: []float64{0.4, 0.5}, Types: map[string]string{"group": "protected"}}},
	}
	next, err := dataset.Apply(ds, delta)
	if err != nil {
		t.Fatal(err)
	}
	nextOracle, err := fairness.MinShare(next, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	ed := engine.Delta{Removed: delta.Removed, Added: 1}
	repaired, err := idx.Repair(next, nextOracle, ed)
	if err != nil {
		t.Fatal(err)
	}
	exact("repair", repaired)

	allocs := testing.AllocsPerRun(3, func() {
		if _, err := idx.Repair(next, nextOracle, ed); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 24 {
		t.Errorf("one-item repair: %v allocations, want ≤ 24", allocs)
	}
}
