// Patch benchmarks: single-item dataset churn applied through
// Designer.Patch. The 2D engine is the only one that repairs, and its pair
// measures the incremental-repair path against the full rebuild fallback
// through the same API call — the repair fixture's churn threshold admits
// the delta, the rebuild fixture's RepairChurnFrac of -1 forces the
// fallback — so the pair is an apples-to-apples cost of "one item changed"
// with and without index reuse. The exact and approx engines always
// rebuild, so each has only its rebuild benchmark. CI runs these with
// -bench BenchmarkPatch and converts the output to BENCH_patch.json
// (cmd/benchjson).
package fairrank_test

import (
	"sync"
	"testing"

	"fairrank"
	"fairrank/internal/datagen"
)

// patchStep is one precomputed single-item delta: the patched dataset, an
// oracle bound to it, and the delta itself. Precomputing keeps ApplyDelta
// and MinShare out of the timed loop — the benchmark measures Patch alone.
type patchStep struct {
	ds     *fairrank.Dataset
	oracle fairrank.Oracle
	delta  fairrank.DatasetDelta
}

// patchBenchFixture holds the designers over one base dataset — one that
// always rebuilds and, for 2D, one whose churn threshold admits single-item
// repairs — plus a pool of deltas cycled across iterations.
type patchBenchFixture struct {
	repair  *fairrank.Designer
	rebuild *fairrank.Designer
	pool    []patchStep
}

var (
	patchFixtures   = map[fairrank.Mode]*patchBenchFixture{}
	patchFixturesMu sync.Mutex
)

func patchFixtureFor(b *testing.B, mode fairrank.Mode) *patchBenchFixture {
	b.Helper()
	patchFixturesMu.Lock()
	defer patchFixturesMu.Unlock()
	if fx, ok := patchFixtures[mode]; ok {
		return fx
	}
	var (
		n, d int
		cfg  fairrank.Config
	)
	switch mode {
	case fairrank.Mode2D:
		n, d = 1200, 2
		cfg = fairrank.Config{Mode: mode}
	case fairrank.ModeExact:
		n, d = 2000, 2
		cfg = fairrank.Config{Mode: mode, MaxHyperplanes: 120, Seed: 5}
	case fairrank.ModeApprox:
		n, d = 1000, 3
		cfg = fairrank.Config{Mode: mode, Cells: 100, MaxHyperplanes: 200, Seed: 5}
	}
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 17)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	fx := &patchBenchFixture{}
	cfg.RepairChurnFrac = -1
	if fx.rebuild, err = fairrank.NewDesigner(ds, oracle, cfg); err != nil {
		b.Fatal(err)
	}
	if mode == fairrank.Mode2D {
		cfg.RepairChurnFrac = 0.5
		if fx.repair, err = fairrank.NewDesigner(ds, oracle, cfg); err != nil {
			b.Fatal(err)
		}
	}
	row := make([]float64, d)
	for j := range row {
		row[j] = 0.4 + 0.1*float64(j)
	}
	for k := 0; k < 16; k++ {
		delta := fairrank.DatasetDelta{
			Removed: []int{k * 7},
			Added: []fairrank.PatchItem{
				{Row: row, Types: map[string]string{"group": "protected"}},
			},
		}
		next, err := fairrank.ApplyDelta(ds, delta)
		if err != nil {
			b.Fatal(err)
		}
		or, err := fairrank.MinShare(next, "group", "protected", 0.2, 0.35)
		if err != nil {
			b.Fatal(err)
		}
		fx.pool = append(fx.pool, patchStep{ds: next, oracle: or, delta: delta})
	}
	patchFixtures[mode] = fx
	return fx
}

func benchPatch(b *testing.B, mode fairrank.Mode, wantRepair bool) {
	fx := patchFixtureFor(b, mode)
	d := fx.rebuild
	if wantRepair {
		d = fx.repair
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := fx.pool[i%len(fx.pool)]
		_, repaired, err := d.Patch(step.ds, step.oracle, step.delta)
		if err != nil {
			b.Fatal(err)
		}
		if repaired != wantRepair {
			b.Fatalf("repaired = %v, want %v", repaired, wantRepair)
		}
	}
}

func BenchmarkPatchRepair2D(b *testing.B)      { benchPatch(b, fairrank.Mode2D, true) }
func BenchmarkPatchRebuild2D(b *testing.B)     { benchPatch(b, fairrank.Mode2D, false) }
func BenchmarkPatchRebuildExact(b *testing.B)  { benchPatch(b, fairrank.ModeExact, false) }
func BenchmarkPatchRebuildApprox(b *testing.B) { benchPatch(b, fairrank.ModeApprox, false) }
