// Patch benchmarks across all three engines: single-item dataset churn
// applied through Designer.Patch on the incremental-repair path vs the full
// rebuild fallback. The same API call measures both sides — the repair
// fixture's churn threshold admits the delta, the rebuild fixture's
// RepairChurnFrac of -1 forces the fallback — so the pair is an apples-to-
// apples cost of "one item changed" with and without index reuse. CI runs
// these with -bench BenchmarkPatch and converts the output to
// BENCH_patch.json (cmd/benchjson). Both the exact and the approx fixture
// cap their hyperplanes, and a capped build fits only the kept pairs, so
// their repair and rebuild cost about the same; the pairs gate each path
// against its own regression.
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

// patchBenchFixture holds two designers over the same base dataset — one
// whose churn threshold admits single-item repairs, one that always rebuilds
// — plus a pool of deltas cycled across iterations.
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
	cfg.RepairChurnFrac = 0.5
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 17)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	repair, err := fairrank.NewDesigner(ds, oracle, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfgRebuild := cfg
	cfgRebuild.RepairChurnFrac = -1
	rebuild, err := fairrank.NewDesigner(ds, oracle, cfgRebuild)
	if err != nil {
		b.Fatal(err)
	}

	fx := &patchBenchFixture{repair: repair, rebuild: rebuild}
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
func BenchmarkPatchRepairExact(b *testing.B)   { benchPatch(b, fairrank.ModeExact, true) }
func BenchmarkPatchRebuildExact(b *testing.B)  { benchPatch(b, fairrank.ModeExact, false) }
func BenchmarkPatchRepairApprox(b *testing.B)  { benchPatch(b, fairrank.ModeApprox, true) }
func BenchmarkPatchRebuildApprox(b *testing.B) { benchPatch(b, fairrank.ModeApprox, false) }
