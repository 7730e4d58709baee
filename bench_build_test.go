// Build benchmarks: the offline phase of the two d=3 engines at the shapes
// the explore-md workload of perfbench builds (n=1000 biased items, MinShare
// 0.2/0.35; exact capped at 40 hyperplanes, approx at 4000 cells and 200
// hyperplanes). Each iteration is one NewDesigner call, which fits the
// kept hyperplanes, builds the arrangement or grid, and probes the oracle
// (region labeling or MARKCELL). CI runs these with -bench BenchmarkBuild
// and gates them against BENCH_build.json (cmd/benchjson).
package fairrank_test

import (
	"testing"

	"fairrank"
	"fairrank/internal/datagen"
)

func benchBuild(b *testing.B, cfg fairrank.Config) {
	ds, err := datagen.Biased(1000, 3, 0.5, 0.3, 1, 2019)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairrank.NewDesigner(ds, oracle, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildExactMD(b *testing.B) {
	benchBuild(b, fairrank.Config{Mode: fairrank.ModeExact, MaxHyperplanes: 40})
}

func BenchmarkBuildApproxMD(b *testing.B) {
	benchBuild(b, fairrank.Config{Mode: fairrank.ModeApprox, Cells: 4000, MaxHyperplanes: 200})
}
