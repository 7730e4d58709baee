// Build benchmarks: the offline phase of each engine at the shape perfbench
// builds it. BenchmarkBuild2D is loop-2d's designer (n=5000 biased items,
// d=2): the pair enumeration, the sort and the ray sweep. The two d=3
// engines run at explore-md's shapes (n=1000; exact capped at 40
// hyperplanes, approx at 4000 cells and 200 hyperplanes): fitting the kept
// hyperplanes, building the arrangement or grid, and probing the oracle
// (region labeling or MARKCELL). Every dataset is datagen.Biased seed 2019
// under MinShare 0.2/0.35, and each iteration is one NewDesigner call. CI
// runs these with -bench BenchmarkBuild and gates them against
// BENCH_build.json (cmd/benchjson).
package fairrank_test

import (
	"testing"

	"fairrank"
	"fairrank/internal/datagen"
)

func benchBuild(b *testing.B, n, d int, cfg fairrank.Config) {
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 2019)
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

func BenchmarkBuild2D(b *testing.B) {
	benchBuild(b, 5000, 2, fairrank.Config{Mode: fairrank.Mode2D})
}

func BenchmarkBuildExactMD(b *testing.B) {
	benchBuild(b, 1000, 3, fairrank.Config{Mode: fairrank.ModeExact, MaxHyperplanes: 40})
}

func BenchmarkBuildApproxMD(b *testing.B) {
	benchBuild(b, 1000, 3, fairrank.Config{Mode: fairrank.ModeApprox, Cells: 4000, MaxHyperplanes: 200})
}
