package fairrank

import (
	"bytes"
	"testing"

	"fairrank/internal/core"
	"fairrank/internal/datagen"
	"fairrank/internal/geom"
)

// Every ModeExact designer labels each region of its arrangement with the
// oracle's verdict at the region's own witness, in any dimension and under a
// MaxHyperplanes cap. A capped arrangement leaves exchanges out, so the
// items' order changes inside a region, and a label carried over from a
// neighbouring region can contradict the region's own witness. Each case
// below is the shape of an exact designer elsewhere in the test suite or the
// benchmarks.
func TestExactRegionLabelsAreWitnessVerdicts(t *testing.T) {
	cases := []struct {
		name       string
		n, d       int
		gap, share float64
		seed       int64
		cfg        Config
	}{
		// internal/engine's TestConformanceRevalidateCappedExact.
		{"capped d=2, n=100, cap 300", 100, 2, 0.25, 0.4, 42, Config{Mode: ModeExact, MaxHyperplanes: 300}},
		// bench_batch_test.go's exact designer.
		{"capped d=2, n=300, cap 400", 300, 2, 0.3, 0.35, 17, Config{Mode: ModeExact, MaxHyperplanes: 400}},
		// TestGoldenKernelDigests' exact-d3 designer.
		{"golden d=3", 40, 3, 0.3, 0.35, 29, Config{Mode: ModeExact, MaxHyperplanes: 16, Seed: 7}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ds, err := datagen.Biased(tc.n, tc.d, 0.5, tc.gap, 1, tc.seed)
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := MinShare(ds, "group", "protected", 0.2, tc.share)
			if err != nil {
				t.Fatal(err)
			}
			des, err := NewDesigner(ds, oracle, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := des.eng.Persist(&buf); err != nil {
				t.Fatal(err)
			}
			idx, err := core.LoadIndex(&buf, ds, oracle)
			if err != nil {
				t.Fatal(err)
			}
			regions := idx.Arr.Regions()
			wrong, sat := 0, 0
			for _, reg := range regions {
				order, err := des.Rank(geom.Angles(reg.Witness).ToCartesian(1))
				if err != nil {
					t.Fatal(err)
				}
				if reg.Satisfactory != oracle.Check(order) {
					wrong++
				}
				if reg.Satisfactory {
					sat++
				}
			}
			if wrong != 0 {
				t.Errorf("%d of %d regions carry a label their witness's ranking contradicts (%d labeled satisfactory)",
					wrong, len(regions), sat)
			}
			if sat == 0 || sat == len(regions) {
				t.Errorf("%d of %d regions satisfactory; the fixture should hold both kinds", sat, len(regions))
			}
			if idx.OracleCalls != len(regions) {
				t.Errorf("oracle calls %d, want one per region (%d)", idx.OracleCalls, len(regions))
			}
		})
	}
}
