package core

import (
	"bytes"
	"math/rand"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
)

func colored2D(t *testing.T, r *rand.Rand, n int) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, n)
	colors := make([]int, n)
	for i := range rows {
		rows[i] = []float64{r.Float64() * 10, r.Float64() * 10}
		colors[i] = r.Intn(2)
	}
	ds, err := dataset.New([]string{"x", "y"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("color", []string{"blue", "orange"}, colors); err != nil {
		t.Fatal(err)
	}
	return ds
}

// An index saved by an earlier build may carry a region flagged
// satisfactory whose witness the oracle rejects. Revalidate probes every
// sampled witness, so on unchanged data it must report exactly that region.
func TestRevalidateReportsMislabeledRegion(t *testing.T) {
	// The capped shape of the engine conformance suite's revalidation test.
	ds, err := datagen.Biased(100, 2, 0.5, 0.25, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := SatRegions(ds, oracle, Options{UseTree: true, MaxHyperplanes: 300})
	if err != nil {
		t.Fatal(err)
	}
	regions := idx.Arr.Regions()
	flipped := -1
	for i, reg := range regions {
		if !reg.Satisfactory {
			flipped = i
			break
		}
	}
	if flipped < 0 {
		t.Fatal("fixture has no unsatisfactory region")
	}
	regions[flipped].Satisfactory = true
	var buf bytes.Buffer
	if err := idx.WriteIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadIndex(&buf, ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Sat) > revalidateSample {
		t.Fatalf("|Sat| = %d exceeds the probe sample %d; every witness must be probed", len(loaded.Sat), revalidateSample)
	}
	want := -1
	for i, reg := range loaded.Sat {
		if reg == loaded.Arr.Regions()[flipped] {
			want = i
		}
	}
	report, err := loaded.Revalidate(ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if report.Probes != len(loaded.Sat) || len(report.Violations) != 1 || report.Violations[0] != want ||
		report.StillSatisfactory != report.Probes-1 {
		t.Fatalf("report %+v, want %d probes and one violation at Sat[%d]", report, len(loaded.Sat), want)
	}
}

// Parallel witness labeling must produce identical labels at every worker
// count.
func TestParallelLabelingIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for iter := 0; iter < 4; iter++ {
		ds := colored2D(t, r, 10+r.Intn(8))
		oracle, err := fairness.NewTopK(ds, "color", 4, []fairness.GroupBound{{Group: "blue", Min: 1, Max: 3}})
		if err != nil {
			t.Fatal(err)
		}
		serial, err := SatRegions(ds, oracle, Options{UseTree: true, Seed: int64(iter)})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, -1} {
			par, err := SatRegions(ds, oracle, Options{UseTree: true, Seed: int64(iter), Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			sr, pr := serial.Arr.Regions(), par.Arr.Regions()
			if len(sr) != len(pr) {
				t.Fatalf("iter %d workers=%d: region counts differ (%d vs %d)", iter, workers, len(sr), len(pr))
			}
			for k := range sr {
				if sr[k].Satisfactory != pr[k].Satisfactory {
					t.Fatalf("iter %d workers=%d: region %d label differs", iter, workers, k)
				}
			}
			if serial.OracleCalls != par.OracleCalls {
				t.Errorf("iter %d workers=%d: oracle calls %d vs serial %d", iter, workers, par.OracleCalls, serial.OracleCalls)
			}
			if len(serial.Sat) != len(par.Sat) {
				t.Errorf("iter %d workers=%d: |Sat| %d vs serial %d", iter, workers, len(par.Sat), len(serial.Sat))
			}
		}
	}
}
