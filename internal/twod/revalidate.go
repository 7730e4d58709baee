package twod

import (
	"fmt"
	"math"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// Revalidate probes each satisfactory interval of the index at its
// midpoint against a (possibly updated) dataset and oracle, in
// O(#intervals · n log n) at most (each probe ranks only as far as the
// oracle reads) — far cheaper than re-running the ray sweep.
// A failed probe means the data has drifted enough that the index should
// be rebuilt (the probe is a spot check, not a proof: an interval may also
// have fractured internally). The paper's introduction motivates exactly
// this check: a ranking scheme is designed once on a representative sample
// and reused "as long as the distribution of values in the dataset will not
// change too much over some window"; Revalidate is the cheap verification
// step of that loop. Violations in the report are interval indexes.
func (idx *Index) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	if ds.D() != 2 {
		return engine.DriftReport{}, fmt.Errorf("twod: revalidating against a dataset with %d scoring attributes, want 2", ds.D())
	}
	if len(idx.intervals) == 0 {
		// No satisfactory intervals were found at build time: probe the
		// unsatisfiable verdict itself, so a dataset that has drifted into
		// admitting fair functions triggers a rebuild. The sweep is exact,
		// so the verdict needs no build-data baseline (nil).
		return engine.RevalidateUnsatisfiable(nil, nil, ds, oracle)
	}
	report := engine.DriftReport{Probes: len(idx.intervals)}
	counter := &fairness.Counter{O: oracle}
	need := fairness.Reads(oracle)
	var bufs ranking.Buffers
	for i, iv := range idx.intervals {
		mid := (iv.Start + iv.End) / 2
		w := geom.Vector{math.Cos(mid), math.Sin(mid)}
		order, err := bufs.Rank(ds, w, need)
		if err != nil {
			return engine.DriftReport{}, err
		}
		if counter.Check(order) {
			report.StillSatisfactory++
		} else {
			report.Violations = append(report.Violations, i)
		}
	}
	report.OracleCalls = counter.Calls()
	return report, nil
}
