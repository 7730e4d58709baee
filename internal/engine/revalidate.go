package engine

import (
	"math/rand"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// unsatProbes is how many directions RevalidateUnsatisfiable samples.
const unsatProbes = 16

// RevalidateUnsatisfiable is the drift check for an index that found NO
// satisfactory function at build time: its stored claim is "unfair
// everywhere", so there are no witnesses to re-probe. Instead it ranks the
// (possibly updated) dataset at a deterministic fan of directions — the
// axes, the uniform diagonal, and a fixed pseudorandom sample — and counts
// a violation wherever a fair function has appeared, which means the
// unsatisfiable verdict has drifted and the index should be rebuilt.
// Without this, Probes would be 0 and Healthy() vacuously true forever,
// leaving the designer answering ErrUnsatisfiable long after the data
// started admitting fair functions.
//
// build and buildOracle, when build is non-nil, identify the instance the
// index was built over: a direction that is fair under (build, buildOracle)
// means the index's unsatisfiable verdict was already wrong there (a capped
// or coarse search missed a fair region), and probing it would report drift
// — and rebuild an identical index — forever. Such directions are skipped,
// so a fan that is fair everywhere on the build data yields zero probes.
// An engine whose unsatisfiable verdict is exact (the 2D sweep) passes a
// nil build and every direction is probed.
func RevalidateUnsatisfiable(build *dataset.Dataset, buildOracle fairness.Oracle, ds *dataset.Dataset, oracle fairness.Oracle) (DriftReport, error) {
	d := ds.D()
	dirs := make([]geom.Vector, 0, d+1+unsatProbes)
	for j := 0; j < d; j++ {
		axis := make(geom.Vector, d)
		axis[j] = 1
		dirs = append(dirs, axis)
	}
	diag := make(geom.Vector, d)
	for j := range diag {
		diag[j] = 1
	}
	dirs = append(dirs, diag)
	rng := rand.New(rand.NewSource(1)) // fixed seed: the probe set is part of the check's contract
	for i := 0; i < unsatProbes; i++ {
		w := make(geom.Vector, d)
		for j := range w {
			w[j] = rng.Float64() + 1e-3
		}
		dirs = append(dirs, w)
	}
	baselineCounter := &fairness.Counter{O: buildOracle}
	counter := &fairness.Counter{O: oracle}
	buildNeed, need := fairness.Reads(buildOracle), fairness.Reads(oracle)
	var bufs ranking.Buffers
	var report DriftReport
	for i, w := range dirs {
		if build != nil {
			order, err := bufs.Rank(build, w, buildNeed)
			if err != nil {
				return DriftReport{}, err
			}
			if baselineCounter.Check(order) {
				continue // the verdict never held here
			}
		}
		order, err := bufs.Rank(ds, w, need)
		if err != nil {
			return DriftReport{}, err
		}
		report.Probes++
		if counter.Check(order) {
			report.Violations = append(report.Violations, i)
		} else {
			report.StillSatisfactory++
		}
	}
	report.OracleCalls = counter.Calls() + baselineCounter.Calls()
	return report, nil
}
