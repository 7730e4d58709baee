package core

import (
	"errors"
	"fmt"
	"io"

	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// revalidateSample caps how many satisfactory regions' witnesses one
// Revalidate pass re-probes (see the cells engine's identically-named cap).
const revalidateSample = 512

// mdEngine adapts MDIndex to engine.Engine.
type mdEngine struct{ idx *MDIndex }

// NewEngine wraps an arrangement index in the uniform engine interface.
func NewEngine(idx *MDIndex) engine.Engine { return mdEngine{idx: idx} }

func (e mdEngine) ModeName() string      { return "exact" }
func (e mdEngine) Satisfiable() bool     { return e.idx.Satisfiable() }
func (e mdEngine) QualityBound() float64 { return 0 }

func (e mdEngine) Suggest(w geom.Vector) (geom.Vector, float64, error) {
	out, dist, err := e.idx.Baseline(w)
	if errors.Is(err, ErrUnsatisfiable) {
		err = engine.ErrUnsatisfiable
	}
	return out, dist, err
}

// SuggestBatch is the exact-engine arena kernel. The fairness check — the
// whole cost of the common already-fair query — ranks through the worker's
// scratch only as far as the oracle reads (fairness.Reads), and only among
// the items that can reach the oracle's top K in the chunk's box
// (Scratch.RestrictChunk): the verdict of the probe Baseline makes. Fair
// answers are carved out of one per-chunk arena. Unfair queries fall
// through to the per-region NLP solves, whose cost dwarfs their
// allocations; the planner's dedup upstream saves a whole solve per
// collapsed duplicate.
func (e mdEngine) SuggestBatch(dst []engine.Result, queries []geom.Vector, s *engine.Scratch) {
	idx := e.idx
	d := idx.DS.D()
	need := fairness.Reads(idx.Oracle)
	s.RestrictChunk(idx.DS, queries, need)
	arena := make([]float64, d*len(queries))
	for i, q := range queries {
		if len(q) != d {
			_, _, err := idx.Baseline(q) // uniform dimension error
			dst[i] = engine.Result{Err: err}
			continue
		}
		fair, err := s.CheckFair(idx.DS, idx.Oracle, q, need)
		if err != nil {
			dst[i] = engine.Result{Err: err}
			continue
		}
		if fair {
			out := geom.Vector(arena[d*i : d*(i+1) : d*(i+1)])
			copy(out, q)
			dst[i] = engine.Result{Weights: out}
			continue
		}
		out, dist, err := idx.closest(q)
		if errors.Is(err, ErrUnsatisfiable) {
			err = engine.ErrUnsatisfiable
		}
		dst[i] = engine.Result{Weights: out, Distance: dist, Err: err}
	}
}

// Revalidate spot-checks satisfactory regions' stored witness functions
// against a (possibly updated) dataset: the region geometry is fixed by the
// old data's ordering exchanges, so a witness that no longer satisfies the
// oracle means the arrangement's labels have drifted and the index should be
// rebuilt. Violations in the report are indexes into the satisfactory-region
// list.
//
// Probes are drawn as an evenly-strided sample of at most revalidateSample
// regions (mirroring the grid engine: each probe ranks all n items, so the
// cap keeps one drift check bounded regardless of |Sat|). Every region is
// labeled with the oracle's verdict at its own witness, so on unchanged data
// every probe passes, capped or not; a region an index carries as
// satisfactory although its witness fails is reported like drift.
func (idx *MDIndex) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	if ds.D() != idx.DS.D() {
		return engine.DriftReport{}, fmt.Errorf("core: revalidating a d=%d index against a d=%d dataset", idx.DS.D(), ds.D())
	}
	if len(idx.Sat) == 0 {
		// Unsatisfiable at build time: probe that verdict instead, so data
		// drifting into satisfiability triggers a rebuild. A capped
		// arrangement can be wrong about unsatisfiability, so the build
		// dataset filters out directions the verdict never covered.
		return engine.RevalidateUnsatisfiable(idx.DS, idx.Oracle, ds, oracle)
	}
	stride := 1
	if len(idx.Sat) > revalidateSample {
		stride = (len(idx.Sat) + revalidateSample - 1) / revalidateSample
	}
	var report engine.DriftReport
	counter := &fairness.Counter{O: oracle}
	need := fairness.Reads(oracle)
	var bufs ranking.Buffers
	w := make(geom.Vector, ds.D())
	for i := 0; i < len(idx.Sat); i += stride {
		geom.Angles(idx.Sat[i].Witness).ToCartesianInto(1, w)
		order, err := bufs.Rank(ds, w, need)
		if err != nil {
			return engine.DriftReport{}, err
		}
		report.Probes++
		if counter.Check(order) {
			report.StillSatisfactory++
		} else {
			report.Violations = append(report.Violations, i)
		}
	}
	report.OracleCalls = counter.Calls()
	return report, nil
}

func (e mdEngine) Revalidate(ds *dataset.Dataset, oracle fairness.Oracle) (engine.DriftReport, error) {
	return e.idx.Revalidate(ds, oracle)
}

func (e mdEngine) Persist(w io.Writer) error { return e.idx.WriteIndex(w) }
