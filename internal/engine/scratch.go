package engine

import (
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// Scratch is the per-worker arena a SuggestBatch kernel reuses across the
// queries of a chunk: the chunk's restricted ranking (see RestrictChunk),
// one polar-angle buffer and two cartesian probe vectors. The batch layer
// keeps Scratches in a pool, so steady-state batch traffic allocates only
// the per-chunk answer arenas. A Scratch must not be shared between
// concurrent kernels.
type Scratch struct {
	rank   ranking.Restricted
	angles geom.Angles
	probe  geom.Angles
	va, vb geom.Vector
	// checks and ranked count the fairness checks since the last Reset and
	// the items they ranked (see Ranked).
	checks, ranked int64
}

// Retention caps for Reset: a pooled Scratch that served one giant dataset
// must not pin its grown arrays forever. The ranking buffers hold one
// float64 and one int per dataset item, so 1<<16 items bounds retention at
// ~1 MiB per pooled scratch; the angle and probe buffers hold d−1 entries
// and are capped far above any realistic dimensionality.
const (
	maxRetainedRankItems = 1 << 16
	maxRetainedAngles    = 1 << 10
)

// Reset prepares a Scratch for the pool: the chunk's restricted ranking is
// dropped (it may not leak across batches, engines, or generations, and a
// parked list must not pin its dataset) and buffers whose capacity outgrew
// the retention caps are released so one giant batch does not pin memory
// for the life of the process. Contents of retained buffers are not
// cleared — kernels always write before they read.
func (s *Scratch) Reset() {
	s.checks, s.ranked = 0, 0
	s.rank.Drop()
	s.rank.Trim(maxRetainedRankItems)
	if cap(s.angles) > maxRetainedAngles {
		s.angles = nil
	}
	if cap(s.probe) > maxRetainedAngles {
		s.probe = nil
	}
	if cap(s.va) > maxRetainedAngles {
		s.va, s.vb = nil, nil
	}
}

// RestrictChunk prepares CheckFair for the queries of one kernel chunk.
// When need reads a top K with 1 ≤ K < n and at least two queries have ds's
// dimension and only finite values, it restricts the scratch's ranking to
// the items that can reach the top K anywhere in the coordinate-wise box of
// those queries (ranking.Restricted); any earlier restriction is dropped
// first. Every query of the box then ranks only those items, with the top-K
// set and sorted prefix a full ranking gives; any other query ranks all n.
// need is fairness.Reads of the oracle CheckFair will evaluate.
func (s *Scratch) RestrictChunk(ds *dataset.Dataset, queries []geom.Vector, need ranking.Need) {
	s.rank.Drop()
	d := ds.D()
	if need.K < 1 || need.K >= ds.N() {
		return
	}
	lo, hi := s.Vectors(d) // Restrict copies the box
	boxed := 0
	for _, q := range queries {
		if len(q) != d || !q.IsFinite() {
			continue
		}
		if boxed == 0 {
			copy(lo, q)
			copy(hi, q)
		}
		for j, v := range q {
			lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
		}
		boxed++
	}
	if boxed < 2 {
		return
	}
	// The box has ds's dimension and K ≥ 1, so Restrict cannot fail.
	_, _ = s.rank.Restrict(ds, lo, hi, need.K)
}

// CheckFair evaluates the oracle on the ordering w induces, ranking through
// the chunk's restriction (RestrictChunk) when it covers w, and otherwise
// all n items, each only as far as need says the oracle reads. need is
// fairness.Reads(oracle), hoisted by the caller so a chunk pays the type
// switch once.
func (s *Scratch) CheckFair(ds *dataset.Dataset, oracle fairness.Oracle, w geom.Vector, need ranking.Need) (bool, error) {
	order, ranked, err := s.rank.Rank(ds, w, need)
	if err != nil {
		return false, err
	}
	s.checks++
	s.ranked += int64(ranked)
	return oracle.Check(order), nil
}

// Ranked returns how many fairness checks ran on this scratch since its
// last Reset and how many items they ranked in all: n per check without a
// chunk restriction, the kept items per check with one.
func (s *Scratch) Ranked() (checks, items int64) { return s.checks, s.ranked }

// Angles returns the reusable m-angle polar buffer.
func (s *Scratch) Angles(m int) geom.Angles {
	if cap(s.angles) < m {
		s.angles = make(geom.Angles, m)
	}
	return s.angles[:m]
}

// Probe returns a second reusable m-angle buffer, for kernels that perturb a
// located angle (the refined grid query) without clobbering the original.
func (s *Scratch) Probe(m int) geom.Angles {
	if cap(s.probe) < m {
		s.probe = make(geom.Angles, m)
	}
	return s.probe[:m]
}

// Vectors returns two reusable d-vectors, for allocation-free angular
// distances (convert both rays into the scratch vectors, then RayDistance).
func (s *Scratch) Vectors(d int) (geom.Vector, geom.Vector) {
	if cap(s.va) < d {
		s.va = make(geom.Vector, d)
		s.vb = make(geom.Vector, d)
	}
	return s.va[:d], s.vb[:d]
}

// AngleDistance is geom.AngleDistance through the scratch vectors: the
// identical arithmetic and errors (both delegate to geom.AngleDistanceInto)
// with zero allocations.
func (s *Scratch) AngleDistance(a, b geom.Angles) (float64, error) {
	va, vb := s.Vectors(a.Dim())
	return geom.AngleDistanceInto(a, b, va, vb)
}
