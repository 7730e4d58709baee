// Package core assembles the paper's exact multi-dimensional pipeline:
// SATREGIONS (Algorithm 4) builds the arrangement of ordering-exchange
// hyperplanes in angle coordinates and labels every region with the fairness
// oracle's verdict, and MDBASELINE (Algorithm 6) answers a query function by
// solving, per satisfactory region, the non-linear program "closest point of
// the region to the query in angular distance".
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fairrank/internal/arrangement"
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/lp"
	"fairrank/internal/nlp"
	"fairrank/internal/ranking"
)

// ErrUnsatisfiable is returned when no region of the arrangement satisfies
// the fairness oracle.
var ErrUnsatisfiable = errors.New("core: no satisfactory ranking function exists")

// Options tunes SatRegions.
type Options struct {
	// UseTree enables the arrangement tree (Algorithm 5 / AT+).
	UseTree bool
	// MaxHyperplanes caps how many ordering-exchange hyperplanes are
	// inserted (0 = all). The arrangement has Θ(h^{2(d-1)}) regions, so the
	// paper's own experiments cap this (Fig. 18 plots up to 1,200).
	MaxHyperplanes int
	// Seed drives hyperplane shuffling and LP randomization.
	Seed int64
	// PruneTopK, when positive, first discards items that cannot appear in
	// any top-k (dominated by ≥ k others) — the §8 convex-layers
	// optimization. Use the oracle's k.
	PruneTopK int
	// Workers parallelizes the region-labeling pass across the connected
	// components of the region adjacency graph (IncrementalLabeling) or
	// across regions (witness labeling). Labels are identical for any worker
	// count. 0 or 1 = serial; negative = GOMAXPROCS.
	Workers int
	// IncrementalLabeling visits regions in adjacency order (a DFS over the
	// regions' sign vectors, where neighbors differ in exactly one
	// hyperplane) and drives the oracle's incremental state through single
	// swaps instead of re-sorting the dataset per region witness. Exact for
	// d = 2 (angle-space hyperplanes are exact there); for d > 2 the region
	// orderings follow the arrangement's interpolated hyperplane sides, the
	// same approximation the arrangement itself makes. Regions unreachable
	// by single-flip adjacency fall back to a full sort.
	IncrementalLabeling bool
}

// MDIndex is the offline product of SatRegions.
type MDIndex struct {
	Arr    *arrangement.Arrangement
	Sat    []*arrangement.Region
	Oracle fairness.Oracle
	DS     *dataset.Dataset
	// OracleCalls made while labeling regions.
	OracleCalls int
	// HyperplaneCount is |H| before any MaxHyperplanes cap.
	HyperplaneCount int
	// querySeed seeds the per-call randomness of Baseline's NLP solves.
	// Every Baseline call starts from this fixed seed, which makes answers
	// deterministic across calls and across save/load, and makes Baseline
	// safe for concurrent use (no shared rand.Rand state).
	querySeed int64
	// Retained build state for incremental repair (see Repair). In-memory
	// only: loaded indexes report repairable == false (a persisted stream
	// keeps just the queryable arrangement), as do PruneTopK builds (the
	// candidate set is a global property a delta can reshape arbitrarily).
	buildOpts  Options
	repairable bool
}

// SatRegions is Algorithm 4: build ordering-exchange hyperplanes for the
// non-dominating pairs, insert them into the arrangement, then label each
// region by ordering the items at the region's witness function and asking
// the oracle. Under a MaxHyperplanes cap only the kept pairs are fitted
// (arrangement.FitHyperplanes).
func SatRegions(ds *dataset.Dataset, oracle fairness.Oracle, opt Options) (*MDIndex, error) {
	if ds.D() < 2 {
		return nil, fmt.Errorf("core: need at least 2 scoring attributes, got %d", ds.D())
	}
	items := make([]geom.Vector, 0, ds.N())
	var itemIDs []int // hyperplane pair index → dataset item index
	if opt.PruneTopK > 0 {
		// An item dominated by ≥ k others never reaches rank ≤ k under any
		// non-negative linear function, so for oracles that inspect only
		// the top-k prefix, every ordering exchange that can change the
		// verdict is between two top-k candidates. Building hyperplanes
		// over candidates only is therefore exact for such oracles; the
		// oracle itself still ranks the full dataset.
		cand := ds.TopKCandidates(opt.PruneTopK)
		for _, i := range cand {
			items = append(items, ds.Item(i))
			itemIDs = append(itemIDs, i)
		}
	} else {
		for i := 0; i < ds.N(); i++ {
			items = append(items, ds.Item(i))
			itemIDs = append(itemIDs, i)
		}
	}
	return satRegions(ds, oracle, opt, items, itemIDs, nil)
}

// satRegions is SatRegions past candidate selection: fit the kept
// hyperplanes over items, reusing the fits in reuse (nil for a build;
// Repair passes the surviving pairs of the index it repairs), insert them,
// and label the regions. Both callers replay the same seeded rng, so a
// repair's arrangement is byte-identical to a build's.
func satRegions(ds *dataset.Dataset, oracle fairness.Oracle, opt Options, items []geom.Vector, itemIDs []int, reuse map[arrangement.Pair]geom.Hyperplane) (*MDIndex, error) {
	rng := rand.New(rand.NewSource(opt.Seed + 1))
	hs, total, err := arrangement.FitHyperplanes(items, reuse, rng, opt.MaxHyperplanes)
	if err != nil {
		return nil, err
	}
	arr := arrangement.New(geom.FullAngleBox(ds.D()), opt.UseTree, rng)
	for _, h := range hs {
		arr.Insert(h)
	}
	idx := &MDIndex{
		Arr:             arr,
		Oracle:          oracle,
		DS:              ds,
		HyperplaneCount: total,
		querySeed:       opt.Seed + 1,
		buildOpts:       opt,
		repairable:      opt.PruneTopK == 0,
	}
	counter := &fairness.Counter{O: oracle}
	if opt.IncrementalLabeling {
		if err := labelRegionsIncremental(idx, counter, itemIDs, opt.Workers); err != nil {
			return nil, err
		}
	} else if err := labelRegionsByWitness(idx, counter, opt.Workers); err != nil {
		return nil, err
	}
	for _, r := range arr.Regions() {
		if r.Satisfactory {
			idx.Sat = append(idx.Sat, r)
		}
	}
	idx.OracleCalls = counter.Calls()
	return idx, nil
}

// Satisfiable reports whether any satisfactory region was found.
func (idx *MDIndex) Satisfiable() bool { return len(idx.Sat) > 0 }

// Baseline is Algorithm 6 (MDBASELINE): if the query is already
// satisfactory return it unchanged; otherwise solve the closest-point NLP
// for every satisfactory region and return the global minimizer, scaled to
// the query's magnitude. The returned distance is the angular distance
// between query and answer.
func (idx *MDIndex) Baseline(w geom.Vector) (geom.Vector, float64, error) {
	if len(w) != idx.DS.D() {
		return nil, 0, fmt.Errorf("core: query dimension %d, want %d", len(w), idx.DS.D())
	}
	var bufs ranking.Buffers
	order, err := bufs.Rank(idx.DS, w, fairness.Reads(idx.Oracle))
	if err != nil {
		return nil, 0, err
	}
	if idx.Oracle.Check(order) {
		return w.Clone(), 0, nil
	}
	return idx.closest(w)
}

// closest is Baseline's unfair-query path: the per-region NLP solves and the
// global minimum. The batch kernel calls it directly after its own (scratch-
// buffered) fairness check, so both paths return identical answers.
func (idx *MDIndex) closest(w geom.Vector) (geom.Vector, float64, error) {
	if !idx.Satisfiable() {
		return nil, 0, ErrUnsatisfiable
	}
	r, q, err := geom.ToPolar(w)
	if err != nil {
		return nil, 0, err
	}
	// A fresh rng per call keeps Baseline deterministic (two identical
	// queries — or a query before and after save/load — get identical
	// answers) and free of shared mutable state, so concurrent callers
	// never race. For the same reason the solver workspace and the
	// constraint buffer are per call, shared by all satisfactory regions.
	rng := rand.New(rand.NewSource(idx.querySeed))
	var (
		ws   nlp.Workspace
		cons []lp.Constraint
	)
	best := math.Inf(1)
	var bestAng geom.Angles
	for _, reg := range idx.Sat {
		cons = idx.Arr.ConstraintsInto(cons[:0], reg)
		p, dist, err := ws.ClosestAnglePoint(q, cons, idx.Arr.Box, nlp.Options{}, rng)
		if err != nil {
			continue // degenerate region; skip
		}
		if dist < best {
			best = dist
			bestAng = append(bestAng[:0], p...) // p aliases ws
		}
	}
	if bestAng == nil {
		return nil, 0, ErrUnsatisfiable
	}
	return bestAng.ToCartesian(r), best, nil
}
