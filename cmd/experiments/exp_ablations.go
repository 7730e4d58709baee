package main

import (
	"fairrank/internal/fairness"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"fairrank/internal/cells"
	"fairrank/internal/geom"
)

func init() {
	register("abl-prune", "ablation: §8 top-k dominance pruning — |H| and preprocessing time", runAblPrune)
	register("abl-cap", "ablation: MaxRegionsPerCell — marking time vs marked cells vs answer quality", runAblCap)
	register("abl-workers", "ablation: parallel MARKCELL scaling", runAblWorkers)
	register("abl-refine", "ablation: MDONLINE vs neighbor-refined lookup — answer quality", runAblRefine)
	register("abl-depth", "ablation: partial ranking for top-k-aware oracles vs full sorts", runAblDepth)
}

// runAblDepth quantifies the oracle-probe fast path: when the oracle
// declares what it reads (fairness.Reads), every probe ranks only that —
// for a top-k oracle, selection of the top-k set in O(n) instead of an
// O(n log n) sort. An opaque wrapper hides the need and forces full sorts.
func runAblDepth(cfg config) {
	n := 150
	if cfg.full {
		n = 400
	}
	full := compas(n, 7, cfg.seed)
	ds, err := full.Project("start", "c_days_from_compas", "juv_other_count")
	if err != nil {
		log.Fatal(err)
	}
	aware := defaultOracle(ds)
	opaque := fairness.Func(aware.Check) // same verdicts, unknown depth
	rows := [][]string{}
	for _, tc := range []struct {
		name   string
		oracle fairness.Oracle
	}{{"top-k aware", aware}, {"opaque", opaque}} {
		start := time.Now()
		approx, err := cells.Preprocess(ds, tc.oracle, 2000, cells.Options{
			Seed: cfg.seed, MaxRegionsPerCell: 128,
		})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, []string{
			tc.name,
			fmt.Sprintf("%d", approx.OracleCalls),
			fmtDur(approx.Times.Mark),
			fmtDur(time.Since(start)),
		})
	}
	table([]string{"oracle", "oracle probes", "MARKCELL time", "total time"}, rows)
}

// runAblPrune quantifies the §8 "convex layers" optimization: items
// dominated by ≥ k others can never enter the top-k, so exchanges among
// them are dropped, shrinking |H| and everything downstream.
func runAblPrune(cfg config) {
	n := 150
	if cfg.full {
		n = 400
	}
	full := compas(n, 7, cfg.seed)
	ds, err := full.Project("start", "c_days_from_compas", "juv_other_count")
	if err != nil {
		log.Fatal(err)
	}
	oracle := defaultOracle(ds)
	k := ds.N() * 30 / 100
	rows := [][]string{}
	for _, prune := range []int{0, k} {
		start := time.Now()
		approx, err := cells.Preprocess(ds, oracle, 2000, cells.Options{
			Seed: cfg.seed, MaxRegionsPerCell: 128, PruneTopK: prune,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := "off"
		if prune > 0 {
			label = fmt.Sprintf("k=%d", prune)
		}
		rows = append(rows, []string{
			label,
			fmt.Sprintf("%d", len(approx.Hyperplanes)),
			fmt.Sprintf("%d", approx.MarkStats.Marked),
			fmtDur(time.Since(start)),
		})
	}
	fmt.Printf("n=%d, d=3, oracle top-%d (pruning is exact for top-k oracles)\n", ds.N(), k)
	table([]string{"pruning", "|H|", "marked cells", "preprocess time"}, rows)
}

// runAblCap quantifies the MaxRegionsPerCell engineering knob: smaller caps
// bound the per-cell arrangement work at the price of cells that fall back
// to CELLCOLORING (weaker distance guarantee, still oracle-verified).
func runAblCap(cfg config) {
	n := 100
	if cfg.full {
		n = 200
	}
	full := compas(n, 7, cfg.seed)
	ds, err := full.Project("start", "c_days_from_compas", "juv_other_count")
	if err != nil {
		log.Fatal(err)
	}
	oracle := defaultOracle(ds)
	r := rand.New(rand.NewSource(cfg.seed + 9))
	queries := make([]geom.Vector, 50)
	for i := range queries {
		queries[i] = randomWeights(r, 3)
	}
	rows := [][]string{}
	for _, capR := range []int{16, 64, 256, 1024} {
		start := time.Now()
		approx, err := cells.Preprocess(ds, oracle, 2000, cells.Options{
			Seed: cfg.seed, MaxRegionsPerCell: capR,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		var sum float64
		count := 0
		for _, w := range queries {
			if _, dist, err := approx.Query(w); err == nil && dist > 0 {
				sum += dist
				count++
			}
		}
		mean := math.NaN()
		if count > 0 {
			mean = sum / float64(count)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", capR),
			fmt.Sprintf("%d", approx.MarkStats.Marked),
			fmt.Sprintf("%d", approx.MarkStats.Capped),
			fmtDur(elapsed),
			fmt.Sprintf("%.4f", mean),
		})
	}
	table([]string{"cap", "marked", "capped", "preprocess time", "mean suggestion θ"}, rows)
}

// runAblWorkers measures parallel MARKCELL scaling (cells are independent).
func runAblWorkers(cfg config) {
	n := 100
	if cfg.full {
		n = 200
	}
	full := compas(n, 7, cfg.seed)
	ds, err := full.Project("start", "c_days_from_compas", "juv_other_count")
	if err != nil {
		log.Fatal(err)
	}
	oracle := defaultOracle(ds)
	rows := [][]string{}
	var serial time.Duration
	for _, workers := range []int{1, 2, 4, 8} {
		start := time.Now()
		approx, err := cells.Preprocess(ds, oracle, 3000, cells.Options{
			Seed: cfg.seed, MaxRegionsPerCell: 128, Workers: workers,
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := approx.Times.Mark
		if workers == 1 {
			serial = elapsed
		}
		_ = start
		rows = append(rows, []string{
			fmt.Sprintf("%d", workers),
			fmtDur(elapsed),
			fmt.Sprintf("%.2f×", float64(serial)/float64(elapsed)),
			fmt.Sprintf("%d", approx.MarkStats.Marked),
		})
	}
	table([]string{"workers", "MARKCELL time", "speedup", "marked"}, rows)
}

// runAblRefine compares plain MDONLINE against the neighbor-refined lookup.
func runAblRefine(cfg config) {
	n := 100
	if cfg.full {
		n = 200
	}
	full := compas(n, 7, cfg.seed)
	ds, err := full.Project("start", "c_days_from_compas", "juv_other_count")
	if err != nil {
		log.Fatal(err)
	}
	oracle := defaultOracle(ds)
	approx, err := cells.Preprocess(ds, oracle, 2000, cells.Options{
		Seed: cfg.seed, MaxRegionsPerCell: 128,
	})
	if err != nil {
		log.Fatal(err)
	}
	if !approx.Satisfiable() {
		fmt.Println("instance unsatisfiable; nothing to compare")
		return
	}
	r := rand.New(rand.NewSource(cfg.seed + 11))
	var plainSum, refinedSum float64
	improved, count := 0, 0
	for q := 0; q < 200; q++ {
		w := randomWeights(r, 3)
		_, dPlain, err1 := approx.Query(w)
		_, dRefined, err2 := approx.QueryRefined(w)
		if err1 != nil || err2 != nil || dPlain == 0 {
			continue
		}
		count++
		plainSum += dPlain
		refinedSum += dRefined
		if dRefined < dPlain-1e-12 {
			improved++
		}
	}
	if count == 0 {
		fmt.Println("no unsatisfactory queries drawn")
		return
	}
	table([]string{"lookup", "mean suggestion θ", "improved queries"}, [][]string{
		{"MDONLINE (Alg. 11)", fmt.Sprintf("%.4f", plainSum/float64(count)), ""},
		{"neighbor-refined", fmt.Sprintf("%.4f", refinedSum/float64(count)), fmt.Sprintf("%d/%d", improved, count)},
	})
}
