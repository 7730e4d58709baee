package main

import (
	"fmt"
	"log"
	"math/rand"
	"sort"
	"time"

	"fairrank/internal/cells"
	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

func init() {
	register("dot", "§6.4: sampling for large-scale settings on the DOT flight data", runDOT)
}

// bigFourOracleFor builds the §6.4 oracle: each of DL, AA, WN, UA may hold
// at most its dataset share + 5% of the top 10%.
func bigFourOracleFor(ds *dataset.Dataset) fairness.Oracle {
	var all fairness.All
	for _, carrier := range []string{"DL", "AA", "WN", "UA"} {
		o, err := fairness.MaxShare(ds, "airline_name", carrier, 0.10, 0.05)
		if err != nil {
			log.Fatal(err)
		}
		all = append(all, o)
	}
	return all
}

// runDOT reproduces the §6.4 experiment: preprocess a 1,000-record uniform
// sample of the (1.32M-record) DOT dataset, then check on the full dataset
// whether the function assigned to every cell is still satisfactory.
// The paper: preprocessing took 1,276s (N=40,000) and all assigned
// functions were satisfactory on the full data.
func runDOT(cfg config) {
	n, cellsN, capR := 200000, 2000, 256
	if cfg.full {
		n, cellsN, capR = datagen.DOTN, 40000, 0
	}
	start := time.Now()
	raw, err := datagen.DOT(n, cfg.seed)
	if err != nil {
		log.Fatal(err)
	}
	ds, err := raw.Normalize(datagen.DOTScoring...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d flights in %v\n", ds.N(), fmtDur(time.Since(start)))

	sample, _, err := ds.Sample(1000, rand.New(rand.NewSource(cfg.seed+1)))
	if err != nil {
		log.Fatal(err)
	}
	sampleOracle := bigFourOracleFor(sample)

	start = time.Now()
	approx, err := cells.Preprocess(sample, sampleOracle, cellsN, cells.Options{
		Seed:              cfg.seed,
		MaxRegionsPerCell: capR,
		PruneTopK:         100, // the oracle inspects the top 10% of the sample
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessed the 1,000-record sample in %v (paper: 1,276s at N=40,000 in Python)\n",
		fmtDur(time.Since(start)))
	fmt.Printf("cells: %d, marked: %d, colored: %d\n",
		approx.Grid.NumCells(), approx.MarkStats.Marked, approx.ColorStats.Colored)

	// Validation: distinct assigned functions, checked on the full data.
	fullOracle := bigFourOracleFor(ds)
	type key string
	distinct := map[key]geom.Angles{}
	for _, c := range approx.Grid.Cells {
		if c.F != nil {
			distinct[key(fmt.Sprintf("%.9v", c.F))] = c.F
		}
	}
	// Validating every distinct function means a full ranking of the big
	// dataset per function; cap the reduced run at 300 (deterministic
	// subset) and report the coverage.
	maxValidate := 300
	if cfg.full {
		maxValidate = len(distinct)
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, string(k))
	}
	sort.Strings(keys)
	if len(keys) > maxValidate {
		stride := len(keys) / maxValidate
		sampled := make([]string, 0, maxValidate)
		for i := 0; i < len(keys); i += stride {
			sampled = append(sampled, keys[i])
		}
		keys = sampled
	}
	need := fairness.Reads(fullOracle)
	var bufs ranking.Buffers
	satisfied, total := 0, 0
	for _, k := range keys {
		f := distinct[key(k)]
		order, err := bufs.Rank(ds, f.ToCartesian(1), need)
		if err != nil {
			log.Fatal(err)
		}
		total++
		if fullOracle.Check(order) {
			satisfied++
		}
	}
	fmt.Printf("assigned functions checked on the FULL dataset: %d distinct, %d validated, %d/%d satisfactory (paper: all)\n",
		len(distinct), total, satisfied, total)
}
