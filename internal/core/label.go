package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// resolveLabelWorkers maps an Options.Workers value to an effective worker
// count, clamped to the number of independent work units.
func resolveLabelWorkers(workers, units int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	if workers > units {
		workers = units
	}
	return workers
}

// labelRegionsByWitness labels every region by ranking the dataset at the
// region's witness, only as far as the oracle reads, and asking the oracle —
// the plain SATREGIONS labeling pass. Regions are independent, so the loop
// fans out across workers; every region's verdict depends only on its own
// witness, making the labels identical for any worker count.
func labelRegionsByWitness(idx *MDIndex, counter *fairness.Counter, workers int) error {
	regions := idx.Arr.Regions()
	workers = resolveLabelWorkers(workers, len(regions))
	need := fairness.Reads(idx.Oracle)
	var next atomic.Int64
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var bufs ranking.Buffers
			wv := make(geom.Vector, idx.DS.D())
			for {
				r := int(next.Add(1)) - 1
				if r >= len(regions) {
					return
				}
				reg := regions[r]
				geom.Angles(reg.Witness).ToCartesianInto(1, wv)
				order, err := bufs.Rank(idx.DS, wv, need)
				if err != nil {
					errs[w] = err
					return
				}
				reg.Satisfactory = counter.Check(order)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
