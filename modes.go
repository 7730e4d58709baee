package fairrank

import (
	"errors"
	"fmt"
	"io"

	"fairrank/internal/cells"
	"fairrank/internal/core"
	"fairrank/internal/engine"
	"fairrank/internal/flatidx"
	"fairrank/internal/twod"
)

// This file is the one place engine-mode dispatch lives. Everything above it
// — the Designer's query methods, the batch fan-out, persistence, the
// serving registry and the HTTP API — talks to engine.Engine and never
// branches on Mode; adding an engine means adding a case to the two
// constructors below and nothing else.

// buildEngine runs a concrete mode's offline phase over the dataset and
// wraps the resulting index in its engine adapter.
func buildEngine(mode Mode, ds *Dataset, oracle Oracle, cfg Config) (engine.Engine, error) {
	switch mode {
	case Mode2D:
		if ds.D() != 2 {
			return nil, fmt.Errorf("fairrank: Mode2D requires 2 scoring attributes, dataset has %d", ds.D())
		}
		idx, err := twod.RaySweep(ds, oracle, twod.Options{Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
		return twod.NewEngine(idx), nil
	case ModeExact:
		idx, err := core.SatRegions(ds, oracle, core.Options{
			UseTree:        !cfg.DisableArrangementTree,
			MaxHyperplanes: cfg.MaxHyperplanes,
			Seed:           cfg.Seed,
			PruneTopK:      cfg.PruneTopK,
			Workers:        cfg.Workers,
			// Adjacency-ordered incremental labeling is exact in 2D, where
			// angle-space hyperplanes coincide with the exchange angles.
			IncrementalLabeling: ds.D() == 2,
		})
		if err != nil {
			return nil, err
		}
		return core.NewEngine(idx), nil
	case ModeApprox:
		n := cfg.Cells
		if n <= 0 {
			n = 10000
		}
		cap := cfg.CellRegionCap
		switch {
		case cap == 0:
			cap = 512
		case cap < 0:
			cap = 0 // unlimited
		}
		idx, err := cells.Preprocess(ds, oracle, n, cells.Options{
			Seed:              cfg.Seed,
			PruneTopK:         cfg.PruneTopK,
			MaxHyperplanes:    cfg.MaxHyperplanes,
			MaxRegionsPerCell: cap,
			Workers:           cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		return cells.NewEngine(idx, cfg.RefineQueries), nil
	default:
		return nil, fmt.Errorf("fairrank: unknown mode %v", mode)
	}
}

// loadEngine reconstructs a mode's engine adapter from a persisted flat
// payload (the universal header has already been read and validated).
// Payload damage — bad checksums, truncated sections, implausible slab
// shapes — surfaces as ErrCorruptIndex.
func loadEngine(mode Mode, r io.Reader, ds *Dataset, oracle Oracle, refine bool) (engine.Engine, error) {
	var (
		eng engine.Engine
		err error
	)
	switch mode {
	case Mode2D:
		var idx *twod.Index
		if idx, err = twod.LoadIndex(r); err == nil {
			eng = twod.NewEngine(idx)
		}
	case ModeExact:
		var idx *core.MDIndex
		if idx, err = core.LoadIndex(r, ds, oracle); err == nil {
			eng = core.NewEngine(idx)
		}
	case ModeApprox:
		var a *cells.Approx
		if a, err = cells.LoadIndex(r, ds, oracle); err == nil {
			eng = cells.NewEngine(a, refine)
		}
	default:
		return nil, fmt.Errorf("fairrank: unknown mode %v", mode)
	}
	if errors.Is(err, flatidx.ErrCorrupt) {
		return nil, fmt.Errorf("%w: %v", ErrCorruptIndex, err)
	}
	return eng, err
}
