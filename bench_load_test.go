// Index load and handoff-activation benchmarks across all three engines,
// over the flat zero-copy payload. CI runs these with -bench
// 'BenchmarkIndexLoad|BenchmarkHandoffActivate' and converts the output to
// BENCH_load.json (cmd/benchjson), so the cold start and handoff latency
// trajectory is tracked across changes. All loads report MB/s via b.SetBytes
// for direct payload-size context.
package fairrank_test

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"fairrank"
	"fairrank/internal/datagen"
)

// loadFixture is one mode's serialized index, plus the dataset/oracle needed
// to reload it and one fair-ish query to force post-load activation work in
// the handoff benchmarks.
type loadFixture struct {
	ds     *fairrank.Dataset
	oracle fairrank.Oracle
	flat   []byte
	query  []float64
}

var (
	loadFixtures   = map[fairrank.Mode]*loadFixture{}
	loadFixturesMu sync.Mutex
)

// loadFixtureFor builds the mode's designer once per process (the exact
// engine's offline phase is too slow to rebuild per b.N probe) and captures
// its index stream. The exact fixture uses n = 2000 points — large witness
// and side slabs — with a hyperplane cap so the arrangement build stays tractable while the serialized index is
// dominated by per-region data, which is what load time is about.
func loadFixtureFor(b *testing.B, mode fairrank.Mode) *loadFixture {
	b.Helper()
	loadFixturesMu.Lock()
	defer loadFixturesMu.Unlock()
	if fx, ok := loadFixtures[mode]; ok {
		if fx == nil {
			b.Skip("unsatisfiable instance")
		}
		return fx
	}
	var (
		n, d int
		cfg  fairrank.Config
	)
	switch mode {
	case fairrank.Mode2D:
		n, d = 2000, 2
		cfg = fairrank.Config{Mode: mode, Workers: -1}
	case fairrank.ModeExact:
		n, d = 2000, 2
		cfg = fairrank.Config{Mode: mode, MaxHyperplanes: 400, Workers: -1}
	case fairrank.ModeApprox:
		n, d = 1000, 3
		cfg = fairrank.Config{Mode: mode, Cells: 20000, MaxHyperplanes: 1500, Workers: -1}
	}
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 17)
	if err != nil {
		b.Fatal(err)
	}
	oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		b.Fatal(err)
	}
	designer, err := fairrank.NewDesigner(ds, oracle, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !designer.Satisfiable() {
		loadFixtures[mode] = nil
		b.Skip("unsatisfiable instance")
	}
	var flat bytes.Buffer
	if err := designer.SaveIndex(&flat); err != nil {
		b.Fatal(err)
	}
	query := make([]float64, d)
	for j := range query {
		query[j] = 1 / math.Sqrt(float64(d))
	}
	fx := &loadFixture{ds: ds, oracle: oracle, flat: flat.Bytes(), query: query}
	loadFixtures[mode] = fx
	return fx
}

// benchIndexLoad measures a full LoadDesigner over the serialized stream:
// header parse, payload decode (zero-copy slab aliasing), and engine
// construction.
func benchIndexLoad(b *testing.B, mode fairrank.Mode) {
	fx := loadFixtureFor(b, mode)
	b.SetBytes(int64(len(fx.flat)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fairrank.LoadDesigner(bytes.NewReader(fx.flat), fx.ds, fx.oracle); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHandoffActivate measures what a node pays between receiving a handoff
// stream and serving its first query from it: decode plus one Suggest.
func benchHandoffActivate(b *testing.B, mode fairrank.Mode) {
	fx := loadFixtureFor(b, mode)
	b.SetBytes(int64(len(fx.flat)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fairrank.LoadDesigner(bytes.NewReader(fx.flat), fx.ds, fx.oracle)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Suggest(fx.query); err != nil {
			b.Fatal(err)
		}
	}
}

// The Flat suffixes keep the names the committed BENCH_load.json baselines
// are recorded under.
func BenchmarkIndexLoad2DFlat(b *testing.B)     { benchIndexLoad(b, fairrank.Mode2D) }
func BenchmarkIndexLoadExactFlat(b *testing.B)  { benchIndexLoad(b, fairrank.ModeExact) }
func BenchmarkIndexLoadApproxFlat(b *testing.B) { benchIndexLoad(b, fairrank.ModeApprox) }

func BenchmarkHandoffActivate2D(b *testing.B)     { benchHandoffActivate(b, fairrank.Mode2D) }
func BenchmarkHandoffActivateExact(b *testing.B)  { benchHandoffActivate(b, fairrank.ModeExact) }
func BenchmarkHandoffActivateApprox(b *testing.B) { benchHandoffActivate(b, fairrank.ModeApprox) }
