// Batch-kernel benchmarks across all three engines: the per-call Suggest
// loop vs the amortized SuggestBatch arena kernels. CI runs these with
// -bench BenchmarkBatch and converts the output to BENCH_batch.json
// (cmd/benchjson), so the batch speedup of every engine — not just Mode2D —
// is tracked across PRs. All benchmarks report ns/query for direct
// comparison.
package fairrank_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fairrank"
	"fairrank/internal/datagen"
)

// batchFixture is one mode's designer plus a mixed fair/unfair query
// workload. Fixtures are built once per process (the exact engine's offline
// phase is too slow to rebuild per b.N probe).
type batchFixture struct {
	d       *fairrank.Designer
	queries [][]float64
}

var (
	batchFixtures   = map[fairrank.Mode]*batchFixture{}
	batchFixturesMu sync.Mutex
)

func batchFixtureFor(b *testing.B, mode fairrank.Mode) *batchFixture {
	b.Helper()
	batchFixturesMu.Lock()
	defer batchFixturesMu.Unlock()
	if fx, ok := batchFixtures[mode]; ok {
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
		n, d = 400, 2
		cfg = fairrank.Config{Mode: mode, Workers: -1}
	case fairrank.ModeExact:
		n, d = 300, 2
		cfg = fairrank.Config{Mode: mode, MaxHyperplanes: 400, Workers: -1}
	case fairrank.ModeApprox:
		n, d = 250, 3
		cfg = fairrank.Config{Mode: mode, Cells: 800, MaxHyperplanes: 1500, Workers: -1}
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
		batchFixtures[mode] = nil
		b.Skip("unsatisfiable instance")
	}
	r := rand.New(rand.NewSource(23))
	randomQuery := func() []float64 {
		w := make([]float64, d)
		var norm float64
		for j := range w {
			w[j] = r.Float64() + 1e-3
			norm += w[j] * w[j]
		}
		norm = math.Sqrt(norm)
		for j := range w {
			w[j] /= norm
		}
		return w
	}
	queries := make([][]float64, 0, 512)
	if mode == fairrank.ModeExact {
		// Fair-only workload for the exact engine: its batch kernel differs
		// from the scalar path only in the fairness check (shared partial-
		// order buffers vs a fresh full sort per call); unfair queries fall
		// through to the same per-region NLP solves either way, whose
		// millisecond-scale variance would drown the signal.
		for tries := 0; len(queries) < 512 && tries < 100000; tries++ {
			w := randomQuery()
			if fair, err := designer.IsFair(w); err == nil && fair {
				queries = append(queries, w)
			}
		}
		if len(queries) == 0 {
			batchFixtures[mode] = nil
			b.Skip("no fair queries found")
		}
		for i := 0; len(queries) < 512; i++ {
			queries = append(queries, queries[i])
		}
	} else {
		for len(queries) < 512 {
			queries = append(queries, randomQuery())
		}
	}
	fx := &batchFixture{d: designer, queries: queries}
	batchFixtures[mode] = fx
	return fx
}

func benchSuggestLoop(b *testing.B, mode fairrank.Mode) {
	fx := batchFixtureFor(b, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.d.Suggest(fx.queries[i%len(fx.queries)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/query")
}

func benchSuggestBatch(b *testing.B, mode fairrank.Mode) {
	fx := batchFixtureFor(b, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range fx.d.SuggestBatch(fx.queries) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fx.queries)), "ns/query")
}

// clusteredQueries builds size unique queries packed around a few hot
// directions — the realistic "everyone tweaks the same popular weighting"
// shape. Unique bit patterns (no dedup win), but angular neighbors: the
// planner's locality sort keeps each d > 2 chunk's restricted ranking small.
func clusteredQueries(d, size int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	centers := []float64{0.15, 0.7, 1.2}
	out := make([][]float64, size)
	for i := range out {
		theta := centers[i%len(centers)] + 0.015*r.NormFloat64()
		theta = math.Min(math.Max(theta, 0.001), math.Pi/2-0.001)
		w := make([]float64, d)
		w[0] = math.Cos(theta)
		w[1] = math.Sin(theta)
		for j := 2; j < d; j++ {
			w[j] = 0.3 + 0.001*r.Float64()
		}
		out[i] = w
	}
	return out
}

// hotspotQueries builds size slots drawn from a pool of uniq exact duplicate
// vectors (dup rate 1 − uniq/size) — the cache-miss traffic a service sees
// when many clients probe the same handful of directions. The planner's
// dedup answers each unique direction once and fans the answer out.
func hotspotQueries(d, size, uniq int, seed int64) [][]float64 {
	r := rand.New(rand.NewSource(seed))
	pool := make([][]float64, uniq)
	for i := range pool {
		w := make([]float64, d)
		var norm float64
		for j := range w {
			w[j] = r.Float64() + 1e-3
			norm += w[j] * w[j]
		}
		norm = math.Sqrt(norm)
		for j := range w {
			w[j] /= norm
		}
		pool[i] = w
	}
	out := make([][]float64, size)
	for i := range out {
		out[i] = pool[r.Intn(uniq)]
	}
	return out
}

// benchSuggestBatchWith is benchSuggestBatch over a caller-supplied workload
// against the shared fixture designer (planner EWMAs stay warm across
// iterations, as they would in a serving process).
func benchSuggestBatchWith(b *testing.B, mode fairrank.Mode, queries [][]float64) {
	fx := batchFixtureFor(b, mode)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, res := range fx.d.SuggestBatch(queries) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(queries)), "ns/query")
}

func BenchmarkBatch2DSuggest(b *testing.B)          { benchSuggestLoop(b, fairrank.Mode2D) }
func BenchmarkBatch2DSuggestBatch(b *testing.B)     { benchSuggestBatch(b, fairrank.Mode2D) }
func BenchmarkBatchExactSuggest(b *testing.B)       { benchSuggestLoop(b, fairrank.ModeExact) }
func BenchmarkBatchExactSuggestBatch(b *testing.B)  { benchSuggestBatch(b, fairrank.ModeExact) }
func BenchmarkBatchApproxSuggest(b *testing.B)      { benchSuggestLoop(b, fairrank.ModeApprox) }
func BenchmarkBatchApproxSuggestBatch(b *testing.B) { benchSuggestBatch(b, fairrank.ModeApprox) }

func BenchmarkBatch2DSuggestBatchClustered(b *testing.B) {
	benchSuggestBatchWith(b, fairrank.Mode2D, clusteredQueries(2, 512, 7))
}
func BenchmarkBatch2DSuggestBatchHotspot(b *testing.B) {
	benchSuggestBatchWith(b, fairrank.Mode2D, hotspotQueries(2, 512, 8, 7))
}
func BenchmarkBatchApproxSuggestBatchClustered(b *testing.B) {
	benchSuggestBatchWith(b, fairrank.ModeApprox, clusteredQueries(3, 512, 7))
}
func BenchmarkBatchApproxSuggestBatchHotspot(b *testing.B) {
	benchSuggestBatchWith(b, fairrank.ModeApprox, hotspotQueries(3, 512, 8, 7))
}

// The exact hotspot draws its pool from the fixture's fair-only workload
// (same per-query kernel work as BenchmarkBatchExactSuggestBatch, so the two
// are directly comparable); an unfair pool would measure the NLP solver, not
// the batch path.
func BenchmarkBatchExactSuggestBatchHotspot(b *testing.B) {
	fx := batchFixtureFor(b, fairrank.ModeExact)
	r := rand.New(rand.NewSource(7))
	queries := make([][]float64, 512)
	for i := range queries {
		queries[i] = fx.queries[r.Intn(8)]
	}
	benchSuggestBatchWith(b, fairrank.ModeExact, queries)
}

var (
	approxMDOnce    sync.Once
	approxMDFixture *batchFixture
	approxMDBatches [][][]float64
	approxMDErr     error
)

// approxMDFixtureFor is explore-md's approx designer (n=1000, d=3, 4000
// cells, 200 hyperplanes, a top-20% oracle) plus a fixed corpus of 16
// explore-md-shaped batches: 256 directions each, drawn within about 5% per
// weight of a proposal, a quarter of them duplicates of others.
func approxMDFixtureFor(b *testing.B) (*batchFixture, [][][]float64) {
	b.Helper()
	approxMDOnce.Do(func() {
		ds, err := datagen.Biased(1000, 3, 0.5, 0.3, 1, 2019)
		if err != nil {
			approxMDErr = err
			return
		}
		oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
		if err != nil {
			approxMDErr = err
			return
		}
		designer, err := fairrank.NewDesigner(ds, oracle, fairrank.Config{Mode: fairrank.ModeApprox, Cells: 4000, MaxHyperplanes: 200, Workers: -1})
		if err != nil {
			approxMDErr = err
			return
		}
		r := rand.New(rand.NewSource(31))
		for len(approxMDBatches) < 16 {
			proposal := []float64{0.01 + r.Float64(), 0.01 + r.Float64(), 0.01 + r.Float64()}
			batch := make([][]float64, 256)
			for i := range batch {
				if i >= 192 {
					batch[i] = batch[r.Intn(192)]
					continue
				}
				batch[i] = make([]float64, 3)
				for j, w := range proposal {
					batch[i][j] = math.Max(0.01, w*(1+0.05*r.NormFloat64()))
				}
			}
			r.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
			approxMDBatches = append(approxMDBatches, batch)
		}
		approxMDFixture = &batchFixture{d: designer}
	})
	if approxMDErr != nil {
		b.Fatal(approxMDErr)
	}
	return approxMDFixture, approxMDBatches
}

// BenchmarkBatchApproxSuggestBatchMD answers the whole explore-md-shaped
// corpus per iteration, reported per query slot.
func BenchmarkBatchApproxSuggestBatchMD(b *testing.B) {
	fx, batches := approxMDFixtureFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, batch := range batches {
			for _, res := range fx.d.SuggestBatch(batch) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batches)*256), "ns/query")
}

var (
	exactMDOnce    sync.Once
	exactMDFixture *batchFixture
	exactMDErr     error
)

// exactMDFixtureFor is a d=3 exact designer at explore-md's index cap plus a
// fixed corpus of unfair queries: every one of them runs MDBASELINE's
// Frank–Wolfe solve per satisfactory region, the path the d=2, fair-only
// exact fixture above never reaches.
func exactMDFixtureFor(b *testing.B) *batchFixture {
	b.Helper()
	exactMDOnce.Do(func() {
		ds, err := datagen.Biased(1000, 3, 0.5, 0.3, 1, 17)
		if err != nil {
			exactMDErr = err
			return
		}
		oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
		if err != nil {
			exactMDErr = err
			return
		}
		designer, err := fairrank.NewDesigner(ds, oracle, fairrank.Config{Mode: fairrank.ModeExact, MaxHyperplanes: 40, Workers: -1})
		if err != nil {
			exactMDErr = err
			return
		}
		r := rand.New(rand.NewSource(29))
		var queries [][]float64
		for tries := 0; len(queries) < 32 && tries < 10000; tries++ {
			w := []float64{r.Float64() + 1e-3, r.Float64() + 1e-3, r.Float64() + 1e-3}
			if fair, err := designer.IsFair(w); err == nil && !fair {
				queries = append(queries, w)
			}
		}
		if len(queries) < 32 {
			exactMDErr = fmt.Errorf("found %d unfair queries, want 32", len(queries))
			return
		}
		exactMDFixture = &batchFixture{d: designer, queries: queries}
	})
	if exactMDErr != nil {
		b.Fatal(exactMDErr)
	}
	return exactMDFixture
}

// BenchmarkBatchExactSuggestMD answers the whole unfair d=3 corpus per
// iteration, so the per-direction spread of the solve (a few to tens of
// milliseconds) averages out of ns/query.
func BenchmarkBatchExactSuggestMD(b *testing.B) {
	fx := exactMDFixtureFor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range fx.queries {
			if _, err := fx.d.Suggest(q); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fx.queries)), "ns/query")
}
