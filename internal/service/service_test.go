package service

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"
)

// fakeEngine answers every query with a fixed tag so tests can observe which
// engine generation served them.
type fakeEngine struct {
	tag  float64
	mode string
}

func (f *fakeEngine) Suggest(w []float64) (*Suggestion, error) {
	if len(w) == 0 {
		return nil, errors.New("empty query")
	}
	return &Suggestion{Weights: []float64{f.tag}, Distance: f.tag}, nil
}

func (f *fakeEngine) SuggestBatch(_ context.Context, ws [][]float64) []Result {
	out := make([]Result, len(ws))
	for i, w := range ws {
		out[i].Suggestion, out[i].Err = f.Suggest(w)
	}
	return out
}

func (f *fakeEngine) ModeName() string          { return f.mode }
func (f *fakeEngine) SaveIndex(io.Writer) error { return nil }

func ctxWithTimeout(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestRegistryBuildLifecycle(t *testing.T) {
	r := NewRegistry()
	release := make(chan struct{})
	entry, err := r.Create("d1", func() (Engine, error) {
		<-release
		return &fakeEngine{tag: 1, mode: "2d"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := entry.Status(); st.Status != StatusBuilding {
		t.Fatalf("status before build finishes = %v", st.Status)
	}
	if _, err := entry.Suggest([]float64{1}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("suggest before ready: %v", err)
	}
	close(release)
	if err := entry.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
	st := entry.Status()
	if st.Status != StatusReady || st.Mode != "2d" {
		t.Fatalf("status after build = %+v", st)
	}
	s, err := entry.Suggest([]float64{1})
	if err != nil || s.Weights[0] != 1 {
		t.Fatalf("suggest = %v, %v", s, err)
	}
}

func TestRegistryBuildFailure(t *testing.T) {
	r := NewRegistry()
	entry, err := r.Create("bad", func() (Engine, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := entry.WaitReady(ctxWithTimeout(t)); err == nil {
		t.Fatal("WaitReady should surface the build error")
	}
	st := entry.Status()
	if st.Status != StatusFailed || st.Error == "" {
		t.Fatalf("status after failed build = %+v", st)
	}
	if _, err := entry.Suggest([]float64{1}); !errors.Is(err, ErrNotReady) {
		t.Fatalf("suggest after failed build: %v", err)
	}
}

func TestRegistryDuplicateAndLookup(t *testing.T) {
	r := NewRegistry()
	if _, err := r.Create("x", func() (Engine, error) { return &fakeEngine{}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("x", func() (Engine, error) { return &fakeEngine{}, nil }); err == nil {
		t.Fatal("duplicate name should error")
	}
	if _, err := r.CreateReady("y", &fakeEngine{mode: "approx"}, func() (Engine, error) { return &fakeEngine{}, nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("y"); !ok {
		t.Fatal("Get(y) failed")
	}
	if names := r.Names(); len(names) != 2 || names[0] != "x" || names[1] != "y" {
		t.Fatalf("Names = %v", names)
	}
}

// A rebuild must keep the old engine serving until the new one swaps in, and
// a failed rebuild must not disturb the serving engine.
func TestRebuildSwapAndFailure(t *testing.T) {
	r := NewRegistry()
	entry, err := r.CreateReady("d", &fakeEngine{tag: 1, mode: "2d"}, nil)
	if err == nil {
		t.Fatal("CreateReady without build function should error (rebuilds need it)")
	}
	gen := 1.0
	var mu sync.Mutex
	release := make(chan struct{})
	entry, err = r.CreateReady("d", &fakeEngine{tag: 1, mode: "2d"}, func() (Engine, error) {
		<-release
		mu.Lock()
		defer mu.Unlock()
		gen++
		return &fakeEngine{tag: gen, mode: "2d"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := entry.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := entry.Rebuild(); !errors.Is(err, ErrBuildInProgress) {
		t.Fatalf("second rebuild: %v", err)
	}
	// Old engine still serving mid-rebuild.
	if s, err := entry.Suggest([]float64{1}); err != nil || s.Weights[0] != 1 {
		t.Fatalf("mid-rebuild suggest = %v, %v", s, err)
	}
	if st := entry.Status(); st.Status != StatusRebuilding {
		t.Fatalf("mid-rebuild status = %v", st.Status)
	}
	close(release)
	if err := entry.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
	if s, _ := entry.Suggest([]float64{1}); s.Weights[0] != 2 {
		t.Fatalf("post-rebuild suggest served generation %v, want 2", s.Weights[0])
	}
	if st := entry.Status(); st.Rebuilds != 1 {
		t.Fatalf("rebuilds = %d", st.Rebuilds)
	}
}

func TestRevalidateTriggersRebuild(t *testing.T) {
	r := NewRegistry()
	builds := 0
	var mu sync.Mutex
	entry, err := r.CreateReady("d", &fakeEngine{tag: 1, mode: "2d"}, func() (Engine, error) {
		mu.Lock()
		defer mu.Unlock()
		builds++
		return &fakeEngine{tag: 10, mode: "2d"}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	healthy, detail, err := entry.Revalidate(func(Engine) (bool, string, error) {
		return true, "all intervals hold", nil
	})
	if err != nil || !healthy || detail == "" {
		t.Fatalf("healthy revalidate = %v %q %v", healthy, detail, err)
	}
	mu.Lock()
	if builds != 0 {
		t.Fatal("healthy revalidate must not rebuild")
	}
	mu.Unlock()
	healthy, _, err = entry.Revalidate(func(Engine) (bool, string, error) {
		return false, "3 intervals violated", nil
	})
	if err != nil || healthy {
		t.Fatalf("drifted revalidate = %v %v", healthy, err)
	}
	if err := entry.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if builds != 1 {
		t.Fatalf("builds after drifted revalidate = %d", builds)
	}
	mu.Unlock()
	if s, _ := entry.Suggest([]float64{1}); s.Weights[0] != 10 {
		t.Fatalf("rebuilt engine not swapped in: tag %v", s.Weights[0])
	}
}

func TestMetricsCounts(t *testing.T) {
	r := NewRegistry()
	entry, err := r.CreateReady("d", &fakeEngine{tag: 1}, func() (Engine, error) { return &fakeEngine{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		entry.Suggest([]float64{1})
	}
	entry.Suggest(nil) // error path
	if _, err := entry.SuggestBatch([][]float64{{1}, {2}, nil}); err != nil {
		t.Fatal(err)
	}
	m := entry.Status().Metrics
	if m.Queries != 6 || m.Batches != 1 || m.BatchQueries != 3 {
		t.Fatalf("counts = %+v", m)
	}
	if m.Errors != 2 {
		t.Fatalf("errors = %d, want 2 (one single, one batch slot)", m.Errors)
	}
	var histTotal int64
	for _, b := range m.LatencyBuckets {
		histTotal += b.Count
	}
	if histTotal != 9 {
		t.Fatalf("histogram total = %d, want 9 observations", histTotal)
	}
	if m.LatencyMeanNs < 0 {
		t.Fatalf("mean = %d", m.LatencyMeanNs)
	}
}

// countingEngine counts Suggest calls that actually reach the engine, so the
// cache tier's short-circuiting is observable.
type countingEngine struct {
	fakeEngine
	calls int64
}

func (c *countingEngine) Suggest(w []float64) (*Suggestion, error) {
	c.calls++
	// Answer like a real engine: the suggestion preserves the query's
	// magnitude (here trivially, by echoing the query).
	return &Suggestion{Weights: append([]float64(nil), w...), Distance: 0.25}, nil
}

// SuggestBatch counts per slot, so tests can observe which batch slots the
// cache consult kept away from the engine kernel.
func (c *countingEngine) SuggestBatch(_ context.Context, ws [][]float64) []Result {
	out := make([]Result, len(ws))
	for i, w := range ws {
		out[i].Suggestion, out[i].Err = c.Suggest(w)
	}
	return out
}

// The cache tier: repeated Suggest queries to the same direction are served
// from the memo cache (hit/miss counters in the metrics), scaled queries on
// the same ray hit too, and an engine swap invalidates everything.
func TestSuggestCache(t *testing.T) {
	r := NewRegistry()
	eng := &countingEngine{fakeEngine: fakeEngine{mode: "2d"}}
	rebuilt := &countingEngine{fakeEngine: fakeEngine{mode: "2d"}}
	entry, err := r.CreateReady("d", eng, func() (Engine, error) { return rebuilt, nil })
	if err != nil {
		t.Fatal(err)
	}
	q := []float64{0.6, 0.8}
	s1, err := entry.Suggest(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := entry.Suggest(q)
	if err != nil {
		t.Fatal(err)
	}
	if eng.calls != 1 {
		t.Fatalf("engine calls = %d, want 1 (second query cached)", eng.calls)
	}
	if s2.Distance != s1.Distance || len(s2.Weights) != len(s1.Weights) {
		t.Fatalf("cached answer diverged: %+v vs %+v", s2, s1)
	}
	for i := range s2.Weights {
		if s2.Weights[i] != s1.Weights[i] {
			t.Fatalf("exact-repeat hit must be bit-identical: %v vs %v", s2.Weights, s1.Weights)
		}
	}
	// Same ray at twice the magnitude: a hit, scaled back up.
	s3, err := entry.Suggest([]float64{1.2, 1.6})
	if err != nil {
		t.Fatal(err)
	}
	if eng.calls != 1 {
		t.Fatalf("engine calls = %d, want 1 (scaled query should hit)", eng.calls)
	}
	for i := range s3.Weights {
		if got, want := s3.Weights[i], 2*s1.Weights[i]; got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("scaled hit weights = %v, want 2x %v", s3.Weights, s1.Weights)
		}
	}
	// A different direction misses.
	if _, err := entry.Suggest([]float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	if eng.calls != 2 {
		t.Fatalf("engine calls = %d, want 2 (new direction misses)", eng.calls)
	}
	m := entry.Status().Metrics
	if m.CacheHits != 2 || m.CacheMisses != 2 {
		t.Fatalf("cache counters = %d hits / %d misses, want 2/2", m.CacheHits, m.CacheMisses)
	}
	if m.Queries != 4 {
		t.Fatalf("queries = %d, want 4 (hits count as served)", m.Queries)
	}
	gen := entry.Status().Generation
	// Swap the engine: the cache must be invalidated.
	if err := entry.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := entry.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
	if got := entry.Status().Generation; got != gen+1 {
		t.Fatalf("generation after rebuild = %d, want %d", got, gen+1)
	}
	if _, err := entry.Suggest(q); err != nil {
		t.Fatal(err)
	}
	if rebuilt.calls != 1 {
		t.Fatalf("rebuilt engine calls = %d, want 1 (swap must invalidate the cache)", rebuilt.calls)
	}
}

// SuggestBatch consults the Suggest memo cache per unit direction before
// hitting the engine kernel: known directions answer from the cache (counted
// in cache_hits), only misses reach the engine, and the consult is read-only
// so bulk batches never pollute the first-come table.
func TestSuggestBatchConsultsCache(t *testing.T) {
	r := NewRegistry()
	eng := &countingEngine{fakeEngine: fakeEngine{mode: "2d"}}
	entry, err := r.CreateReady("d", eng, func() (Engine, error) { return eng, nil })
	if err != nil {
		t.Fatal(err)
	}
	q1, q2 := []float64{0.6, 0.8}, []float64{1, 0}
	// Empty cache: every slot reaches the engine, and nothing is inserted —
	// running the same batch twice costs the engine twice.
	for rep := 0; rep < 2; rep++ {
		if _, err := entry.SuggestBatch([][]float64{q1, q2}); err != nil {
			t.Fatal(err)
		}
	}
	if eng.calls != 4 {
		t.Fatalf("engine slots after two cold batches = %d, want 4 (batch misses must not insert)", eng.calls)
	}
	// The single-query path populates the cache for q1's direction…
	want, err := entry.Suggest(q1)
	if err != nil {
		t.Fatal(err)
	}
	if eng.calls != 5 {
		t.Fatalf("engine calls after Suggest = %d, want 5", eng.calls)
	}
	// …and the next batch hits for that direction — exact repeat and scaled
	// ray alike — while the unknown direction still reaches the engine.
	res, err := entry.SuggestBatch([][]float64{q1, {1.2, 1.6}, q2})
	if err != nil {
		t.Fatal(err)
	}
	if eng.calls != 6 {
		t.Fatalf("engine slots after warm batch = %d, want 6 (two hits, one miss)", eng.calls)
	}
	for i := range want.Weights {
		if res[0].Suggestion.Weights[i] != want.Weights[i] {
			t.Fatalf("batch hit must be bit-identical to the cached answer: %v vs %v",
				res[0].Suggestion.Weights, want.Weights)
		}
		if got, w := res[1].Suggestion.Weights[i], 2*want.Weights[i]; got < w-1e-9 || got > w+1e-9 {
			t.Fatalf("scaled-ray batch hit = %v, want 2x %v", res[1].Suggestion.Weights, want.Weights)
		}
	}
	if res[2].Suggestion == nil || res[2].Err != nil {
		t.Fatalf("miss slot = %+v", res[2])
	}
	m := entry.Status().Metrics
	if m.CacheHits != 2 {
		t.Fatalf("cache_hits = %d, want 2 (batch hits count in the existing counter)", m.CacheHits)
	}
	if m.Batches != 3 || m.BatchQueries != 7 {
		t.Fatalf("batch counters = %d batches / %d queries, want 3/7", m.Batches, m.BatchQueries)
	}
}

// Registry-level enumeration and the per-shard metrics rollup: Stats must
// aggregate entry metrics (Merge recombining histograms and means) without
// disturbing them.
func TestRegistryLenAndStats(t *testing.T) {
	r := NewRegistry()
	if r.Len() != 0 {
		t.Fatalf("empty registry Len = %d", r.Len())
	}
	a, err := r.CreateReady("a", &fakeEngine{tag: 1, mode: "2d"}, func() (Engine, error) { return &fakeEngine{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.CreateReady("b", &fakeEngine{tag: 2, mode: "exact"}, func() (Engine, error) { return &fakeEngine{}, nil })
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if _, err := a.Suggest([]float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SuggestBatch([][]float64{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	stats := r.Stats()
	if stats.Designers != 2 || stats.ByStatus[StatusReady] != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Totals.Queries != 1 || stats.Totals.BatchQueries != 2 || stats.Totals.Batches != 1 {
		t.Fatalf("rolled-up totals = %+v", stats.Totals)
	}
	if got := bucketTotal(stats.Totals.LatencyBuckets); got != 3 {
		t.Fatalf("merged histogram holds %d observations, want 3", got)
	}
}

// Queries from many goroutines racing builds and rebuilds: exercised under
// -race in CI.
func TestConcurrentQueriesDuringRebuilds(t *testing.T) {
	r := NewRegistry()
	entry, err := r.CreateReady("d", &fakeEngine{tag: 1}, func() (Engine, error) {
		return &fakeEngine{tag: 2}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if s, err := entry.Suggest([]float64{1}); err != nil || s == nil {
					t.Errorf("suggest: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		entry.Rebuild()
	}
	wg.Wait()
	if err := entry.WaitReady(ctxWithTimeout(t)); err != nil {
		t.Fatal(err)
	}
}
