// Package service is the concurrent query-serving subsystem behind
// fairrank.Server and cmd/fairrankd: a registry of named designers with
// lock-free atomic engine swap on the query path, background index builds
// with status reporting, and a drift-handling rebuild-and-swap loop.
//
// The package is deliberately independent of the public fairrank package
// (which wraps it): it serves anything implementing Engine, so the registry,
// metrics, and rebuild machinery can be tested and evolved without dragging
// the preprocessing pipelines along.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fairrank/internal/obs"
)

// Suggestion mirrors fairrank.Suggestion without importing it.
type Suggestion struct {
	Weights     []float64
	Distance    float64
	AlreadyFair bool
}

// Result is one slot of a batch answer: exactly one of Suggestion and Err is
// set.
type Result struct {
	Suggestion *Suggestion
	Err        error
}

// Engine is the query surface the registry serves: a preprocessed designer.
// Implementations must be safe for concurrent use — the registry fans
// queries out without additional locking.
type Engine interface {
	// Suggest answers one design query.
	Suggest(w []float64) (*Suggestion, error)
	// SuggestBatch answers many queries, amortizing per-call overhead. When
	// ctx carries an obs.Recorder, the engine records its own stages (the
	// batch planner and the kernel) on it.
	SuggestBatch(ctx context.Context, ws [][]float64) []Result
	// ModeName names the underlying engine ("2d", "exact", "approx").
	ModeName() string
	// SaveIndex serializes the engine's index for reuse across restarts.
	SaveIndex(w io.Writer) error
}

// BatchPlanner is an optional Engine capability: engines whose SuggestBatch
// runs through the adaptive batch planner report its decisions here, and
// Entry.Status folds them into the metrics snapshot (batch_dedup_rate and
// planned_chunk_size on /metrics).
type BatchPlanner interface {
	BatchPlanStats() BatchPlanStats
}

// BuildFunc builds (or rebuilds) an engine — the offline phase. It runs on a
// background goroutine owned by the registry.
type BuildFunc func() (Engine, error)

// Status is the lifecycle state of a registry entry.
type Status string

// Entry lifecycle states. A rebuilding entry keeps serving its previous
// engine until the new one swaps in.
const (
	StatusBuilding   Status = "building"
	StatusReady      Status = "ready"
	StatusRebuilding Status = "rebuilding"
	StatusFailed     Status = "failed"
	// StatusRemote is never held by a registry entry: shard layers report it
	// for designers whose spec is known locally but whose index lives on
	// another cluster member.
	StatusRemote Status = "remote"
)

// ErrNotReady is returned by query methods while the entry's first build is
// still running or has failed.
var ErrNotReady = errors.New("service: designer index not ready")

// ErrBuildInProgress is returned by Rebuild when a build is already running.
var ErrBuildInProgress = errors.New("service: build already in progress")

// ErrDuplicateName is returned by Create/CreateReady when the name is taken;
// HTTP layers map it to a conflict status.
var ErrDuplicateName = errors.New("service: name already registered")

// engineBox wraps the Engine interface so it can live in an atomic.Pointer.
type engineBox struct{ e Engine }

// Entry is one named designer in the registry. The query path reads the
// engine through a single atomic load; builds and rebuilds happen on
// background goroutines and swap the pointer when done.
type Entry struct {
	name   string
	build  BuildFunc
	engine atomic.Pointer[engineBox]

	// generation counts engine swaps; cache is the current generation's
	// Suggest memo table, atomically replaced (never mutated in place) on
	// every swap so cached answers cannot outlive their index.
	generation atomic.Uint64
	cache      atomic.Pointer[suggestCache]

	mu       sync.Mutex // guards status, buildErr, done, rebuilds
	status   Status
	buildErr error
	done     chan struct{} // closed when the in-flight build finishes
	rebuilds int

	metrics Metrics
}

// Registry is a read-write-locked collection of named entries. The lock
// covers only the name table; per-entry state has its own synchronization,
// so a slow build never blocks queries to other designers.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*Entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*Entry)}
}

// Create registers a new entry and starts its first build in the background.
// It returns the entry immediately; use WaitReady or Status to observe the
// build.
func (r *Registry) Create(name string, build BuildFunc) (*Entry, error) {
	return r.add(name, nil, build)
}

// CreateReady registers a new entry that already has an engine (typically
// loaded from a persisted index), skipping the initial build. The build
// function is kept for drift-triggered rebuilds.
func (r *Registry) CreateReady(name string, e Engine, build BuildFunc) (*Entry, error) {
	if e == nil {
		return nil, errors.New("service: CreateReady with nil engine")
	}
	return r.add(name, e, build)
}

// CreateReadyGen is CreateReady for an engine that already has a history: the
// entry's generation starts at gen instead of 1 (gen 0 behaves exactly like
// CreateReady). The cluster layer threads the generation an index was
// published under through handoffs and replica promotions, so a designer's
// generation stays monotone across ownership moves instead of resetting.
func (r *Registry) CreateReadyGen(name string, e Engine, build BuildFunc, gen uint64) (*Entry, error) {
	entry, err := r.CreateReady(name, e, build)
	if err == nil {
		entry.AdvanceGeneration(gen)
	}
	return entry, err
}

func (r *Registry) add(name string, e Engine, build BuildFunc) (*Entry, error) {
	if name == "" {
		return nil, errors.New("service: empty designer name")
	}
	if build == nil {
		return nil, errors.New("service: nil build function")
	}
	entry := &Entry{name: name, build: build}
	entry.cache.Store(newSuggestCache())
	if e != nil {
		entry.engine.Store(&engineBox{e: e})
		entry.generation.Add(1)
		entry.status = StatusReady
	} else {
		entry.status = StatusBuilding
		entry.done = make(chan struct{})
	}
	r.mu.Lock()
	if _, dup := r.entries[name]; dup {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: designer %q", ErrDuplicateName, name)
	}
	r.entries[name] = entry
	r.mu.Unlock()
	if entry.done != nil {
		go entry.runBuild(entry.done, build)
	}
	return entry, nil
}

// Remove drops the named entry, reporting whether it existed. Queries racing
// the removal finish against the entry they already hold; an in-flight build
// completes into the orphaned entry and is garbage collected with it. The
// cluster layer uses this to materialize designer tombstones and to demote
// indexes after an ownership handoff.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.entries[name]
	delete(r.entries, name)
	return ok
}

// Get returns the named entry.
func (r *Registry) Get(name string) (*Entry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Names returns the registered names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	r.mu.RUnlock()
	sort.Strings(names)
	return names
}

// Range calls f for every entry in name order, stopping when f returns
// false.
func (r *Registry) Range(f func(*Entry) bool) {
	for _, n := range r.Names() {
		if e, ok := r.Get(n); ok && !f(e) {
			return
		}
	}
}

// Len returns the number of registered entries.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// RegistryStats is an aggregate snapshot of one registry — the per-shard
// rollup a cluster status endpoint reports, so operators see where designers
// and traffic landed without walking every entry.
type RegistryStats struct {
	Designers int             `json:"designers"`
	ByStatus  map[Status]int  `json:"by_status,omitempty"`
	Rebuilds  int             `json:"rebuilds"`
	Totals    MetricsSnapshot `json:"totals"`
}

// Stats aggregates status counts and metrics across the registry's entries.
func (r *Registry) Stats() RegistryStats {
	stats := RegistryStats{ByStatus: make(map[Status]int)}
	r.Range(func(e *Entry) bool {
		info := e.Status()
		stats.Designers++
		stats.ByStatus[info.Status]++
		stats.Rebuilds += info.Rebuilds
		stats.Totals.Merge(info.Metrics)
		return true
	})
	if len(stats.ByStatus) == 0 {
		stats.ByStatus = nil
	}
	return stats
}

// SetBuild replaces the entry's build function; rebuilds started after the
// call use it. The drift loop uses this to repoint a designer at updated
// data before rebuilding.
func (e *Entry) SetBuild(build BuildFunc) {
	if build == nil {
		return
	}
	e.mu.Lock()
	e.build = build
	e.mu.Unlock()
}

// runBuild executes the given build function and publishes the result. On
// rebuild failure the previous engine keeps serving.
func (e *Entry) runBuild(done chan struct{}, build BuildFunc) {
	eng, err := build()
	e.mu.Lock()
	if err != nil {
		e.buildErr = err
		if e.engine.Load() == nil {
			e.status = StatusFailed
		} else {
			e.status = StatusReady // old engine still serving
		}
	} else {
		// Swap protocol, part 1 of 2 (part 2: Suggest loads cache before
		// engine): the engine MUST be stored before the fresh cache. If the
		// cache were stored first, a concurrent Suggest could load the new
		// cache, then the still-old engine, and memoize a stale answer into
		// the new generation.
		e.engine.Store(&engineBox{e: eng})
		e.generation.Add(1)
		e.cache.Store(newSuggestCache())
		e.buildErr = nil
		e.status = StatusReady
	}
	e.done = nil
	e.mu.Unlock()
	close(done)
}

// Rebuild starts a background rebuild; the current engine (if any) keeps
// serving until the new index atomically swaps in. Returns
// ErrBuildInProgress when a build is already running.
func (e *Entry) Rebuild() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.done != nil {
		return ErrBuildInProgress
	}
	if e.engine.Load() == nil {
		e.status = StatusBuilding
	} else {
		e.status = StatusRebuilding
	}
	e.rebuilds++
	e.done = make(chan struct{})
	go e.runBuild(e.done, e.build)
	return nil
}

// Patch derives a replacement engine from the currently serving one and
// swaps it in — the incremental-repair counterpart of Rebuild. apply receives
// the serving engine and returns its replacement; returning a nil engine with
// a nil error is a no-op (the current engine keeps serving, no generation
// bump, no cache flush). The call is synchronous: it claims the entry's
// single build slot, so a patch racing a background rebuild waits for the
// build to finish and then applies to the engine that won — apply must
// therefore derive everything from the engine it is handed, not from state
// captured before the call. On error the old engine keeps serving and the
// error is returned. Queries never block: they keep hitting the old engine
// until the atomic swap, exactly as during a rebuild.
func (e *Entry) Patch(apply func(Engine) (Engine, error)) error {
	for {
		e.mu.Lock()
		if e.done != nil {
			done := e.done
			e.mu.Unlock()
			<-done // a build owns the slot; wait for its swap, then retry
			continue
		}
		cur := e.engine.Load()
		if cur == nil {
			err := e.buildErr
			e.mu.Unlock()
			if err != nil {
				return fmt.Errorf("%w: build failed: %v", ErrNotReady, err)
			}
			return ErrNotReady
		}
		done := make(chan struct{})
		e.done = done
		e.status = StatusRebuilding
		e.mu.Unlock()

		eng, err := apply(cur.e)
		e.mu.Lock()
		if err == nil && eng != nil {
			// Same swap protocol as runBuild: engine before fresh cache, so a
			// concurrent Suggest can never memoize a pre-patch answer into the
			// post-patch generation.
			e.engine.Store(&engineBox{e: eng})
			e.generation.Add(1)
			e.cache.Store(newSuggestCache())
		}
		e.status = StatusReady
		e.done = nil
		e.mu.Unlock()
		close(done)
		return err
	}
}

// WaitReady blocks until the in-flight build (if any) completes or the
// context is done, then reports the entry's readiness: nil when an engine is
// serving, the build error or ErrNotReady otherwise.
func (e *Entry) WaitReady(ctx context.Context) error {
	for {
		e.mu.Lock()
		done := e.done
		e.mu.Unlock()
		if done == nil {
			if e.engine.Load() != nil {
				return nil
			}
			e.mu.Lock()
			err := e.buildErr
			e.mu.Unlock()
			if err != nil {
				return err
			}
			return ErrNotReady
		}
		select {
		case <-done:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Name returns the entry's registry name.
func (e *Entry) Name() string { return e.name }

// Generation returns the entry's engine-swap generation — the cache
// invalidation epoch reported in StatusInfo, read here without taking the
// status lock so cluster routing can consult it per request.
func (e *Entry) Generation() uint64 { return e.generation.Load() }

// AdvanceGeneration raises the generation to at least gen, never lowering
// it. Rebuilds keep bumping from the new value, so the counter stays
// monotone. The cluster layer uses this to stamp an index with the
// generation it was published under (handoff, replica promotion) and to
// push a rebuilt index's generation past a dead owner's last publication.
func (e *Entry) AdvanceGeneration(gen uint64) {
	for {
		cur := e.generation.Load()
		if cur >= gen || e.generation.CompareAndSwap(cur, gen) {
			return
		}
	}
}

// Engine returns the currently serving engine, or ErrNotReady (wrapping the
// build failure, when one happened) if none is available yet.
func (e *Entry) Engine() (Engine, error) {
	if box := e.engine.Load(); box != nil {
		return box.e, nil
	}
	e.mu.Lock()
	err := e.buildErr
	e.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("%w: build failed: %v", ErrNotReady, err)
	}
	return nil, ErrNotReady
}

// Suggest answers one query against the current engine, recording query
// count and latency. Answers are memoized per (engine generation, unit
// query direction) — see cache.go — so the repeated queries of a design loop
// skip the engine entirely; hits still count as served queries.
func (e *Entry) Suggest(w []float64) (*Suggestion, error) {
	return e.SuggestCtx(context.Background(), w)
}

// SuggestCtx is Suggest with trace-span recording: when ctx carries an
// obs.Recorder (the HTTP path), the cache lookup and engine call are
// recorded as "cache" and "kernel" stages. Callers without a recorder pay
// one nil check per stage.
func (e *Entry) SuggestCtx(ctx context.Context, w []float64) (*Suggestion, error) {
	start := time.Now()
	rec := obs.FromContext(ctx)
	// Swap protocol, part 2 of 2 (part 1: runBuild stores engine before
	// cache): the cache pointer is loaded BEFORE the engine pointer. The
	// loaded cache can then only be as new as the loaded engine — a swap
	// between the loads pairs the NEW engine's answer with the OLD (already
	// replaced) cache, which is dead, so nothing stale can enter the new
	// generation's cache. The reverse order on either side would let an old
	// engine's answer poison a fresh cache for its whole lifetime.
	key, norm, cacheable := cacheKey(w)
	var cache *suggestCache
	if cacheable {
		sp := rec.Start("cache")
		cache = e.cache.Load()
		if a, ok := cache.get(key); ok {
			sp.EndNote("hit")
			e.metrics.recordCacheHit()
			e.metrics.recordQueries(1, time.Since(start), 0)
			return a.materialize(w, norm), nil
		}
		sp.EndNote("miss")
	}
	eng, err := e.Engine()
	if err != nil {
		return nil, err
	}
	if cacheable {
		e.metrics.recordCacheMiss()
	}
	sp := rec.Start("kernel")
	s, err := eng.Suggest(w)
	sp.End()
	e.metrics.recordQueries(1, time.Since(start), boolToInt(err != nil))
	if err == nil && cache != nil {
		a := cachedAnswer{norm: norm, distance: s.Distance, alreadyFair: s.AlreadyFair}
		if !s.AlreadyFair {
			a.weights = append([]float64(nil), s.Weights...)
		}
		cache.put(key, a)
	}
	return s, err
}

// SuggestBatch answers a batch against the current engine, after consulting
// the Suggest memo cache per unit direction: slots whose direction a design
// loop already asked about are answered from the cache (counted in
// cache_hits), and only the misses reach the engine kernel. The consult is
// read-only — bulk batches do not insert, because flooding the first-come
// retention table with thousands of one-off directions would evict nothing
// but starve the interactive loop's hot set. The histogram records the
// batch's amortized per-query latency, keeping single and batch traffic
// comparable on one scale.
func (e *Entry) SuggestBatch(ws [][]float64) ([]Result, error) {
	return e.SuggestBatchCtx(context.Background(), ws)
}

// SuggestBatchCtx is SuggestBatch with trace-span recording: the cache
// consult is the "cache" stage, and the engine records its own stages on
// ctx.
func (e *Entry) SuggestBatchCtx(ctx context.Context, ws [][]float64) ([]Result, error) {
	start := time.Now()
	rec := obs.FromContext(ctx)
	// Same swap protocol as Suggest: the cache is loaded before the engine,
	// so a swap between the loads can only pair a new engine with a dead
	// cache — never a stale hit from the new generation's table.
	cache := e.cache.Load()
	results := make([]Result, len(ws))
	misses := ws
	var missIdx []int // nil: misses are ws verbatim (identity mapping)
	hits := 0
	if cache.len() > 0 {
		sp := rec.Start("cache")
		misses = misses[:0:0]
		missIdx = make([]int, 0, len(ws))
		for i, w := range ws {
			if key, norm, ok := cacheKey(w); ok {
				if a, hit := cache.get(key); hit {
					results[i] = Result{Suggestion: a.materialize(w, norm)}
					hits++
					continue
				}
			}
			misses = append(misses, w)
			missIdx = append(missIdx, i)
		}
		e.metrics.recordCacheHits(hits)
		sp.EndNote(fmt.Sprintf("hits=%d/%d", hits, len(ws)))
	}
	failed := 0
	if len(misses) > 0 || e.engine.Load() == nil {
		// A fully-hit batch skips the engine; a non-empty cache implies an
		// engine has served, so the readiness error below only fires on the
		// empty-cache path — exactly the pre-cache behavior.
		eng, err := e.Engine()
		if err != nil {
			return nil, err
		}
		sub := eng.SuggestBatch(ctx, misses)
		if missIdx == nil {
			copy(results, sub)
		} else {
			for j, res := range sub {
				results[missIdx[j]] = res
			}
		}
		for _, res := range sub {
			if res.Err != nil {
				failed++
			}
		}
	}
	e.metrics.recordBatch(len(ws), time.Since(start), failed)
	return results, nil
}

// Revalidate runs the drift check against the current engine and, when the
// index no longer holds, kicks off a background rebuild-and-swap (unless one
// is already running). It returns the check's verdict and detail.
func (e *Entry) Revalidate(check func(Engine) (healthy bool, detail string, err error)) (bool, string, error) {
	eng, err := e.Engine()
	if err != nil {
		return false, "", err
	}
	healthy, detail, err := check(eng)
	if err != nil {
		return false, detail, err
	}
	if !healthy {
		if rerr := e.Rebuild(); rerr != nil && !errors.Is(rerr, ErrBuildInProgress) {
			return healthy, detail, rerr
		}
	}
	return healthy, detail, nil
}

// StatusInfo is a point-in-time snapshot of an entry for status endpoints.
type StatusInfo struct {
	Name   string `json:"name"`
	Status Status `json:"status"`
	Mode   string `json:"mode,omitempty"`
	Error  string `json:"error,omitempty"`
	// Generation counts engine swaps (initial build included); it is the
	// cache tier's invalidation epoch.
	Generation uint64 `json:"generation"`
	// SpecVersion is the replicated metadata version of the designer's spec
	// (0 outside a cluster). Shard layers stamp it after the entry snapshot;
	// the registry itself does not track it.
	SpecVersion uint64          `json:"spec_version,omitempty"`
	Rebuilds    int             `json:"rebuilds"`
	Metrics     MetricsSnapshot `json:"metrics"`
}

// Status returns the entry's current lifecycle state, engine mode, last
// build error, and metrics.
func (e *Entry) Status() StatusInfo {
	e.mu.Lock()
	info := StatusInfo{Name: e.name, Status: e.status, Rebuilds: e.rebuilds, Generation: e.generation.Load()}
	if e.buildErr != nil {
		info.Error = e.buildErr.Error()
	}
	e.mu.Unlock()
	info.Metrics = e.metrics.Snapshot()
	if box := e.engine.Load(); box != nil {
		info.Mode = box.e.ModeName()
		if bp, ok := box.e.(BatchPlanner); ok {
			info.Metrics.SetBatchPlan(bp.BatchPlanStats())
		}
	}
	return info
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
