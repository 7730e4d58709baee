package service

import (
	"context"
	"sync"

	"fairrank/internal/obs"
)

// Replica is one follower-held copy of a designer's engine: the sealed index
// an owner pushed, plus the generation it was published under. Copies are
// never queried through the registry — they carry no memo cache, no metrics,
// and no build function — they exist to be read (generation permitting) and
// to be promoted into a registry entry when ownership moves here.
type Replica struct {
	Engine     Engine
	Generation uint64
}

// SuggestCtx answers one query straight from the copy, recording the engine
// call as the "kernel" stage when ctx carries a trace recorder.
func (r Replica) SuggestCtx(ctx context.Context, w []float64) (*Suggestion, error) {
	sp := obs.FromContext(ctx).Start("kernel")
	s, err := r.Engine.Suggest(w)
	sp.End()
	return s, err
}

// SuggestBatchCtx answers a batch straight from the copy; the engine
// records its own stages on ctx.
func (r Replica) SuggestBatchCtx(ctx context.Context, ws [][]float64) ([]Result, error) {
	return r.Engine.SuggestBatch(ctx, ws), nil
}

// ReplicaStore holds the replica copies a node keeps as a follower, keyed by
// designer name. It is a plain versioned cache: Set keeps the highest
// generation it has seen, so a late-arriving push of an older index can
// never shadow a newer copy. Safe for concurrent use.
type ReplicaStore struct {
	mu sync.RWMutex
	m  map[string]Replica
}

// NewReplicaStore returns an empty store.
func NewReplicaStore() *ReplicaStore {
	return &ReplicaStore{m: make(map[string]Replica)}
}

// Set stores a copy unless a strictly newer generation is already held,
// reporting whether the copy was kept.
func (s *ReplicaStore) Set(name string, e Engine, gen uint64) bool {
	if e == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.m[name]; ok && cur.Generation > gen {
		return false
	}
	s.m[name] = Replica{Engine: e, Generation: gen}
	return true
}

// Get returns the held copy for name.
func (s *ReplicaStore) Get(name string) (Replica, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.m[name]
	return r, ok
}

// Generation returns the generation of the held copy, 0 when none is held —
// the value the stale-read guard compares against the published generation.
func (s *ReplicaStore) Generation(name string) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[name].Generation
}

// Remove drops the copy for name (designer deleted, or promoted into the
// registry), reporting whether one was held.
func (s *ReplicaStore) Remove(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[name]
	delete(s.m, name)
	return ok
}
