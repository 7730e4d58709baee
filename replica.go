package fairrank

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/obs"
	"fairrank/internal/service"
)

// Read-replica fan-out (docs/REPLICATION.md). The pieces, in request order:
//
//   - route spreads Suggest/SuggestBatch reads across a designer's replica
//     set, guarded so a follower never answers from a copy older than the
//     owner's publication. Status and revalidate take the same route with
//     a set of one, the owner.
//   - replicaSync is the owner-side push / follower-side repair loop, run
//     from every reconcile tick: the owner publishes the generation it
//     serves as a gossiped "replica/<id>" entry, then streams the sealed
//     index to each follower; a follower that missed a push pulls it back.
//   - promoteReplica activates a follower's copy when ownership moves here
//     (owner died, or views disagree) — failover costs index activation,
//     not a rebuild. Rebuild remains the zero-replica fallback.
//
// The factor k is gossiped (replicas/config), so one flagged node is enough
// to switch the whole cluster on.

// originateReplicaConfig records (and gossips, via anti-entropy) the
// replication factor. Called at construction and again after LoadDir, so the
// flag's value supersedes every restored version.
func (s *Server) originateReplicaConfig(k int) {
	s.replicaK.Store(int64(k))
	payload, err := json.Marshal(cluster.ReplicaConfig{K: k})
	if err != nil {
		return // unreachable: the payload is one int
	}
	s.meta.Put(cluster.ReplicaConfigKey, payload)
}

// replicaFactor returns the effective follower count per designer.
func (s *Server) replicaFactor() int { return int(s.replicaK.Load()) }

// publishedReplica returns the designer's publication entry — the owner and
// generation followers are allowed to serve. ok is false when nothing was
// published (or the entry is tombstoned/garbled), which followers must treat
// as "forward to the owner".
func (s *Server) publishedReplica(id string) (cluster.ReplicaInfo, bool) {
	e, ok := s.meta.Get(cluster.ReplicaMetaKey(id))
	if !ok || e.Deleted || len(e.Payload) == 0 {
		return cluster.ReplicaInfo{}, false
	}
	var info cluster.ReplicaInfo
	if err := json.Unmarshal(e.Payload, &info); err != nil {
		return cluster.ReplicaInfo{}, false
	}
	return info, true
}

// promoteReplica activates the local replica copy of id into the shard
// registry, preserving its generation — the promote-not-rebuild failover
// path. It refuses stale copies (generation below the publication): the
// publication never lowers, so activating a stale copy would pin stale
// answers forever, while falling through to handoff/rebuild converges.
func (s *Server) promoteReplica(id string, build service.BuildFunc) (*service.Entry, bool) {
	rep, ok := s.replicas.Get(id)
	if !ok {
		return nil, false
	}
	if pub, has := s.publishedReplica(id); has && rep.Generation < pub.Generation {
		return nil, false
	}
	entry, err := s.shard(id).CreateReadyGen(id, rep.Engine, build, rep.Generation)
	if err != nil {
		if entry, ok := s.shard(id).Get(id); ok {
			return entry, true // lost the activation race; an index serves
		}
		return nil, false
	}
	s.replicas.Remove(id)
	s.router.Stats().ReplicaPromotions.Add(1)
	s.logf("cluster: promote: designer %q activated local replica at generation %d (no rebuild)",
		id, rep.Generation)
	return entry, true
}

// replicaTick schedules one replicaSync pass on a background goroutine,
// coalescing with a pass already in flight so a slow push can never back up
// the gossip loop that triggers it.
func (s *Server) replicaTick() {
	if s.replicaFactor() <= 0 || s.router.SingleNode() {
		return
	}
	if !s.replicaBusy.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer s.replicaBusy.Store(false)
		s.replicaSync()
	}()
}

// replicaSync walks every known designer once and plays this node's role in
// its replica set: owners publish and push, followers repair missed pushes.
func (s *Server) replicaSync() {
	k := s.replicaFactor()
	if k <= 0 {
		return
	}
	self := s.router.NodeID()
	for _, id := range s.DesignerIDs() {
		set := s.router.ReplicaSet(id, k)
		if len(set) == 0 {
			continue
		}
		if set[0].ID == self {
			s.replicaPublishPush(id, set)
			continue
		}
		for _, m := range set[1:] {
			if m.ID == self {
				s.replicaPullRepair(id, set[0])
				break
			}
		}
	}
}

// replicaPublishPush is the owner leg of replicaSync for one designer:
// publish the serving generation (metadata first — a follower may never
// serve bytes its publication does not cover), then push the sealed index to
// every follower that has not acked this generation yet.
func (s *Server) replicaPublishPush(id string, set []cluster.Member) {
	entry, ok := s.shard(id).Get(id)
	if !ok {
		return
	}
	eng, err := entry.Engine()
	if err != nil {
		return // still building or failed; publish once an index serves
	}
	self := s.router.NodeID()
	stats := s.router.Stats()
	gen := entry.Generation()
	pub, hasPub := s.publishedReplica(id)
	if hasPub && gen < pub.Generation {
		// This owner inherited the designer with an older index — a rebuild
		// after a failed promote, or a restart that loaded a pre-publication
		// save. Whatever it serves must supersede the old publication, or
		// followers holding higher-generation copies would keep serving them
		// while the owner answers from this index. Same owner means same
		// persisted index, so matching the published generation suffices; a
		// different owner's index may differ and takes the next generation.
		next := pub.Generation
		if pub.Owner != self {
			next++
		}
		entry.AdvanceGeneration(next)
		gen = entry.Generation()
	}
	if !hasPub || pub.Generation < gen || pub.Owner != self {
		payload, merr := json.Marshal(cluster.ReplicaInfo{Owner: self, Generation: gen})
		if merr != nil {
			return
		}
		e := s.meta.Put(cluster.ReplicaMetaKey(id), payload)
		if s.designerDeleted(id) {
			// A DELETE interleaved: never leave a live publication above the
			// designer's tombstone.
			s.meta.Delete(cluster.ReplicaMetaKey(id))
			return
		}
		s.replicateEntries(context.Background(), []cluster.MetaEntry{e})
		s.logf("cluster: replica: designer %q generation %d published (v%d)", id, gen, e.Version)
	}
	for _, m := range set[1:] {
		s.mu.RLock()
		acked := s.pushed[id][m.ID]
		s.mu.RUnlock()
		if acked >= gen {
			continue
		}
		peer, ok := s.router.Peer(m.ID)
		if !ok || !peer.Healthy() {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		pr, pw := io.Pipe()
		go func() { pw.CloseWithError(eng.SaveIndex(pw)) }()
		cr := &obs.CountingReader{R: pr}
		err := peer.PushReplica(ctx, self, id, gen, cr)
		cancel()
		stats.HandoffBytesOut.Add(cr.N())
		if err != nil {
			var se *cluster.StatusError
			if !errors.As(err, &se) {
				peer.MarkUnhealthy(err)
			}
			s.logf("cluster: replica: pushing %q generation %d to %s failed: %v (pull repair will retry)",
				id, gen, m.ID, err)
			continue
		}
		stats.ReplicaPushes.Add(1)
		s.mu.Lock()
		if s.pushed[id] == nil {
			s.pushed[id] = make(map[string]uint64)
		}
		s.pushed[id][m.ID] = gen
		s.mu.Unlock()
		s.logf("cluster: replica: designer %q generation %d pushed to %s", id, gen, m.ID)
	}
}

// replicaPullRepair is the follower leg of replicaSync for one designer:
// when the published generation is ahead of the local copy (a push this node
// missed — it was down, or just joined the set), pull the index from the
// current owner. Push is the fast path; this is the repair path.
func (s *Server) replicaPullRepair(id string, owner cluster.Member) {
	pub, ok := s.publishedReplica(id)
	if !ok || s.replicas.Generation(id) >= pub.Generation {
		return
	}
	if _, held := s.shard(id).Get(id); held {
		// This node serves id from its registry (ownership flapped here
		// once); that warm standby outranks a replica copy.
		return
	}
	self := s.router.NodeID()
	if owner.ID == self {
		return
	}
	s.mu.RLock()
	spec, known := s.specs[id]
	s.mu.RUnlock()
	if !known {
		return
	}
	peer, ok := s.router.Peer(owner.ID)
	if !ok || !peer.Healthy() {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rc, gen, err := peer.FetchIndex(ctx, self, id, 0)
	if err != nil {
		var se *cluster.StatusError
		if !errors.As(err, &se) {
			peer.MarkUnhealthy(err)
		}
		return
	}
	cr := &obs.CountingReader{R: rc}
	d, lerr := s.loadDesignerStream(cr, spec)
	rc.Close()
	s.router.Stats().HandoffBytesIn.Add(cr.N())
	if lerr != nil {
		s.logf("cluster: replica: pulling %q from %s failed to load: %v", id, owner.ID, lerr)
		return
	}
	if gen == 0 {
		gen = pub.Generation
	}
	if s.replicas.Set(id, &designerEngine{d: d}, gen) {
		s.router.Stats().ReplicaPulls.Add(1)
		s.logf("cluster: replica: designer %q generation %d pulled from %s (repair)", id, gen, owner.ID)
	}
}

// replicaLags reports, for every designer this node follows, how many
// generations its copy lags the publication (0 = caught up) — the
// fairrank_replica_lag_generations gauge.
func (s *Server) replicaLags() map[string]uint64 {
	k := s.replicaFactor()
	if k <= 0 {
		return nil
	}
	self := s.router.NodeID()
	lags := make(map[string]uint64)
	for _, id := range s.DesignerIDs() {
		for _, m := range s.router.ReplicaSet(id, k)[1:] {
			if m.ID != self {
				continue
			}
			pub, ok := s.publishedReplica(id)
			if !ok {
				break
			}
			lag := uint64(0)
			if local := s.replicas.Generation(id); local < pub.Generation {
				lag = pub.Generation - local
			}
			lags[id] = lag
			break
		}
	}
	return lags
}

// route plans one per-designer request through cluster.PlanRead over id's
// replica set — the owner plus k followers, so k = 0 means the owner only —
// and forwards it when the plan says so. Suggests route with
// k = replicaFactor(); status and revalidate, which only the owner can
// answer, with k = 0. done reports that the response has been written.
// Otherwise the caller answers here: from rep when this node is a follower
// whose copy has caught up (possible only for k > 0), else from the local
// registry, activating a dormant spec if this node has become the owner.
func (s *Server) route(w http.ResponseWriter, r *http.Request, id string, body []byte, k int) (rep *service.Replica, done bool) {
	if s.router.SingleNode() || r.Header.Get(cluster.ReplicaFinalHeader) != "" {
		return nil, false // nowhere to forward, or the final hop of a stale-follower bounce
	}
	self := s.router.NodeID()
	stats := s.router.Stats()
	rec := obs.FromContext(r.Context())
	forwardedHop := r.Header.Get(cluster.ForwardHeader) != ""
	for {
		set := s.router.ReplicaSet(id, k)
		plan, target := cluster.PlanRead(self, set,
			s.replicas.Generation(id), s.publishedGeneration(id), s.replicaRR.Add(1))
		switch plan {
		case cluster.ReadLocalOwner:
			return nil, false
		case cluster.ReadLocalReplica:
			held, ok := s.replicas.Get(id)
			if !ok {
				return nil, false // copy vanished under us; registry path answers
			}
			stats.ReplicaReadsLocal.Add(1)
			return &held, false
		case cluster.ReadStaleForward:
			// The stale-read guard: never answer from a copy behind the
			// publication. An already-forwarded read gets one final marked
			// hop to the owner (bounding every read to two forwards).
			stats.ReplicaStaleForwards.Add(1)
			if forwardedHop {
				r.Header.Set(cluster.ReplicaFinalHeader, self)
			}
		case cluster.ReadForwardOwner, cluster.ReadForwardReplica:
			if forwardedHop {
				return nil, false // disagreeing views bounce at most once
			}
			if k > 0 { // an owner-only route is a plain forward, not fan-out
				stats.ReplicaReadsForwarded.Add(1)
			}
		}
		if target.ID == "" || target.ID == self {
			return nil, false
		}
		peer, ok := s.router.Peer(target.ID)
		if !ok {
			return nil, false
		}
		sp := rec.Start("forward")
		if err := peer.Forward(w, r, self, body); err != nil {
			sp.EndNote("failed peer=" + peer.Member().ID)
			if r.Context().Err() != nil {
				// The requester itself is gone (disconnect or deadline) —
				// that is not evidence against the peer, so don't poison
				// its health; there is nobody left to answer anyway.
				return nil, true
			}
			peer.MarkUnhealthy(err)
			continue // re-plan against the shrunk healthy set; may land on self
		}
		// Forward merged the remote hop's trailer spans into rec already.
		sp.EndNote("peer=" + peer.Member().ID)
		return nil, true
	}
}

// publishedGeneration is publishedReplica reduced to the number PlanRead
// wants (0 = no publication).
func (s *Server) publishedGeneration(id string) uint64 {
	pub, ok := s.publishedReplica(id)
	if !ok {
		return 0
	}
	return pub.Generation
}

// handleReplicaPut receives an owner's replica push: the sealed index stream
// plus its generation header, stored in the replica store (NOT activated —
// that is what distinguishes it from a handoff push; the registry stays the
// owner's). The designer's spec must already be known here.
func (s *Server) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.RLock()
	spec, known := s.specs[id]
	s.mu.RUnlock()
	if !known {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: designer %q (push metadata before indexes)", ErrUnknownID, id))
		return
	}
	gen, _ := strconv.ParseUint(r.Header.Get(cluster.GenerationHeader), 10, 64)
	cr := &obs.CountingReader{R: http.MaxBytesReader(w, r.Body, 1<<30)}
	d, err := s.loadDesignerStream(cr, spec)
	s.router.Stats().HandoffBytesIn.Add(cr.N())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if s.designerDeleted(id) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: designer %q was deleted", ErrUnknownID, id))
		return
	}
	stored := s.replicas.Set(id, &designerEngine{d: d}, gen)
	if stored {
		s.logf("cluster: replica: designer %q generation %d received from %s",
			id, gen, r.Header.Get(cluster.ForwardHeader))
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "generation": gen, "stored": stored})
}
