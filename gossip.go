package fairrank

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/flatidx"
	"fairrank/internal/obs"
)

// This file is the cluster's convergence layer: the anti-entropy pass that
// repairs metadata a peer missed while it was down, and the runtime
// membership machinery (join/leave with index handoff) built on top of it.
//
// Everything replicated — dataset specs, designer specs, and the ring
// membership itself — lives in a cluster.MetaStore as a versioned entry
// (tombstones for deletes). Mutations originate on exactly one node, which
// fans the new entry out to its healthy peers best-effort; the anti-entropy
// pass then guarantees convergence: each tick a node exchanges digests with
// one random healthy peer, pulls entries it is missing, and pushes entries
// the peer is missing. Applying an entry is idempotent and ordered by the
// entry version, so repeated or reordered delivery cannot diverge replicas.
//
// Ownership changes (a member joined, left, or died) move index copies, not
// build work, through the primitives in replica.go: a draining node pushes
// each index it serves to the designer's next owner before announcing its
// leave, and a new owner that holds no fresh copy pulls the previous
// owner's index stream (the universal header format of persist.go). Either
// way the bytes land in the replica store, and activate promotes them once
// this node owns the designer; rebuilding remains the fallback when no live
// member holds an index.

// startAntiEntropy launches the background anti-entropy loop. A non-positive
// interval disables it.
func (s *Server) startAntiEntropy(interval time.Duration) {
	if interval <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-ticker.C:
				s.gossipOnce(interval)
			}
		}
	}()
}

// gossipOnce runs one anti-entropy round: exchange digests with one random
// healthy peer, then reconcile local ownership (activating any designer this
// node owns but does not serve yet).
func (s *Server) gossipOnce(interval time.Duration) {
	var healthy []*cluster.Peer
	for _, p := range s.router.Peers() {
		if p.Healthy() {
			healthy = append(healthy, p)
		}
	}
	if len(healthy) > 0 {
		p := healthy[rand.Intn(len(healthy))]
		ctx, cancel := context.WithTimeout(context.Background(), max(interval, 10*time.Second))
		stats := s.router.Stats()
		begin := time.Now()
		if err := s.exchangeWith(ctx, p); err != nil {
			stats.GossipFailures.Add(1)
			s.logf("cluster: anti-entropy with %s failed: %v", p.Member().ID, err)
		}
		stats.GossipRounds.Add(1)
		stats.GossipNs.Add(time.Since(begin).Nanoseconds())
		cancel()
	}
	// Tombstone GC: drop every tombstone all other members have acked.
	var peers []string
	self := s.router.NodeID()
	for _, m := range s.router.Members() {
		if m.ID != self {
			peers = append(peers, m.ID)
		}
	}
	if n := s.meta.CompactTombstones(peers); n > 0 {
		s.logf("cluster: compacted %d tombstone(s) acked by all %d peer(s)", n, len(peers))
	}
	s.reconcile()
}

// exchangeWith runs one full digest exchange with a peer: pull the entries
// the peer holds newer, push back the entries it asked for. Transport
// failures mark the peer unhealthy (the health probe brings it back).
func (s *Server) exchangeWith(ctx context.Context, p *cluster.Peer) error {
	sent := s.meta.Digest()
	resp, err := p.ExchangeDigest(ctx, s.router.NodeID(), sent)
	if err != nil {
		var se *cluster.StatusError
		if !errors.As(err, &se) {
			p.MarkUnhealthy(err)
		}
		return err
	}
	// A tombstone the peer neither updated nor wanted back is held
	// identically over there — a quiet acknowledgement toward its GC.
	s.meta.ObserveExchange(p.Member().ID, sent, resp)
	s.router.Stats().EntriesPulled.Add(int64(s.applyEntries(resp.Updates)))
	if len(resp.Wants) > 0 {
		entries := s.meta.Entries(resp.Wants)
		if err := p.PushEntries(ctx, s.router.NodeID(), entries); err != nil {
			return err
		}
		s.router.Stats().EntriesPushed.Add(int64(len(entries)))
	}
	return nil
}

// applyEntries merges remotely produced metadata entries and materializes
// the ones that changed local state. Entries are applied in key order, which
// puts datasets ("dataset/…") before the designer specs ("designer/…") that
// reference them and the membership ("ring/members") last — so a batch that
// carries both a dataset and its designers applies cleanly in one pass. It
// returns how many entries changed local state.
func (s *Server) applyEntries(entries []cluster.MetaEntry) int {
	sorted := append([]cluster.MetaEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	// Serialized: Apply-then-materialize must be atomic per entry across
	// concurrent batches, or an older entry's materialization could land
	// after a newer one's (e.g. a tombstone erasing the spec a concurrent
	// re-create just stored) — and since Apply rejects re-deliveries of the
	// winning version, nothing would ever re-materialize the winner.
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	applied := 0
	for _, e := range sorted {
		stored, changed := s.meta.Apply(e)
		if !changed {
			continue
		}
		applied++
		// Materialize what the store now holds — for the membership key that
		// can be the union merge of both sides of a join race, not the entry
		// that arrived.
		if err := s.materialize(stored); err != nil {
			s.logf("cluster: materializing %s v%d: %v", stored.Key, stored.Version, err)
		}
	}
	return applied
}

// materialize turns an applied metadata entry into serving state: datasets
// are built and registered, designer specs stored (and activated when this
// node owns them), tombstones evict, and membership entries move the ring.
// Materialization is idempotent — re-applying the current state is a no-op —
// which is what lets anti-entropy repair by blind re-apply.
func (s *Server) materialize(e cluster.MetaEntry) error {
	switch {
	case e.Key == cluster.RingKey:
		if e.Deleted {
			return nil // membership is never tombstoned
		}
		var m cluster.Membership
		if err := json.Unmarshal(e.Payload, &m); err != nil {
			return err
		}
		if err := s.router.SetMembers(m.Members, e.Version); err != nil {
			return err
		}
		s.logf("cluster: membership v%d applied: %d member(s)", e.Version, len(m.Members))
		s.rebalance()
		return nil

	case strings.HasPrefix(e.Key, "dataset/"):
		id := strings.TrimPrefix(e.Key, "dataset/")
		if e.Deleted {
			return nil // datasets are currently never deleted
		}
		var spec DatasetSpec
		if err := json.Unmarshal(e.Payload, &spec); err != nil {
			return err
		}
		ds, err := spec.Build()
		if err != nil {
			return err
		}
		rev := spec.Revision
		if rev == 0 {
			rev = ds.Fingerprint() // pre-patch peers replicate revision-less specs
		}
		s.mu.Lock()
		old, had := s.datasets[id]
		if had && old.Fingerprint() == ds.Fingerprint() {
			s.datasetRevs[id] = rev
			s.mu.Unlock()
			return nil // already materialized — idempotent re-apply
		}
		s.datasets[id] = ds
		s.datasetRevs[id] = rev
		s.mu.Unlock()
		if had {
			// The dataset changed under its designers — a PATCH applied on a
			// peer landed here through replication. Splice the change into
			// every local index off the apply path (a splice can rebuild, and
			// materialize runs under applyMu), then let the owner re-push the
			// patched index to its followers.
			go func() {
				s.patchLocalDesigners(id)
				s.replicaTick()
			}()
		}
		return nil

	case strings.HasPrefix(e.Key, "designer/"):
		id := strings.TrimPrefix(e.Key, "designer/")
		if e.Deleted {
			s.mu.Lock()
			delete(s.specs, id)
			delete(s.pushed, id)
			s.mu.Unlock()
			s.replicas.Remove(id)
			if s.shard(id).Remove(id) {
				s.logf("cluster: designer %q removed by replicated tombstone", id)
			}
			return nil
		}
		var spec DesignerSpec
		if err := json.Unmarshal(e.Payload, &spec); err != nil {
			return err
		}
		s.mu.Lock()
		old, had := s.specs[id]
		s.specs[id] = spec
		s.mu.Unlock()
		if had && !reflect.DeepEqual(old, spec) {
			// The spec changed under a designer this node already serves —
			// a delete + re-create that converged to the live entry, or a
			// lost equal-version tie-break. The old index answers the old
			// spec's queries; rebuild over the new spec so this replica's
			// answers reconverge with the rest of the cluster. (A rebuild
			// already in flight was started from the stale closure and may
			// swap a stale index in; the window is accepted — the next spec
			// version repeats this path.)
			if entry, ok := s.shard(id).Get(id); ok {
				if build, berr := s.builder(spec); berr == nil {
					entry.SetBuild(build)
					if rerr := entry.Rebuild(); rerr != nil {
						s.logf("cluster: designer %q spec changed (v%d) but rebuild not started: %v", id, e.Version, rerr)
					} else {
						s.logf("cluster: rebuild: designer %q spec changed (v%d)", id, e.Version)
					}
				}
			}
		}
		s.ensureOwned(id)
		return nil

	case e.Key == cluster.ReplicaConfigKey:
		if e.Deleted {
			return nil // the factor is lowered to 0, never tombstoned
		}
		var rc cluster.ReplicaConfig
		if err := json.Unmarshal(e.Payload, &rc); err != nil {
			return err
		}
		if old := s.replicaK.Swap(int64(rc.K)); old != int64(rc.K) {
			s.logf("cluster: replica factor %d applied (v%d)", rc.K, e.Version)
		}
		return nil

	case strings.HasPrefix(e.Key, cluster.ReplicaKeyPrefix):
		// Publication entries are consulted on demand (the stale-read guard
		// and the sync loop read the store directly); only the tombstone has
		// eager work — dropping the follower copy of a deleted designer.
		if e.Deleted {
			s.replicas.Remove(strings.TrimPrefix(e.Key, cluster.ReplicaKeyPrefix))
		}
		return nil
	}
	return fmt.Errorf("fairrank: unknown metadata key %q", e.Key)
}

// replicateEntries fans freshly originated metadata entries out to every
// healthy peer, best-effort and detached from the caller's cancellation —
// anti-entropy repairs whatever this misses.
func (s *Server) replicateEntries(ctx context.Context, entries []cluster.MetaEntry) {
	if len(entries) == 0 {
		return
	}
	base := context.WithoutCancel(ctx)
	for _, p := range s.router.Peers() {
		if !p.Healthy() {
			continue
		}
		pctx, cancel := context.WithTimeout(base, 10*time.Second)
		err := p.PushEntries(pctx, s.router.NodeID(), entries)
		cancel()
		if err != nil {
			// A *StatusError is an application-level reply from a reachable
			// peer (e.g. a version-skewed node rejecting the route) — per
			// the StatusError contract it must NOT mark the peer down;
			// anti-entropy will retry the entries. Only transport failures
			// poison health.
			var se *cluster.StatusError
			if !errors.As(err, &se) {
				p.MarkUnhealthy(err)
			}
			s.logf("cluster: replicating %d entr(ies) to %s failed: %v", len(entries), p.Member().ID, err)
		}
	}
}

// reconcile activates every designer this node owns but does not serve yet —
// the periodic sweep behind rebalance that also catches specs learned
// through anti-entropy before their dataset arrived.
func (s *Server) reconcile() {
	s.mu.RLock()
	ids := make([]string, 0, len(s.specs))
	for id := range s.specs {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	for _, id := range ids {
		s.ensureOwned(id)
	}
	s.repairStale()
	s.replicaTick()
}

// rebalance re-evaluates ownership after a ring change. Designers this node
// gained are activated (a copy pulled from the previous owner first, rebuild
// fallback); designers it lost keep their local index — queries for them are
// forwarded to the new owner, and the idle index is the warm standby the next
// failover or ownership pull fetches from.
func (s *Server) rebalance() { s.reconcile() }

// ensureOwned asynchronously makes this node serve designer id if it owns it
// on the current ring and has no local index yet. Unless a fresh copy is
// already held (a replica push, or a drain that landed here), it first pulls
// the index from the member that served the designer before (HandoffSource),
// so the offline build is not repeated; then activate promotes the copy, or
// builds when no live member could supply one (the old owner is dead, or the
// designer was never built). Duplicate calls coalesce on the in-flight set.
func (s *Server) ensureOwned(id string) {
	if !s.router.OwnedLocally(id) {
		return
	}
	if _, ok := s.shard(id).Get(id); ok {
		return
	}
	s.mu.Lock()
	spec, known := s.specs[id]
	if !known || s.pulling[id] {
		s.mu.Unlock()
		return
	}
	s.pulling[id] = true
	s.mu.Unlock()
	go func() {
		defer func() {
			s.mu.Lock()
			delete(s.pulling, id)
			s.mu.Unlock()
		}()
		build, err := s.builder(spec)
		if err != nil {
			// Typically the dataset has not replicated yet; the next
			// anti-entropy round retries once it lands.
			return
		}
		if _, fresh := s.freshCopy(id); !fresh {
			s.pullFromPreviousOwner(id)
		}
		if _, err := s.activate(id, build); err != nil {
			s.logf("cluster: activating designer %q failed: %v", id, err)
		}
	}()
}

// pullFromPreviousOwner lands designer id's index from the member that
// served it before this node owned it. A failure (no source, a source with
// no ready index, a stream that fails to load) leaves nothing landed, and
// activation falls back to a rebuild. Each pull runs under its own
// background trace ("handoff-pull") so cross-node index moves show up at
// /debug/traces next to the request traces.
func (s *Server) pullFromPreviousOwner(id string) {
	src, ok := s.router.HandoffSource(id)
	if !ok {
		return
	}
	stats := s.router.Stats()
	rec := s.tracer.Background("handoff-pull")
	rec.SetTarget(id)
	defer s.tracer.Done(rec)
	begin := time.Now()
	ctx, cancel := context.WithTimeout(obs.NewContext(context.Background(), rec), 2*time.Minute)
	defer cancel()
	gen, stored, err := s.pullCopy(ctx, src, id)
	if err != nil {
		stats.HandoffFailures.Add(1)
		s.logf("cluster: handoff of %q from %s failed: %v", id, src.Member().ID, err)
		return
	}
	stats.HandoffPulls.Add(1)
	stats.HandoffNs.Add(time.Since(begin).Nanoseconds())
	if stored {
		s.logf("cluster: handoff: designer %q index loaded from %s at generation %d", id, src.Member().ID, gen)
	}
}

// fetchIndexResumable pulls designer id's full index stream from src,
// resuming — not restarting — after a mid-stream break. On a broken read it
// keeps the universal header plus the longest payload prefix ending at a
// flat-format section boundary (flatidx.CompletePrefix) and refetches only
// the rest via the peer's ?offset= parameter; serialization is
// deterministic, so the stitched stream is byte-identical to an unbroken
// one and every retained section's checksum has already been, or will be,
// verified by the loader. Gives up after three broken streams.
func (s *Server) fetchIndexResumable(ctx context.Context, src *cluster.Peer, id string) ([]byte, uint64, error) {
	const maxStreams = 3
	var buf []byte
	var gen uint64
	for attempt := 0; ; attempt++ {
		rc, g, err := src.FetchIndex(ctx, s.router.NodeID(), id, int64(len(buf)))
		if err != nil {
			// Connection refused, 404, and friends: resume cannot help.
			return nil, 0, err
		}
		gen = max(gen, g)
		rest, rerr := io.ReadAll(rc)
		rc.Close()
		buf = append(buf, rest...)
		if rerr == nil {
			return buf, gen, nil
		}
		if attempt+1 >= maxStreams {
			return nil, 0, fmt.Errorf("handoff stream broke %d times: %w", maxStreams, rerr)
		}
		keep := 0
		if hdr := indexPayloadOffset(buf); len(buf) > hdr {
			keep = hdr + flatidx.CompletePrefix(buf[hdr:])
		}
		buf = buf[:keep]
		s.router.Stats().HandoffResumes.Add(1)
		s.logf("cluster: handoff of %q from %s interrupted (%v); resuming at byte %d",
			id, src.Member().ID, rerr, keep)
	}
}

// loadDesignerStream reconstructs a designer from a persisted index stream
// against the spec's dataset and oracle — the decode step of landCopy and of
// a restart's LoadDir.
func (s *Server) loadDesignerStream(r io.Reader, spec DesignerSpec) (*Designer, error) {
	ds, ok := s.Dataset(spec.Dataset)
	if !ok {
		return nil, fmt.Errorf("%w: dataset %q", ErrUnknownID, spec.Dataset)
	}
	oracle, err := spec.Oracle.Build(ds)
	if err != nil {
		return nil, err
	}
	d, err := LoadDesigner(r, ds, oracle)
	if err != nil {
		return nil, err
	}
	// Re-arm the designer's build configuration: a streamed index carries no
	// Config, and a later patch must honor the spec's churn threshold.
	if cfg, cerr := spec.Config.Build(); cerr == nil {
		d.RestoreConfig(cfg)
	}
	return d, nil
}

// originateMembership records and applies a new membership locally and
// returns the entry for replication. The members slice must be the full
// intended ring (including or excluding this node; locally the router always
// keeps itself).
func (s *Server) originateMembership(members []cluster.Member) (cluster.MetaEntry, error) {
	for _, m := range members {
		if m.ID != s.router.NodeID() && m.URL == "" {
			return cluster.MetaEntry{}, fmt.Errorf("fairrank: member %q has no URL", m.ID)
		}
	}
	payload, err := json.Marshal(cluster.Membership{Members: members})
	if err != nil {
		return cluster.MetaEntry{}, err
	}
	entry := s.meta.Put(cluster.RingKey, payload)
	if err := s.router.SetMembers(members, entry.Version); err != nil {
		return entry, err
	}
	s.logf("cluster: membership v%d originated: %d member(s)", entry.Version, len(members))
	s.rebalance()
	return entry, nil
}

// JoinCluster adds this node to a running cluster through any existing
// member: it posts its identity to the seed's /cluster/join, applies the
// membership the seed answers with, and immediately runs one anti-entropy
// exchange against the seed so every dataset and designer spec lands before
// the first request does. Designers this node now owns are pulled from
// their previous owners and promoted (rebuild fallback). Requires
// ClusterConfig.AdvertiseURL.
func (s *Server) JoinCluster(ctx context.Context, seedURL string) error {
	if s.advertise == "" {
		return errors.New("fairrank: joining a cluster requires AdvertiseURL")
	}
	seedURL = strings.TrimSuffix(seedURL, "/")
	seed := cluster.NewPeer(cluster.Member{ID: "join-seed", URL: seedURL}, s.router.Client())
	var entry cluster.MetaEntry
	err := seed.PostJSON(ctx, "/cluster/join", s.router.NodeID(),
		joinRequest{ID: s.router.NodeID(), URL: s.advertise}, &entry)
	if err != nil {
		return fmt.Errorf("fairrank: joining via %s: %w", seedURL, err)
	}
	s.applyEntries([]cluster.MetaEntry{entry})
	if err := s.exchangeWith(ctx, seed); err != nil {
		return fmt.Errorf("fairrank: initial sync with %s: %w", seedURL, err)
	}
	s.reconcile()
	return nil
}

// LeaveCluster drains this node out of the cluster: it pushes every locally
// served index to the designer's next ring owner (which promotes the copy
// once the leave makes it the owner, instead of rebuilding), then
// originates a membership without itself and replicates it to the
// remaining members. The node keeps serving whatever it holds until the
// process exits — useful for the SIGTERM window where forwarded stragglers
// still arrive.
func (s *Server) LeaveCluster(ctx context.Context) error {
	if s.router.SingleNode() {
		return nil
	}
	// From here on the node is draining: /healthz flips to 503/"draining" so
	// peer health probes stop routing fresh work here while the indexes move.
	s.draining.Store(true)
	self := s.router.NodeID()
	stats := s.router.Stats()
	// Push indexes while this node is still on the ring: HandoffSource
	// (owner among the other healthy members) is exactly the member that
	// inherits each designer once the leave applies. The push loop runs
	// outside memberMu (it only reads the ring); the membership
	// origination below serializes with concurrent joins.
	for _, id := range s.DesignerIDs() {
		entry, ok := s.shard(id).Get(id)
		if !ok {
			continue
		}
		eng, err := entry.Engine()
		if err != nil {
			continue // still building or failed; the new owner rebuilds
		}
		peer, ok := s.router.HandoffSource(id)
		if !ok {
			continue
		}
		begin := time.Now()
		err = s.pushCopy(ctx, peer, id, eng, entry.Generation())
		stats.HandoffNs.Add(time.Since(begin).Nanoseconds())
		if err != nil {
			stats.HandoffFailures.Add(1)
			s.logf("cluster: drain: pushing index of %q to %s failed: %v (it will pull or rebuild)",
				id, peer.Member().ID, err)
		} else {
			stats.HandoffPushes.Add(1)
			s.logf("cluster: drain: handed index of %q to %s", id, peer.Member().ID)
		}
	}
	// The membership is read under the origination lock, after the pushes:
	// a join that landed while indexes were being handed off must survive
	// the leave.
	s.memberMu.Lock()
	var members []cluster.Member
	for _, m := range s.router.Members() {
		if m.ID != self {
			members = append(members, m)
		}
	}
	entry, err := s.originateMembership(members)
	s.memberMu.Unlock()
	if err != nil {
		return err
	}
	s.replicateEntries(ctx, []cluster.MetaEntry{entry})
	s.logf("cluster: node %s left the ring (membership v%d)", self, entry.Version)
	return nil
}

// joinRequest is the body of POST /cluster/join.
type joinRequest struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// leaveRequest is the body of POST /cluster/leave.
type leaveRequest struct {
	ID string `json:"id"`
}
