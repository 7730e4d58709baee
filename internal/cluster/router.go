package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"fairrank/internal/service"
)

// Config describes one node's view of the cluster.
type Config struct {
	// NodeID names this node on the ring. Defaults to "node-0".
	NodeID string
	// AdvertiseURL is the HTTP base URL other members use to reach this
	// node ("http://host:port"). It identifies this node in gossiped
	// membership, so it must be set on any node that participates in
	// runtime join/leave; static fleets may leave it empty.
	AdvertiseURL string
	// Shards is the number of in-process shard registries. Defaults to 1.
	// Shards partition the designer namespace locally, so build storms and
	// metric rollups split along the same boundaries a multi-node fleet
	// would use.
	Shards int
	// Peers are the remote fairrankd nodes (ID + base URL). The local node
	// is added to the ring automatically and must not appear here.
	Peers []Member
	// Client is the HTTP client used for forwarding and replication. The
	// default has no overall timeout (a forwarded batch against a slow
	// engine may legitimately run long; the inbound request's context
	// bounds it) but does bound dialing and response-header wait, so a
	// black-holed peer fails the forward — and gets marked unhealthy —
	// instead of hanging the caller forever.
	Client *http.Client
}

// Router owns this node's shard registries and routes designer names: first
// across the node ring (self + peers, healthy members only), then — for
// locally owned names — across the in-process shard ring.
//
// The node ring is mutable at runtime: SetMembers swaps in a new membership
// (a gossiped ring/members entry), preserving the health state of peers that
// survive the change. The shard ring is fixed for the process lifetime.
type Router struct {
	self      Member
	shardRing *Ring
	shardIdx  map[string]int // shard ring member id → index into shards
	shards    []*service.Registry
	client    *http.Client

	mu          sync.RWMutex // guards nodeRing, peers, ringVersion
	nodeRing    *Ring
	ringVersion uint64
	peers       map[string]*Peer

	stats Stats

	stopOnce sync.Once
	stopc    chan struct{}
}

// Stats returns the router's cluster-layer counters; callers increment the
// atomic fields directly from the gossip and handoff paths and /metrics
// snapshots them.
func (r *Router) Stats() *Stats { return &r.stats }

// NewRouter builds a router from the config.
func NewRouter(cfg Config) (*Router, error) {
	if cfg.NodeID == "" {
		cfg.NodeID = "node-0"
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	rt := &Router{
		self:   Member{ID: cfg.NodeID, URL: cfg.AdvertiseURL},
		client: cfg.Client,
		stopc:  make(chan struct{}),
	}
	if rt.client == nil {
		rt.client = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			TLSHandshakeTimeout:   5 * time.Second,
			ResponseHeaderTimeout: 60 * time.Second,
			MaxIdleConnsPerHost:   16,
		}}
	}
	nodeMembers := []Member{rt.self}
	rt.peers = make(map[string]*Peer, len(cfg.Peers))
	for _, p := range cfg.Peers {
		if p.URL == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", p.ID)
		}
		if p.ID == cfg.NodeID {
			return nil, fmt.Errorf("cluster: peer %q collides with this node's id", p.ID)
		}
		nodeMembers = append(nodeMembers, p)
		rt.peers[p.ID] = newPeer(p, rt.client)
	}
	var err error
	if rt.nodeRing, err = NewRing(nodeMembers); err != nil {
		return nil, err
	}
	shardMembers := make([]Member, cfg.Shards)
	rt.shards = make([]*service.Registry, cfg.Shards)
	rt.shardIdx = make(map[string]int, cfg.Shards)
	for i := range shardMembers {
		shardMembers[i] = Member{ID: fmt.Sprintf("shard-%d", i)}
		rt.shardIdx[shardMembers[i].ID] = i
		rt.shards[i] = service.NewRegistry()
	}
	if rt.shardRing, err = NewRing(shardMembers); err != nil {
		return nil, err
	}
	return rt, nil
}

// NodeID returns this node's ring id.
func (rt *Router) NodeID() string { return rt.self.ID }

// Client returns the HTTP client the router uses for peer traffic, so
// bootstrap paths (joining a cluster through a seed node) share its pooling
// and timeout behavior.
func (rt *Router) Client() *http.Client { return rt.client }

// Shards returns the local shard registries in index order.
func (rt *Router) Shards() []*service.Registry { return rt.shards }

// ShardFor returns the local shard that holds name, by rendezvous over the
// shard labels — stable for a given shard count, independent of the node.
func (rt *Router) ShardFor(name string) (int, *service.Registry) {
	idx := rt.shardIdx[rt.shardRing.Owner(name).ID]
	return idx, rt.shards[idx]
}

// RingVersion returns the version of the membership the node ring was built
// from: 0 for the static boot configuration, then the version of each
// applied ring/members entry.
func (rt *Router) RingVersion() uint64 {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ringVersion
}

// SetMembers swaps the node ring for the given membership (a gossiped
// ring/members entry at the given version). The local node is always kept
// on its own ring — a node must be able to serve what it holds even while
// the rest of the cluster believes it has left. Peers that survive the
// change keep their health state; new members start optimistic-healthy;
// removed members are dropped (in-flight requests on their clients finish
// on the old Peer objects). Stale versions (< the current one) are ignored
// so out-of-order gossip cannot roll the ring back; an equal version is
// re-applied, because a concurrent-join conflict resolves to a merged
// member set at the same version (MetaStore.Apply's union merge) and the
// ring must pick up the union.
func (rt *Router) SetMembers(members []Member, version uint64) error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if version < rt.ringVersion {
		return nil
	}
	nodeMembers := []Member{rt.self}
	peers := make(map[string]*Peer, len(members))
	for _, m := range members {
		if m.ID == rt.self.ID {
			continue
		}
		if m.URL == "" {
			return fmt.Errorf("cluster: membership v%d: member %q has no URL", version, m.ID)
		}
		nodeMembers = append(nodeMembers, m)
		if old, ok := rt.peers[m.ID]; ok && old.Member().URL == m.URL {
			peers[m.ID] = old
		} else {
			peers[m.ID] = newPeer(m, rt.client)
		}
	}
	ring, err := NewRing(nodeMembers)
	if err != nil {
		return err
	}
	rt.nodeRing = ring
	rt.peers = peers
	rt.ringVersion = version
	return nil
}

// memberHealthy reports ring eligibility: the local node is always healthy,
// peers by their last known state. Callers hold at least a read lock.
func (rt *Router) memberHealthy(m Member) bool {
	if m.ID == rt.self.ID {
		return true
	}
	p, ok := rt.peers[m.ID]
	return ok && p.Healthy()
}

// Owner returns the healthy member owning name. The local node is always
// eligible, so an owner always exists: with every peer down, everything
// fails over to self (rebuild-on-owner).
func (rt *Router) Owner(name string) Member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	m, _ := rt.nodeRing.OwnerFunc(name, rt.memberHealthy)
	return m
}

// OwnedLocally reports whether this node currently owns name.
func (rt *Router) OwnedLocally(name string) bool { return rt.Owner(name).ID == rt.self.ID }

// RemoteOwner returns the healthy remote peer owning name, or false when the
// name is locally owned.
func (rt *Router) RemoteOwner(name string) (*Peer, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	m, _ := rt.nodeRing.OwnerFunc(name, rt.memberHealthy)
	if m.ID == rt.self.ID {
		return nil, false
	}
	return rt.peers[m.ID], true
}

// HandoffSource returns the healthy peer that owned name before this node
// did: the rendezvous owner among the OTHER healthy members. That is where a
// freshly gained index should be pulled from — after a join it is the old
// owner (rendezvous moves a name only when the new member wins it), and
// after a node returns from a failover it is the member that rebuilt in its
// absence. ok is false when no other healthy member exists (then there is
// nobody to pull from and the caller rebuilds).
func (rt *Router) HandoffSource(name string) (*Peer, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	m, ok := rt.nodeRing.OwnerFunc(name, func(m Member) bool {
		return m.ID != rt.self.ID && rt.memberHealthy(m)
	})
	if !ok {
		return nil, false
	}
	return rt.peers[m.ID], true
}

// Peer returns the client for the given remote member id.
func (rt *Router) Peer(id string) (*Peer, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	p, ok := rt.peers[id]
	return p, ok
}

// Peers returns the remote peers sorted by ring order (excluding self).
func (rt *Router) Peers() []*Peer {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make([]*Peer, 0, len(rt.peers))
	for _, m := range rt.nodeRing.Members() {
		if p, ok := rt.peers[m.ID]; ok {
			out = append(out, p)
		}
	}
	return out
}

// Members returns the full node ring (self included) sorted by id.
func (rt *Router) Members() []Member {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.nodeRing.Members()
}

// SingleNode reports whether the ring has no remote peers, letting the HTTP
// layer skip ownership checks entirely.
func (rt *Router) SingleNode() bool {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return len(rt.peers) == 0
}

// StartHealth launches the background peer health loop, probing every peer's
// /healthz each interval. It is a no-op with a non-positive interval. Close
// stops the loop. The loop re-reads the peer set every tick, so members that
// join at runtime are probed too.
func (rt *Router) StartHealth(interval time.Duration) {
	if interval <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-rt.stopc:
				return
			case <-ticker.C:
				for _, p := range rt.Peers() {
					ctx, cancel := context.WithTimeout(context.Background(), interval)
					p.Check(ctx) //nolint:errcheck // failures are recorded on the peer itself
					cancel()
				}
			}
		}
	}()
}

// Close stops the health loop. Safe to call multiple times.
func (rt *Router) Close() { rt.stopOnce.Do(func() { close(rt.stopc) }) }
