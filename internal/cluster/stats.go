package cluster

import "sync/atomic"

// Stats aggregates the cluster-layer operational counters — gossip rounds
// and their digest-diff volumes, index-handoff traffic, and cumulative
// durations — incremented lock-free from the anti-entropy loop and the
// handoff paths, and drained by the /metrics exposition (JSON "cluster"
// section and the fairrank_gossip_* / fairrank_handoff_* Prometheus
// series). The Router owns one instance per node.
type Stats struct {
	// GossipRounds counts completed anti-entropy exchanges (including the
	// bootstrap exchange a joining node runs); GossipFailures the exchanges
	// that errored part-way.
	GossipRounds   atomic.Int64
	GossipFailures atomic.Int64
	// EntriesPulled / EntriesPushed count metadata entries that actually
	// moved in a digest diff — how much repair the gossip is doing.
	EntriesPulled atomic.Int64
	EntriesPushed atomic.Int64
	// GossipNs accumulates wall time spent in exchanges: together with
	// GossipRounds it yields the mean converge duration.
	GossipNs atomic.Int64

	// HandoffPulls / HandoffPushes count completed index transfers (pull:
	// this node fetched an index it now owns; push: a drain shipped one
	// out); HandoffFailures the transfers that fell back to rebuild.
	HandoffPulls    atomic.Int64
	HandoffPushes   atomic.Int64
	HandoffFailures atomic.Int64
	// HandoffBytesIn / HandoffBytesOut count index bytes received/served on
	// the handoff endpoints, both pull and push side.
	HandoffBytesIn  atomic.Int64
	HandoffBytesOut atomic.Int64
	// HandoffResumes counts mid-stream resumptions: a pull whose stream
	// broke and was continued from the last complete section boundary
	// instead of restarting from byte zero.
	HandoffResumes atomic.Int64
	// HandoffNs accumulates wall time spent transferring+loading indexes.
	HandoffNs atomic.Int64

	// ReplicaPushes / ReplicaPulls count sealed index copies that moved for
	// replication: pushes by an owner fanning a new generation out to its
	// followers, pulls by a follower repairing a missed push.
	ReplicaPushes atomic.Int64
	ReplicaPulls  atomic.Int64
	// ReplicaPromotions counts designers activated from a held copy — on
	// failover, after a drain, or after an ownership pull — each one a
	// rebuild avoided.
	ReplicaPromotions atomic.Int64
	// ReplicaReadsLocal counts Suggest/SuggestBatch reads a follower answered
	// from its own fresh copy; ReplicaReadsForwarded counts reads this node
	// fanned out across the replica set. Their ratio is the read fan-out
	// split.
	ReplicaReadsLocal     atomic.Int64
	ReplicaReadsForwarded atomic.Int64
	// ReplicaStaleForwards counts reads a follower refused to answer because
	// its copy lagged the published generation — the stale-read guard firing.
	ReplicaStaleForwards atomic.Int64
}

// StatsSnapshot is a point-in-time copy of Stats, shaped for JSON.
type StatsSnapshot struct {
	GossipRounds        int64 `json:"gossip_rounds"`
	GossipFailures      int64 `json:"gossip_failures"`
	GossipEntriesPulled int64 `json:"gossip_entries_pulled"`
	GossipEntriesPushed int64 `json:"gossip_entries_pushed"`
	GossipNsTotal       int64 `json:"gossip_ns_total"`
	HandoffPulls        int64 `json:"handoff_pulls"`
	HandoffPushes       int64 `json:"handoff_pushes"`
	HandoffFailures     int64 `json:"handoff_failures"`
	HandoffBytesIn      int64 `json:"handoff_bytes_in"`
	HandoffBytesOut     int64 `json:"handoff_bytes_out"`
	HandoffResumes      int64 `json:"handoff_resumes"`
	HandoffNsTotal      int64 `json:"handoff_ns_total"`

	ReplicaPushes         int64 `json:"replica_pushes"`
	ReplicaPulls          int64 `json:"replica_pulls"`
	ReplicaPromotions     int64 `json:"replica_promotions"`
	ReplicaReadsLocal     int64 `json:"replica_reads_local"`
	ReplicaReadsForwarded int64 `json:"replica_reads_forwarded"`
	ReplicaStaleForwards  int64 `json:"replica_stale_forwards"`
}

// Snapshot copies the counters (each atomically; the set is not a single
// consistent cut, which is fine for monitoring).
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		GossipRounds:        s.GossipRounds.Load(),
		GossipFailures:      s.GossipFailures.Load(),
		GossipEntriesPulled: s.EntriesPulled.Load(),
		GossipEntriesPushed: s.EntriesPushed.Load(),
		GossipNsTotal:       s.GossipNs.Load(),
		HandoffPulls:        s.HandoffPulls.Load(),
		HandoffPushes:       s.HandoffPushes.Load(),
		HandoffFailures:     s.HandoffFailures.Load(),
		HandoffBytesIn:      s.HandoffBytesIn.Load(),
		HandoffBytesOut:     s.HandoffBytesOut.Load(),
		HandoffResumes:      s.HandoffResumes.Load(),
		HandoffNsTotal:      s.HandoffNs.Load(),

		ReplicaPushes:         s.ReplicaPushes.Load(),
		ReplicaPulls:          s.ReplicaPulls.Load(),
		ReplicaPromotions:     s.ReplicaPromotions.Load(),
		ReplicaReadsLocal:     s.ReplicaReadsLocal.Load(),
		ReplicaReadsForwarded: s.ReplicaReadsForwarded.Load(),
		ReplicaStaleForwards:  s.ReplicaStaleForwards.Load(),
	}
}
