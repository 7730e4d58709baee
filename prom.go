package fairrank

import (
	"net/http"
	"sort"
	"time"

	"fairrank/internal/cluster"
	"fairrank/internal/obs"
	"fairrank/internal/service"
)

// Prometheus text exposition of /metrics (?format=prometheus). The same
// counters as the JSON document, renamed into Prometheus conventions:
// per-designer serving counters and the latency histogram (cumulative le
// buckets in seconds) with p50/p95/p99 gauges, planner gauges, and the
// node's cluster series — gossip rounds and digest-diff volumes, converge
// and handoff durations, handoff bytes, per-peer forwards and health, ring
// version. Rendered by internal/obs.Prom; no client library involved.

// clusterMetricsJSON is the "cluster" section of the JSON /metrics document.
type clusterMetricsJSON struct {
	RingVersion    uint64                `json:"ring_version"`
	MetaEntries    int                   `json:"meta_entries"`
	MetaTombstones int                   `json:"meta_tombstones"`
	MetaGCed       int64                 `json:"meta_tombstones_gced"`
	MetaApplied    int64                 `json:"meta_applied"`
	MetaRejected   int64                 `json:"meta_rejected"`
	Stats          cluster.StatsSnapshot `json:"stats"`
	Peers          []peerMetricsJSON     `json:"peers,omitempty"`
}

type peerMetricsJSON struct {
	ID              string `json:"id"`
	Healthy         bool   `json:"healthy"`
	Forwards        int64  `json:"forwards"`
	ForwardFailures int64  `json:"forward_failures"`
}

func (s *Server) clusterMetrics() clusterMetricsJSON {
	applied, rejected := s.meta.ApplyCounts()
	cm := clusterMetricsJSON{
		RingVersion:    s.router.RingVersion(),
		MetaEntries:    s.meta.Len(),
		MetaTombstones: s.meta.TombstoneCount(),
		MetaGCed:       s.meta.TombstonesGCed(),
		MetaApplied:    applied,
		MetaRejected:   rejected,
		Stats:          s.router.Stats().Snapshot(),
	}
	for _, p := range s.router.Peers() {
		fw, ff := p.ForwardCounts()
		cm.Peers = append(cm.Peers, peerMetricsJSON{
			ID: p.Member().ID, Healthy: p.Healthy(), Forwards: fw, ForwardFailures: ff,
		})
	}
	sort.Slice(cm.Peers, func(i, j int) bool { return cm.Peers[i].ID < cm.Peers[j].ID })
	return cm
}

// writePrometheus renders the full node state as Prometheus text exposition.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	p := obs.NewProm()

	p.Gauge("fairrank_uptime_seconds", "Seconds since this node started.",
		time.Since(s.start).Seconds())
	p.Gauge("fairrank_datasets", "Registered datasets on this node.",
		float64(len(s.DatasetIDs())))

	ids := s.DesignerIDs()
	p.Gauge("fairrank_designers", "Designer specs known to this node (remote-owned included).",
		float64(len(ids)))
	bounds := service.BucketBounds()
	boundsSec := make([]float64, len(bounds))
	for i, b := range bounds {
		boundsSec[i] = b.Seconds()
	}
	for _, id := range ids {
		st, err := s.DesignerStatus(id)
		if err != nil || st.Status == service.StatusRemote {
			continue // the owner exposes its serving counters
		}
		m := st.Metrics
		l := []string{"designer", id}
		p.Counter("fairrank_designer_queries_total", "Single suggest queries served.", float64(m.Queries), l...)
		p.Counter("fairrank_designer_batches_total", "Suggest batches served.", float64(m.Batches), l...)
		p.Counter("fairrank_designer_batch_queries_total", "Queries served through batches.", float64(m.BatchQueries), l...)
		p.Counter("fairrank_designer_errors_total", "Queries that returned an error.", float64(m.Errors), l...)
		p.Counter("fairrank_designer_cache_hits_total", "Queries answered from the suggest memo cache.", float64(m.CacheHits), l...)
		p.Counter("fairrank_designer_cache_misses_total", "Cacheable queries that went to the engine.", float64(m.CacheMisses), l...)
		p.Counter("fairrank_designer_rebuilds_total", "Index rebuilds since creation.", float64(st.Rebuilds), l...)
		p.Gauge("fairrank_designer_generation", "Engine swap generation (cache invalidation epoch).", float64(st.Generation), l...)
		p.Gauge("fairrank_designer_batch_dedup_rate", "Fraction of batch slots answered by duplicate fan-out.", m.BatchDedupRate, l...)
		p.Gauge("fairrank_designer_planned_chunk_size", "Most recent planner chunk size.", float64(m.PlannedChunkSize), l...)
		if len(m.LatencyBuckets) == len(boundsSec)+1 {
			counts := make([]int64, len(m.LatencyBuckets))
			for i, b := range m.LatencyBuckets {
				counts[i] = b.Count
			}
			p.Histogram("fairrank_suggest_latency_seconds",
				"Per-query suggest latency (batches amortized per query).",
				boundsSec, counts, float64(m.LatencySumNs)/1e9, l...)
		}
		for _, q := range []struct {
			q  string
			ns int64
		}{{"0.5", m.LatencyP50Ns}, {"0.95", m.LatencyP95Ns}, {"0.99", m.LatencyP99Ns}} {
			p.Gauge("fairrank_suggest_latency_quantile_seconds",
				"Suggest latency quantiles estimated from the histogram.",
				float64(q.ns)/1e9, "designer", id, "quantile", q.q)
		}
	}

	cm := s.clusterMetrics()
	p.Gauge("fairrank_ring_version", "Version of the gossiped ring membership this node serves on.",
		float64(cm.RingVersion))
	p.Gauge("fairrank_meta_entries", "Entries in the replicated metadata store (tombstones included).",
		float64(cm.MetaEntries))
	p.Gauge("fairrank_meta_tombstones", "Live tombstones awaiting cluster-wide acknowledgement.",
		float64(cm.MetaTombstones))
	p.Counter("fairrank_meta_tombstones_gced_total", "Tombstones compacted after every member acked them.",
		float64(cm.MetaGCed))
	p.Counter("fairrank_meta_applied_total", "Remote metadata entries accepted by Apply.", float64(cm.MetaApplied))
	p.Counter("fairrank_meta_rejected_total", "Remote metadata entries rejected as stale or duplicate.", float64(cm.MetaRejected))

	st := cm.Stats
	p.Counter("fairrank_gossip_rounds_total", "Completed anti-entropy digest exchanges.", float64(st.GossipRounds))
	p.Counter("fairrank_gossip_failures_total", "Anti-entropy exchanges that errored.", float64(st.GossipFailures))
	p.Counter("fairrank_gossip_entries_pulled_total", "Metadata entries pulled in digest diffs.", float64(st.GossipEntriesPulled))
	p.Counter("fairrank_gossip_entries_pushed_total", "Metadata entries pushed in digest diffs.", float64(st.GossipEntriesPushed))
	p.Summary("fairrank_gossip_converge_seconds", "Wall time of anti-entropy exchanges.",
		float64(st.GossipNsTotal)/1e9, st.GossipRounds)

	p.Counter("fairrank_handoff_pulls_total", "Index handoffs pulled from previous owners.", float64(st.HandoffPulls))
	p.Counter("fairrank_handoff_pushes_total", "Index handoffs pushed while draining.", float64(st.HandoffPushes))
	p.Counter("fairrank_handoff_failures_total", "Index handoffs that fell back to rebuild.", float64(st.HandoffFailures))
	p.Counter("fairrank_handoff_bytes_total", "Index bytes received on handoff endpoints.",
		float64(st.HandoffBytesIn), "direction", "in")
	p.Counter("fairrank_handoff_bytes_total", "Index bytes served on handoff endpoints.",
		float64(st.HandoffBytesOut), "direction", "out")
	p.Counter("fairrank_handoff_resumes_total", "Broken handoff streams resumed from a section boundary.",
		float64(st.HandoffResumes))
	p.Summary("fairrank_handoff_seconds", "Wall time of index transfers (fetch + load).",
		float64(st.HandoffNsTotal)/1e9, st.HandoffPulls+st.HandoffPushes)

	p.Counter("fairrank_patch_total", "Dataset patches applied on this node.",
		float64(s.patchTotal.Load()))
	p.Counter("fairrank_patch_designer_total", "Designer indexes spliced incrementally by a dataset patch.",
		float64(s.patchRepairs.Load()), "path", "repair")
	p.Counter("fairrank_patch_designer_total", "Designer indexes rebuilt by a dataset patch (churn above threshold, or no retained build state).",
		float64(s.patchRebuilds.Load()), "path", "rebuild")
	repairCounts, repairSum := s.patchDur.snapshot()
	p.Histogram("fairrank_patch_repair_seconds", "Latency of incremental index repairs (rebuild fallbacks excluded).",
		patchBoundsSec, repairCounts, repairSum)

	p.Gauge("fairrank_replica_factor", "Effective read replicas per designer (gossiped -replicas value).",
		float64(s.replicaFactor()))
	p.Counter("fairrank_replica_pushes_total", "Sealed indexes pushed to followers by owners on this node.",
		float64(st.ReplicaPushes))
	p.Counter("fairrank_replica_pulls_total", "Missed replica pushes repaired by pulling from the owner.",
		float64(st.ReplicaPulls))
	p.Counter("fairrank_replica_promotions_total", "Index copies activated into serving on failover, drain or ownership pull (rebuilds avoided).",
		float64(st.ReplicaPromotions))
	p.Counter("fairrank_replica_reads_total", "Suggest reads answered from this node's replica copies.",
		float64(st.ReplicaReadsLocal), "path", "local")
	p.Counter("fairrank_replica_reads_total", "Suggest reads fanned out to another member of the replica set.",
		float64(st.ReplicaReadsForwarded), "path", "forwarded")
	p.Counter("fairrank_replica_stale_forwards_total", "Reads refused by the stale-read guard and sent to the owner.",
		float64(st.ReplicaStaleForwards))
	lags := s.replicaLags()
	lagIDs := make([]string, 0, len(lags))
	for id := range lags {
		lagIDs = append(lagIDs, id)
	}
	sort.Strings(lagIDs)
	for _, id := range lagIDs {
		p.Gauge("fairrank_replica_lag_generations",
			"Generations this node's replica copy lags the owner's publication (0 = caught up).",
			float64(lags[id]), "designer", id)
	}

	for _, peer := range cm.Peers {
		p.Counter("fairrank_forwards_total", "Requests proxied to the peer.", float64(peer.Forwards), "peer", peer.ID)
		p.Counter("fairrank_forward_failures_total", "Proxied requests that failed at the transport.", float64(peer.ForwardFailures), "peer", peer.ID)
		healthy := 0.0
		if peer.Healthy {
			healthy = 1
		}
		p.Gauge("fairrank_peer_healthy", "1 while the peer is believed reachable.", healthy, "peer", peer.ID)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	p.WriteTo(w) //nolint:errcheck // best-effort write to the client
}
