package service

import (
	"math/rand"
	"testing"
	"time"
)

// trafficEvent is one recorded observation, replayable onto any Metrics.
type trafficEvent struct {
	batch   bool
	n       int
	elapsed time.Duration
	failed  int
	hits    int
	misses  int
}

func (e trafficEvent) apply(m *Metrics) {
	if e.batch {
		m.recordBatch(e.n, e.elapsed, e.failed)
		m.recordCacheHits(e.hits)
	} else {
		m.recordQueries(e.n, e.elapsed, e.failed)
		for i := 0; i < e.hits; i++ {
			m.recordCacheHit()
		}
	}
	for i := 0; i < e.misses; i++ {
		m.recordCacheMiss()
	}
}

// randomTraffic spans the full bucket scale (sub-µs through multi-second
// per-query latencies, so the overflow bar is exercised too).
func randomTraffic(rng *rand.Rand, events int) []trafficEvent {
	out := make([]trafficEvent, events)
	for i := range out {
		n := 1 + rng.Intn(16)
		per := time.Duration(rng.Int63n(int64(2 * time.Second)))
		out[i] = trafficEvent{
			batch:   rng.Intn(2) == 0,
			n:       n,
			elapsed: per * time.Duration(n),
			failed:  rng.Intn(2),
			hits:    rng.Intn(3),
			misses:  rng.Intn(3),
		}
	}
	return out
}

// Merging the snapshots of traffic split across shards must equal the
// snapshot of the combined traffic — the invariant the cluster rollup on
// /v1/designers depends on. Exact for counters, bars, the dedup-rate
// numerator/denominator, the latency sum, and (because quantiles are pure
// functions of the bars) p50/p95/p99.
func TestMergeEqualsCombinedTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		events := randomTraffic(rng, 1+rng.Intn(60))
		var combined Metrics
		shards := []*Metrics{{}, {}, {}}
		for i, e := range events {
			e.apply(&combined)
			e.apply(shards[i%len(shards)])
		}

		plans := []BatchPlanStats{
			{Slots: 100, DedupedSlots: 40, LastChunkSize: 64},
			{Slots: 50, DedupedSlots: 5, LastChunkSize: 256},
			{}, // a shard whose engine exposes no planner
		}
		var combinedPlan BatchPlanStats
		for _, p := range plans {
			combinedPlan.Slots += p.Slots
			combinedPlan.DedupedSlots += p.DedupedSlots
			if p.LastChunkSize > combinedPlan.LastChunkSize {
				combinedPlan.LastChunkSize = p.LastChunkSize
			}
		}

		want := combined.Snapshot()
		want.SetBatchPlan(combinedPlan)

		var got MetricsSnapshot
		for i, m := range shards {
			s := m.Snapshot()
			s.SetBatchPlan(plans[i])
			got.Merge(s)
		}

		if got.Queries != want.Queries || got.Batches != want.Batches ||
			got.BatchQueries != want.BatchQueries || got.Errors != want.Errors ||
			got.CacheHits != want.CacheHits || got.CacheMisses != want.CacheMisses {
			t.Fatalf("round %d: counters diverge:\n got %+v\nwant %+v", round, got, want)
		}
		if got.LatencySumNs != want.LatencySumNs || got.LatencyMeanNs != want.LatencyMeanNs {
			t.Fatalf("round %d: latency sum/mean diverge: got sum=%d mean=%d, want sum=%d mean=%d",
				round, got.LatencySumNs, got.LatencyMeanNs, want.LatencySumNs, want.LatencyMeanNs)
		}
		if len(got.LatencyBuckets) != len(want.LatencyBuckets) {
			t.Fatalf("round %d: bucket scale diverged", round)
		}
		for i := range want.LatencyBuckets {
			if got.LatencyBuckets[i] != want.LatencyBuckets[i] {
				t.Fatalf("round %d: bucket %d: got %+v, want %+v",
					round, i, got.LatencyBuckets[i], want.LatencyBuckets[i])
			}
		}
		if got.LatencyP50Ns != want.LatencyP50Ns || got.LatencyP95Ns != want.LatencyP95Ns ||
			got.LatencyP99Ns != want.LatencyP99Ns {
			t.Fatalf("round %d: quantiles diverge: got (%d %d %d), want (%d %d %d)",
				round, got.LatencyP50Ns, got.LatencyP95Ns, got.LatencyP99Ns,
				want.LatencyP50Ns, want.LatencyP95Ns, want.LatencyP99Ns)
		}
		if got.BatchPlannerSlots != want.BatchPlannerSlots ||
			got.BatchDedupedSlots != want.BatchDedupedSlots ||
			got.BatchDedupRate != want.BatchDedupRate {
			t.Fatalf("round %d: planner fields diverge:\n got %+v\nwant %+v", round, got, want)
		}
		if got.PlannedChunkSize != want.PlannedChunkSize {
			t.Fatalf("round %d: chunk gauge: got %d, want max %d",
				round, got.PlannedChunkSize, want.PlannedChunkSize)
		}
	}
}

// The chunk-size gauge merge must be order-independent — the old
// keep-s-if-nonzero rule made the rollup depend on which shard folded first.
func TestMergeChunkGaugeIsOrderIndependent(t *testing.T) {
	a := MetricsSnapshot{PlannedChunkSize: 64}
	b := MetricsSnapshot{PlannedChunkSize: 512}
	ab, ba := a, b
	ab.Merge(b)
	ba.Merge(a)
	if ab.PlannedChunkSize != 512 || ba.PlannedChunkSize != 512 {
		t.Fatalf("merge not deterministic: a·b=%d b·a=%d", ab.PlannedChunkSize, ba.PlannedChunkSize)
	}
}
