package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"fairrank/internal/obs"
)

// latency histogram buckets: powers of 4 from 1µs to ~1s, plus overflow.
// Suggest on a warm 2D index sits in the first buckets; a cold ModeExact
// NLP solve lands near the top — one scale covers every engine.
var bucketBounds = [...]time.Duration{
	1 * time.Microsecond,
	4 * time.Microsecond,
	16 * time.Microsecond,
	64 * time.Microsecond,
	256 * time.Microsecond,
	1 * time.Millisecond,
	4 * time.Millisecond,
	16 * time.Millisecond,
	64 * time.Millisecond,
	256 * time.Millisecond,
	1 * time.Second,
}

// BucketBounds returns the fixed latency-histogram scale shared by every
// snapshot — exporters (Prometheus text rendering, quantile estimation)
// need the numeric bounds behind the formatted Le strings.
func BucketBounds() []time.Duration {
	out := make([]time.Duration, len(bucketBounds))
	copy(out, bucketBounds[:])
	return out
}

// Metrics accumulates per-designer serving counters. All fields are atomic:
// the query path records without locks, and Snapshot reads without stopping
// traffic.
type Metrics struct {
	queries      atomic.Int64 // single Suggest calls served
	batches      atomic.Int64 // SuggestBatch calls served
	batchQueries atomic.Int64 // queries served through batches
	errors       atomic.Int64 // queries that returned an error
	cacheHits    atomic.Int64 // Suggest calls and batch slots answered from the memo cache
	cacheMisses  atomic.Int64 // cacheable single-query Suggest calls that went to the engine
	latencySum   atomic.Int64 // nanoseconds, per-query (batch time amortized)
	latencyCount atomic.Int64
	buckets      [len(bucketBounds) + 1]atomic.Int64
}

// recordCacheHit counts one Suggest answered from the memo cache.
func (m *Metrics) recordCacheHit() { m.cacheHits.Add(1) }

// recordCacheHits counts n batch slots answered from the memo cache — batch
// hits land in the same cache_hits counter as single-query hits.
func (m *Metrics) recordCacheHits(n int) { m.cacheHits.Add(int64(n)) }

// recordCacheMiss counts one cacheable Suggest that had to ask the engine.
func (m *Metrics) recordCacheMiss() { m.cacheMisses.Add(1) }

// recordQueries records n single-query observations of the given total
// duration.
func (m *Metrics) recordQueries(n int, elapsed time.Duration, failed int) {
	m.queries.Add(int64(n))
	m.errors.Add(int64(failed))
	m.observe(n, elapsed)
}

// recordBatch records one batch of n queries served in elapsed total time;
// the histogram takes the amortized per-query latency.
func (m *Metrics) recordBatch(n int, elapsed time.Duration, failed int) {
	m.batches.Add(1)
	m.batchQueries.Add(int64(n))
	m.errors.Add(int64(failed))
	m.observe(n, elapsed)
}

func (m *Metrics) observe(n int, elapsed time.Duration) {
	if n <= 0 {
		return
	}
	per := elapsed / time.Duration(n)
	m.latencySum.Add(int64(elapsed))
	m.latencyCount.Add(int64(n))
	for i, bound := range bucketBounds {
		if per < bound {
			m.buckets[i].Add(int64(n))
			return
		}
	}
	m.buckets[len(bucketBounds)].Add(int64(n))
}

// Bucket is one histogram bar: the count of queries whose per-query latency
// fell below Le (an upper bound like "256µs"; "+inf" for the overflow bar).
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// MetricsSnapshot is a point-in-time copy of the counters, shaped for JSON.
type MetricsSnapshot struct {
	Queries        int64    `json:"queries"`
	Batches        int64    `json:"batches"`
	BatchQueries   int64    `json:"batch_queries"`
	Errors         int64    `json:"errors"`
	CacheHits      int64    `json:"cache_hits"`
	CacheMisses    int64    `json:"cache_misses"`
	LatencyMeanNs  int64    `json:"latency_mean_ns"`
	LatencySumNs   int64    `json:"latency_sum_ns"`
	LatencyBuckets []Bucket `json:"latency_buckets"`

	// Quantiles estimated from the fixed-scale histogram bars (linear
	// interpolation within the winning bucket, clamped at the largest finite
	// bound). Pure functions of the bars, so Merge recomputes them from the
	// merged bars and they stay exact under cross-shard rollup: merged
	// quantiles == quantiles of the combined traffic.
	LatencyP50Ns int64 `json:"latency_p50_ns"`
	LatencyP95Ns int64 `json:"latency_p95_ns"`
	LatencyP99Ns int64 `json:"latency_p99_ns"`

	// Batch-planner observables, filled for engines that expose BatchPlanner
	// (see SetBatchPlan): the fraction of batch slots answered by duplicate
	// fan-out and the most recent planned chunk size (a gauge). The two slot
	// totals carry the dedup rate's numerator and denominator so Merge can
	// recombine the rate exactly across shards.
	BatchDedupRate    float64 `json:"batch_dedup_rate"`
	PlannedChunkSize  int64   `json:"planned_chunk_size"`
	BatchPlannerSlots int64   `json:"batch_planner_slots,omitempty"`
	BatchDedupedSlots int64   `json:"batch_deduped_slots,omitempty"`
}

// BatchPlanStats is the planner-decision summary an Engine exposes through
// the optional BatchPlanner interface.
type BatchPlanStats struct {
	Slots         int64 // batch query slots seen by the planner
	DedupedSlots  int64 // slots answered by duplicate fan-out
	LastChunkSize int64 // chunk size of the most recent batch
}

// SetBatchPlan fills the snapshot's planner fields from an engine's stats.
func (s *MetricsSnapshot) SetBatchPlan(p BatchPlanStats) {
	s.BatchPlannerSlots = p.Slots
	s.BatchDedupedSlots = p.DedupedSlots
	s.PlannedChunkSize = p.LastChunkSize
	if p.Slots > 0 {
		s.BatchDedupRate = float64(p.DedupedSlots) / float64(p.Slots)
	}
}

// Snapshot copies the counters. Taken bucket-by-bucket without a lock, so
// totals may be mid-update by a few queries — fine for monitoring.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Queries:      m.queries.Load(),
		Batches:      m.batches.Load(),
		BatchQueries: m.batchQueries.Load(),
		Errors:       m.errors.Load(),
		CacheHits:    m.cacheHits.Load(),
		CacheMisses:  m.cacheMisses.Load(),
	}
	s.LatencySumNs = m.latencySum.Load()
	if count := m.latencyCount.Load(); count > 0 {
		s.LatencyMeanNs = s.LatencySumNs / count
	}
	s.LatencyBuckets = make([]Bucket, 0, len(m.buckets))
	for i := range m.buckets {
		le := "+inf"
		if i < len(bucketBounds) {
			le = formatBound(bucketBounds[i])
		}
		s.LatencyBuckets = append(s.LatencyBuckets, Bucket{Le: le, Count: m.buckets[i].Load()})
	}
	s.refreshQuantiles()
	return s
}

// refreshQuantiles recomputes p50/p95/p99 from the histogram bars. Called
// after Snapshot fills the bars and again after Merge adds bars together —
// in both cases the inputs are the same fixed-scale bars, so a merged
// snapshot reports exactly the quantiles of the combined traffic.
func (s *MetricsSnapshot) refreshQuantiles() {
	if len(s.LatencyBuckets) != len(bucketBounds)+1 {
		return // foreign or legacy snapshot on a different scale
	}
	counts := make([]int64, len(s.LatencyBuckets))
	for i, b := range s.LatencyBuckets {
		counts[i] = b.Count
	}
	bounds := bucketBounds[:]
	s.LatencyP50Ns = obs.HistogramQuantile(0.50, bounds, counts).Nanoseconds()
	s.LatencyP95Ns = obs.HistogramQuantile(0.95, bounds, counts).Nanoseconds()
	s.LatencyP99Ns = obs.HistogramQuantile(0.99, bounds, counts).Nanoseconds()
}

// Merge folds o into s: counters and latency sums add, histograms add bar
// by bar (every snapshot shares the fixed bucketBounds scale), the mean
// recombines from the merged sum and count, and the quantiles are
// recomputed from the merged bars — the per-shard rollup of a cluster
// status endpoint, exact in the sense that merging split snapshots yields
// the snapshot of the combined traffic.
func (s *MetricsSnapshot) Merge(o MetricsSnapshot) {
	sn, on := bucketTotal(s.LatencyBuckets), bucketTotal(o.LatencyBuckets)
	switch {
	case s.LatencySumNs+o.LatencySumNs > 0 && sn+on > 0:
		s.LatencyMeanNs = (s.LatencySumNs + o.LatencySumNs) / (sn + on)
	case sn+on > 0:
		// Legacy snapshots (no latency_sum_ns) recombine weighted by
		// observation count — the best available estimate.
		s.LatencyMeanNs = (s.LatencyMeanNs*sn + o.LatencyMeanNs*on) / (sn + on)
	}
	s.LatencySumNs += o.LatencySumNs
	s.Queries += o.Queries
	s.Batches += o.Batches
	s.BatchQueries += o.BatchQueries
	s.Errors += o.Errors
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.BatchPlannerSlots += o.BatchPlannerSlots
	s.BatchDedupedSlots += o.BatchDedupedSlots
	if s.BatchPlannerSlots > 0 {
		s.BatchDedupRate = float64(s.BatchDedupedSlots) / float64(s.BatchPlannerSlots)
	}
	// PlannedChunkSize is a gauge with no cross-shard ordering, so the merge
	// must be deterministic regardless of fold order: take the max. (The old
	// keep-s-if-nonzero rule silently discarded o's more recent observation.)
	if o.PlannedChunkSize > s.PlannedChunkSize {
		s.PlannedChunkSize = o.PlannedChunkSize
	}
	if len(s.LatencyBuckets) == 0 {
		s.LatencyBuckets = append([]Bucket(nil), o.LatencyBuckets...)
		s.refreshQuantiles()
		return
	}
	for i := range s.LatencyBuckets {
		if i < len(o.LatencyBuckets) {
			s.LatencyBuckets[i].Count += o.LatencyBuckets[i].Count
		}
	}
	s.refreshQuantiles()
}

// bucketTotal is the histogram's observation count: observe adds each query
// to exactly one bar, so the bar sum equals the latency count.
func bucketTotal(buckets []Bucket) int64 {
	var n int64
	for _, b := range buckets {
		n += b.Count
	}
	return n
}

func formatBound(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%ds", int(d/time.Second))
	case d >= time.Millisecond:
		return fmt.Sprintf("%dms", int(d/time.Millisecond))
	default:
		return fmt.Sprintf("%dµs", int(d/time.Microsecond))
	}
}
