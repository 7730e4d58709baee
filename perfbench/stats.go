package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a reported tail
// percentile. With fewer, the "tail" is one or two unlucky requests and
// swings from run to run; the workloads size every op class so that the
// rule holds in at least three parts of a run (see partsFor: p95 needs 200
// samples per part, p90 needs 100).
const minBeyond = 10

// failedLatency is the latency recorded for a failed op: the client timeout,
// so that a failure misses every latency limit a reader may set.
const failedLatency = 30 * time.Second

// samples collects the latencies of one op class, plus its attempted and
// failed counts.
type samples struct {
	name      string
	attempted int
	failed    int
	lat       []time.Duration
}

func newSamples(name string, capacity int) *samples {
	return &samples{name: name, lat: make([]time.Duration, 0, capacity)}
}

// add records one op; a failed op counts as failedLatency.
func (s *samples) add(d time.Duration, ok bool) {
	s.attempted++
	if !ok {
		s.failed++
		d = failedLatency
	}
	s.lat = append(s.lat, d)
}

// nearestRank returns the sample at quantile q of sorted values (nearest-rank
// definition) and how many samples lie strictly beyond that rank.
func nearestRank(sorted []float64, q float64) (v float64, beyond int) {
	n := len(sorted)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n - rank
}

// tail returns the q-quantile of xs, refusing when fewer than minBeyond
// samples lie beyond it.
func tail(xs []float64, q float64) (float64, int, error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("p%g of no samples", q*100)
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	v, beyond := nearestRank(sorted, q)
	if q > 0.5 && beyond < minBeyond {
		return 0, beyond, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, len(xs), beyond, minBeyond)
	}
	return v, beyond, nil
}

// maxParts caps how many consecutive parts of a run each end-to-end
// percentile is taken over; the run reports the median of the parts'
// values. Every op class is spread evenly through the run, so its parts are
// consecutive stretches of time. A burst of interference on the shared VM
// that slows a few seconds of one run then moves a few parts and not the
// median: with one percentile over the whole run, runs whose medians agreed
// within 2% saw their p90 move by up to 2.2x (loop-2d patches, 2.4 against
// 5.4 ms). Many parts also keep the median in the run's majority regime:
// churn-replicated's reads ran through a stretch of about a quarter of the
// run with a p99 of 0.3 ms against 1.0–1.4 ms elsewhere, and with three
// parts the median was the middle third's p99, which straddled it.
const maxParts = 15

// partsFor is how many parts n samples are split into for a percentile at
// q: as many as leave at least minBeyond samples beyond q in every part, up
// to maxParts. A class's p50 uses the parts of its tail, so both figures
// come from the same stretches.
func partsFor(n int, q float64) int {
	for k := maxParts; k > 1; k-- {
		m := n / k // the smallest part
		if m-int(math.Ceil(q*float64(m))) >= minBeyond {
			return k
		}
	}
	return 1
}

// percentile returns the q-quantile of xs, in arrival order, as the median
// of its values over k consecutive parts, and the fewest samples that lie
// beyond it in one part. It refuses when a part has fewer than minBeyond
// beyond its quantile.
func percentile(xs []float64, q float64, k int) (float64, int, error) {
	var vals []float64
	least := len(xs)
	for i := 0; i < k; i++ {
		v, beyond, err := tail(xs[i*len(xs)/k:(i+1)*len(xs)/k], q)
		if err != nil {
			return 0, beyond, fmt.Errorf("part %d of %d: %w", i+1, k, err)
		}
		vals = append(vals, v)
		least = min(least, beyond)
	}
	return median(vals), least, nil
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive" method),
// which is how the spread of repeated runs is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Exclusive method: position m = j*(n+1)/4, interpolated, clamped.
		m := float64(j) * float64(n+1) / 4
		k := int(math.Floor(m))
		frac := m - float64(k)
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + frac*(s[k]-s[k-1])
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// slopOf splits a released op's lateness (send − due, due being its
// release). The op could be sent once it was due and the stream's previous
// op had ended (prevEnd); waiting for that previous op is the system's
// doing. The rest, from that moment to the actual send, is the sender's own
// slop, its goroutine's wake-up, and says the generator, not the system,
// fell behind. All arguments are offsets from one epoch.
func slopOf(due, prevEnd, send time.Duration) time.Duration {
	return max(send-max(due, prevEnd), 0)
}
