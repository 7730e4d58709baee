package planner

import (
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/geom"
)

// checkSchedule verifies the structural invariants every non-pass-through
// plan must satisfy: SlotOf covers every slot, each scheduled query is
// bit-identical to the slots it answers, and the schedule holds each
// distinct bit pattern exactly once.
func checkSchedule(t *testing.T, qs []geom.Vector, p Plan) {
	t.Helper()
	if len(p.SlotOf) != len(qs) {
		t.Fatalf("SlotOf has %d entries for %d slots", len(p.SlotOf), len(qs))
	}
	if len(p.Queries) != len(p.Reps) {
		t.Fatalf("%d scheduled queries but %d reps", len(p.Queries), len(p.Reps))
	}
	seen := map[string]bool{}
	var key []byte
	for _, q := range p.Queries {
		key = rawKey(key[:0], q)
		if seen[string(key)] {
			t.Fatalf("schedule holds duplicate query %v", q)
		}
		seen[string(key)] = true
	}
	for i, k := range p.SlotOf {
		if k < 0 || k >= len(p.Queries) {
			t.Fatalf("slot %d maps to schedule position %d of %d", i, k, len(p.Queries))
		}
		a, b := qs[i], p.Queries[k]
		if len(a) != len(b) {
			t.Fatalf("slot %d query dim %d, scheduled dim %d", i, len(a), len(b))
		}
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("slot %d query %v answered by non-identical %v", i, a, b)
			}
		}
		if rep := p.Reps[k]; math.Float64bits(qs[rep][0]) != math.Float64bits(qs[i][0]) {
			t.Fatalf("slot %d rep %d holds a different query", i, rep)
		}
	}
}

func randomQueries(n int, r *rand.Rand) []geom.Vector {
	qs := make([]geom.Vector, n)
	for i := range qs {
		theta := r.Float64() * math.Pi / 2
		qs[i] = geom.Vector{math.Cos(theta), math.Sin(theta)}
	}
	return qs
}

func TestTinyBatchPassesThrough(t *testing.T) {
	var st State
	qs := randomQueries(minPlanBatch-1, rand.New(rand.NewSource(1)))
	p := st.Plan(qs)
	if !p.PassThrough() {
		t.Fatalf("batch of %d should pass through, got plan %+v", len(qs), p)
	}
	if p.Workers < 1 || p.ChunkSize < 1 {
		t.Fatalf("degenerate execution shape %+v", p)
	}
}

func TestDedupCollapsesIdenticalQueries(t *testing.T) {
	var st State
	base := randomQueries(8, rand.New(rand.NewSource(2)))
	qs := make([]geom.Vector, 0, 128)
	for i := 0; i < 128; i++ {
		qs = append(qs, base[i%len(base)])
	}
	p := st.Plan(qs)
	if p.PassThrough() || !p.Deduped {
		t.Fatalf("duplicate-heavy batch should be deduped, got %+v", p)
	}
	if len(p.Queries) != len(base) {
		t.Fatalf("expected %d unique queries, scheduled %d", len(base), len(p.Queries))
	}
	checkSchedule(t, qs, p)
	if s := st.Stats(); s.DupRateEWMA <= 0 {
		t.Fatalf("dup rate EWMA not observed: %+v", s)
	}
}

func TestDedupDistinguishesBitPatterns(t *testing.T) {
	var st State
	qs := make([]geom.Vector, 0, 64)
	for i := 0; i < 16; i++ {
		qs = append(qs,
			geom.Vector{0.5, 0.5},
			geom.Vector{0.5, math.Nextafter(0.5, 1)}, // one ulp off: distinct
			geom.Vector{0.5, 0.5, 0},                 // extra coordinate: distinct
			geom.Vector{math.Copysign(0, -1), 0.5},   // −0 vs +0: distinct
		)
	}
	p := st.Plan(qs)
	if p.PassThrough() {
		t.Fatal("expected a planned batch")
	}
	if len(p.Queries) != 4 {
		t.Fatalf("expected 4 distinct bit patterns, scheduled %d", len(p.Queries))
	}
	checkSchedule(t, qs, p)
}

// An expensive kernel (high EWMA) must turn sorting on, and the 2D schedule
// must come out in non-decreasing polar-angle order.
func TestExpensiveKernelSortsSchedule(t *testing.T) {
	var st State
	st.observeEWMA(&st.ewmaKernelNs, 50_000) // exact-engine territory
	r := rand.New(rand.NewSource(3))
	qs := randomQueries(256, r)
	p := st.Plan(qs)
	if p.PassThrough() || !p.Sorted {
		t.Fatalf("expensive kernel should sort, got %+v", p)
	}
	checkSchedule(t, qs, p)
	prev := math.Inf(-1)
	for _, q := range p.Queries {
		theta := math.Atan2(q[1], q[0])
		if theta < prev {
			t.Fatalf("schedule not angle-sorted: %v after %v", theta, prev)
		}
		prev = theta
	}
}

// A cheap kernel over unique traffic must settle into pass-through: after
// the dup-rate EWMA learns there are no duplicates, only the periodic probe
// batches pay for hashing.
func TestCheapUniqueTrafficSettlesToPassThrough(t *testing.T) {
	var st State
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 10; i++ {
		qs := randomQueries(128, r)
		p := st.Plan(qs)
		st.Observe(&p, 128, 128*100) // 100ns/query: 2D territory
	}
	passes := 0
	for i := 0; i < 10; i++ {
		qs := randomQueries(128, r)
		p := st.Plan(qs)
		if p.PassThrough() {
			passes++
		}
		st.Observe(&p, 128, 128*100)
	}
	if passes < 8 { // probe batches may plan; most must not
		t.Fatalf("cheap unique traffic planned too often: %d/10 passes", passes)
	}
}

// The periodic probe must notice a workload drifting from unique to
// duplicate-heavy even after the EWMA has written dedup off. The kernel must
// be expensive enough to clear the cost gate (dup rate × kernel EWMA ≥
// dedupPayNs) — for a kernel cheaper than the hash itself, staying off is
// the correct answer.
func TestDupProbeNoticesWorkloadShift(t *testing.T) {
	var st State
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		qs := randomQueries(64, r)
		p := st.Plan(qs)
		st.Observe(&p, 64, 64*20_000) // expensive kernel, unique traffic
	}
	base := randomQueries(4, r)
	deduped := false
	for i := 0; i < 2*dupProbePeriod && !deduped; i++ {
		qs := make([]geom.Vector, 64)
		for j := range qs {
			qs[j] = base[j%len(base)]
		}
		p := st.Plan(qs)
		deduped = p.Deduped && len(p.Queries) == len(base)
		st.Observe(&p, len(p.Queries), float64(len(p.Queries))*20_000)
	}
	if !deduped {
		t.Fatalf("probe never re-discovered duplicates within %d batches", 2*dupProbePeriod)
	}
}

// A kernel cheaper than the hash pass must keep dedup off no matter how
// duplicate-heavy the traffic is: hashing 100% duplicates still costs more
// than just answering them on a ~100ns kernel.
func TestCheapKernelSkipsDedupDespiteDuplicates(t *testing.T) {
	var st State
	base := randomQueries(4, rand.New(rand.NewSource(7)))
	qs := make([]geom.Vector, 128)
	for j := range qs {
		qs[j] = base[j%len(base)]
	}
	// First batch hashes unconditionally to seed the dup-rate EWMA.
	p := st.Plan(qs)
	if !p.Deduped {
		t.Fatalf("seed batch should hash, got %+v", p)
	}
	st.Observe(&p, len(p.Queries), float64(len(p.Queries))*100)
	for i := 0; i < 10; i++ {
		p := st.Plan(qs)
		if p.Deduped {
			t.Fatalf("batch %d: cheap kernel paid for dedup hashing: %+v", i, p)
		}
		st.Observe(&p, 128, 128*100)
	}
}

func TestChunkShapeCoversSchedule(t *testing.T) {
	var st State
	st.observeEWMA(&st.ewmaKernelNs, 10_000)
	for _, n := range []int{1, 7, 63, 256, 1000} {
		p := st.chunked(Plan{}, n, st.kernelNs())
		if p.ChunkSize < 1 || p.Workers < 1 {
			t.Fatalf("n=%d: degenerate shape %+v", n, p)
		}
		chunks := (n + p.ChunkSize - 1) / p.ChunkSize
		if p.Workers > 1 && chunks < p.Workers {
			t.Fatalf("n=%d: %d chunks for %d workers", n, chunks, p.Workers)
		}
	}
}

func TestOrderedBitsMonotone(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -1, -1e-300, math.Copysign(0, -1), 0, 1e-300, 1, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		if orderedBits(vals[i-1]) > orderedBits(vals[i]) {
			t.Fatalf("orderedBits not monotone at %v -> %v", vals[i-1], vals[i])
		}
	}
}

func TestHighDimSortGroupsSignPatterns(t *testing.T) {
	var st State
	st.observeEWMA(&st.ewmaKernelNs, 50_000)
	r := rand.New(rand.NewSource(6))
	qs := make([]geom.Vector, 128)
	for i := range qs {
		qs[i] = geom.Vector{r.Float64(), r.Float64(), r.Float64(), r.Float64()}
	}
	p := st.Plan(qs)
	if !p.Sorted {
		t.Fatalf("expected sorted plan, got %+v", p)
	}
	checkSchedule(t, qs, p)
	// Same-bucket queries must be contiguous: walk the schedule and require
	// each (sign pattern, dominant axis) bucket to appear in one run.
	bucketOf := func(q geom.Vector) uint64 {
		var signs uint64
		dom, mag := 0, 0.0
		for j, c := range q {
			if c < 0 {
				signs |= 1 << uint(j)
			}
			if a := math.Abs(c); a > mag {
				mag, dom = a, j
			}
		}
		return signs<<8 | uint64(dom)
	}
	seen := map[uint64]bool{}
	var last uint64
	for i, q := range p.Queries {
		b := bucketOf(q)
		if i > 0 && b != last && seen[b] {
			t.Fatalf("bucket %x split into multiple runs", b)
		}
		seen[b] = true
		last = b
	}
}
