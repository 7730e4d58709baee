package cells

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/planner"
	"fairrank/internal/ranking"
)

// Strips cover the cells in index order, each a run of at most stripLen
// cells sharing every angle range but the last, adjacent on the last — so
// the first cell's Lo and the last cell's Hi bound the whole strip.
func TestStripsCoverRowsInOrder(t *testing.T) {
	for _, tc := range []struct{ d, n int }{{2, 50}, {3, 500}, {4, 800}} {
		g, err := NewGrid(tc.d, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		last := tc.d - 2
		next := 0
		for _, s := range g.strips() {
			if s.lo != next || s.hi <= s.lo || s.hi-s.lo > stripLen {
				t.Fatalf("d=%d: strip [%d, %d) after cell %d", tc.d, s.lo, s.hi, next)
			}
			first := g.Cells[s.lo]
			for i := s.lo + 1; i < s.hi; i++ {
				c := g.Cells[i]
				for k := 0; k < last; k++ {
					if c.Box.Lo[k] != first.Box.Lo[k] || c.Box.Hi[k] != first.Box.Hi[k] {
						t.Fatalf("d=%d: cell %d leaves strip [%d, %d) on axis %d", tc.d, i, s.lo, s.hi, k)
					}
				}
				if c.Box.Lo[last] != g.Cells[i-1].Box.Hi[last] {
					t.Fatalf("d=%d: cell %d is not adjacent to cell %d", tc.d, i, i-1)
				}
			}
			next = s.hi
		}
		if next != g.NumCells() {
			t.Fatalf("d=%d: strips end at cell %d of %d", tc.d, next, g.NumCells())
		}
	}
}

// A prober's verdict is the full ranking's at every probe: through the
// strip's candidate list inside the padded strip box, through a full
// ranking anywhere else.
func TestProberMatchesFullRanking(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var bufs ranking.Buffers
	for iter := 0; iter < 60; iter++ {
		n, d := 20+r.Intn(100), 2+r.Intn(3)
		ds := colored(t, r, n, d)
		k := 1 + r.Intn(n-1)
		// An exact blue count at the top k: most wrong top-k sets miss it.
		blue := r.Intn(k + 1)
		oracle, err := fairness.NewTopK(ds, "color", k, []fairness.GroupBound{{Group: "blue", Min: blue, Max: blue}})
		if err != nil {
			t.Fatal(err)
		}
		var calls, ranked atomic.Int64
		p := newProber(ds, oracle, fairness.Reads(oracle), &calls, &ranked)
		box := geom.Box{Lo: make(geom.Vector, d-1), Hi: make(geom.Vector, d-1)}
		for j := range box.Lo {
			box.Lo[j] = r.Float64() * math.Pi / 2
			box.Hi[j] = min(box.Lo[j]+0.2*r.Float64(), math.Pi/2)
		}
		p.Strip(box)
		for probe := 0; probe < 40; probe++ {
			theta := make(geom.Angles, d-1)
			for j := range theta {
				if probe%2 == 0 {
					theta[j] = box.Lo[j] + r.Float64()*(box.Hi[j]-box.Lo[j])
				} else {
					theta[j] = r.Float64() * math.Pi / 2
				}
			}
			order, err := bufs.Rank(ds, theta.ToCartesian(1), ranking.Need{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := p.Check(theta), oracle.Check(order); got != want {
				t.Fatalf("iter %d (n=%d d=%d k=%d, box %v–%v): probe %v judged %v, full ranking %v",
					iter, n, d, k, box.Lo, box.Hi, theta, got, want)
			}
		}
	}
}

var (
	exploreMDOnce sync.Once
	exploreMD     *Approx
	exploreMDErr  error
)

// exploreMDApprox is the approx index at explore-md's shape (n=1000, d=3,
// 4000 cells, 200 hyperplanes, a top-200 oracle), built once per process.
func exploreMDApprox(t *testing.T) *Approx {
	t.Helper()
	exploreMDOnce.Do(func() {
		ds, err := datagen.Biased(1000, 3, 0.5, 0.3, 1, 2019)
		if err != nil {
			exploreMDErr = err
			return
		}
		oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.35)
		if err != nil {
			exploreMDErr = err
			return
		}
		exploreMD, exploreMDErr = Preprocess(ds, oracle, 4000, Options{MaxHyperplanes: 200, MaxRegionsPerCell: 512})
	})
	if exploreMDErr != nil {
		t.Fatal(exploreMDErr)
	}
	return exploreMD
}

// Pruning stays on: at explore-md's approx shape a MARKCELL probe ranks
// about 0.27·n items; a regression to full rankings reads n.
func TestMarkCellRanksFewItemsPerProbe(t *testing.T) {
	a := exploreMDApprox(t)
	ds := a.DS
	st := a.MarkStats
	if st.OracleProbes == 0 {
		t.Fatal("no probes")
	}
	mean := float64(st.Ranked) / float64(st.OracleProbes)
	t.Logf("%d probes ranked %d items, %.1f per probe (n=%d)", st.OracleProbes, st.Ranked, mean, ds.N())
	if mean > 0.35*float64(ds.N()) {
		t.Errorf("a probe ranks %.1f items on average, want ≤ %.0f (0.35·n)", mean, 0.35*float64(ds.N()))
	}
}

// Batch checks stay restricted: explore-md-shaped batches (256 directions
// within about 5% per weight of a proposal, a quarter of them duplicates),
// deduplicated and sorted by the planner and cut into fixed chunks of 32,
// rank about 0.36·n items per fairness check; a regression to full rankings
// reads n. The chunks are fixed rather than the planner's, whose size
// follows measured kernel times, so the count does not depend on the host.
func TestBatchChecksRankFewItemsPerQuery(t *testing.T) {
	a := exploreMDApprox(t)
	e := NewEngine(a, false)
	n := a.DS.N()
	r := rand.New(rand.NewSource(2022))
	s := new(engine.Scratch)
	for batch := 0; batch < 40; batch++ {
		var proposal [3]float64
		for j := range proposal {
			proposal[j] = 0.01 + r.Float64()
		}
		qs := make([]geom.Vector, 256)
		for i := range qs {
			if i >= 192 {
				qs[i] = qs[r.Intn(192)]
				continue
			}
			qs[i] = make(geom.Vector, 3)
			for j := range qs[i] {
				qs[i][j] = max(0.01, proposal[j]*(1+0.05*r.NormFloat64()))
			}
		}
		r.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
		var st planner.State
		p := st.Plan(qs)
		if !p.Sorted || len(p.Queries) != 192 {
			t.Fatalf("batch %d: planner kept %d queries, sorted=%v; want 192 sorted", batch, len(p.Queries), p.Sorted)
		}
		for lo := 0; lo < len(p.Queries); lo += 32 {
			chunk := p.Queries[lo:min(lo+32, len(p.Queries))]
			e.SuggestBatchSorted(make([]engine.Result, len(chunk)), chunk, s)
		}
	}
	checks, items := s.Ranked()
	mean := float64(items) / float64(checks)
	t.Logf("%d checks ranked %d items, %.1f per check (n=%d)", checks, items, mean, n)
	if checks != 40*192 {
		t.Fatalf("%d fairness checks, want one per distinct query (%d)", checks, 40*192)
	}
	if mean > 0.45*float64(n) {
		t.Errorf("a batch check ranks %.1f items on average, want ≤ %.0f (0.45·n)", mean, 0.45*float64(n))
	}
}
