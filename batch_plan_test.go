// Planner correctness property: SuggestBatch now runs through the adaptive
// batch planner — duplicate collapsing, locality sorting, EWMA-driven
// chunking — and every one of those transformations must be
// invisible in the answers. These tests drive many batches through each
// engine (so the EWMAs adapt and the planner switches strategies mid-test)
// and require every slot to match the naive per-query Suggest loop exactly:
// same weights bit for bit, same distances, same error classification,
// including error slots and duplicate directions.
package fairrank_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"fairrank"
	"fairrank/internal/datagen"
)

var (
	plannedModesOnce  sync.Once
	plannedModesCache map[string]*fairrank.Designer
	plannedModesErr   error
)

// plannedModes builds one designer per engine mode over a small biased
// dataset; exact stays tiny because unfair queries cost an NLP solve each.
// Built once per process — the exact engine's offline phase dominates — and
// shared across tests (planner state carries over, which only adds coverage:
// later tests run against warmed EWMAs).
func plannedModes(t *testing.T) map[string]*fairrank.Designer {
	t.Helper()
	plannedModesOnce.Do(func() {
		plannedModesCache, plannedModesErr = buildPlannedModes()
	})
	if plannedModesErr != nil {
		t.Fatal(plannedModesErr)
	}
	return plannedModesCache
}

func buildPlannedModes() (map[string]*fairrank.Designer, error) {
	out := map[string]*fairrank.Designer{}
	for _, m := range []struct {
		name string
		n, d int
		cfg  fairrank.Config
	}{
		{"2d", 120, 2, fairrank.Config{Mode: fairrank.Mode2D, Workers: -1}},
		{"exact", 60, 2, fairrank.Config{Mode: fairrank.ModeExact, MaxHyperplanes: 300, Workers: -1}},
		{"approx", 80, 3, fairrank.Config{Mode: fairrank.ModeApprox, Cells: 400, MaxHyperplanes: 800, Workers: -1}},
	} {
		ds, err := datagen.Biased(m.n, m.d, 0.5, 0.3, 1, 17)
		if err != nil {
			return nil, err
		}
		oracle, err := fairrank.MinShare(ds, "group", "protected", 0.2, 0.35)
		if err != nil {
			return nil, err
		}
		d, err := fairrank.NewDesigner(ds, oracle, m.cfg)
		if err != nil {
			return nil, err
		}
		if !d.Satisfiable() {
			return nil, fmt.Errorf("mode %s: fixture unexpectedly unsatisfiable", m.name)
		}
		out[m.name] = d
	}
	return out, nil
}

// plannedWorkload builds one batch mixing the shapes the planner reacts to:
// clustered directions (locality sort), exact duplicates from a
// small pool (dedup fan-out), and malformed slots (zero vector, wrong
// dimension) scattered through the middle.
func plannedWorkload(r *rand.Rand, d, size int, dupPool [][]float64) [][]float64 {
	centers := []float64{0.2, 0.9, 1.3}
	qs := make([][]float64, 0, size)
	for len(qs) < size {
		switch r.Intn(4) {
		case 0: // exact duplicate from the pool
			qs = append(qs, dupPool[r.Intn(len(dupPool))])
		case 1: // clustered around a center angle
			theta := centers[r.Intn(len(centers))] + 0.02*r.NormFloat64()
			theta = math.Min(math.Max(theta, 0), math.Pi/2)
			w := make([]float64, d)
			w[0] = math.Cos(theta)
			w[1] = math.Sin(theta)
			for j := 2; j < d; j++ {
				w[j] = 0.1
			}
			qs = append(qs, w)
		default: // uniform-ish
			w := make([]float64, d)
			for j := range w {
				w[j] = r.Float64() + 1e-3
			}
			qs = append(qs, w)
		}
	}
	if size > 4 {
		qs[size/3] = make([]float64, d)   // zero vector: polar conversion error
		qs[size/2] = make([]float64, d+1) // wrong dimension
		for j := range qs[size/2] {
			qs[size/2][j] = 0.5
		}
		qs[size/2+1] = qs[size/2] // duplicate error slot
		// Non-finite weights: a chunk's restricted ranking leaves them out
		// of its box.
		qs[size/4] = append([]float64(nil), qs[size/4]...)
		qs[size/4][0] = math.NaN()
		qs[size/5] = append([]float64(nil), qs[size/5]...)
		qs[size/5][d-1] = math.Inf(1)
		qs[size-1] = append([]float64(nil), qs[size-1]...)
		qs[size-1][0] = math.Inf(-1)
	}
	return qs
}

func checkBatchMatchesSuggest(t *testing.T, name string, round int, d *fairrank.Designer, qs [][]float64) {
	t.Helper()
	got := d.SuggestBatch(qs)
	if len(got) != len(qs) {
		t.Fatalf("mode %s round %d: %d results for %d queries", name, round, len(got), len(qs))
	}
	for i, q := range qs {
		want, wantErr := d.Suggest(q)
		res := got[i]
		if (wantErr != nil) != (res.Err != nil) {
			t.Fatalf("mode %s round %d slot %d: scalar err %v, batch err %v", name, round, i, wantErr, res.Err)
		}
		if wantErr != nil {
			if errors.Is(wantErr, fairrank.ErrUnsatisfiable) != errors.Is(res.Err, fairrank.ErrUnsatisfiable) {
				t.Fatalf("mode %s round %d slot %d: scalar err %v, batch err %v disagree on ErrUnsatisfiable",
					name, round, i, wantErr, res.Err)
			}
			continue
		}
		if res.Suggestion == nil {
			t.Fatalf("mode %s round %d slot %d: no suggestion and no error", name, round, i)
		}
		if want.Distance != res.Suggestion.Distance || want.AlreadyFair != res.Suggestion.AlreadyFair {
			t.Fatalf("mode %s round %d slot %d: scalar (%v, fair=%v), batch (%v, fair=%v)",
				name, round, i, want.Distance, want.AlreadyFair, res.Suggestion.Distance, res.Suggestion.AlreadyFair)
		}
		if len(want.Weights) != len(res.Suggestion.Weights) {
			t.Fatalf("mode %s round %d slot %d: scalar dim %d, batch dim %d",
				name, round, i, len(want.Weights), len(res.Suggestion.Weights))
		}
		for j := range want.Weights {
			if math.Float64bits(want.Weights[j]) != math.Float64bits(res.Suggestion.Weights[j]) {
				t.Fatalf("mode %s round %d slot %d: scalar weights %v, batch weights %v",
					name, round, i, want.Weights, res.Suggestion.Weights)
			}
		}
	}
}

func TestPlannedBatchMatchesPerQuerySuggest(t *testing.T) {
	designers := plannedModes(t)
	sizes := map[string][]int{
		"2d":     {1, 3, 16, 100, 257},
		"approx": {1, 3, 16, 100, 257},
		"exact":  {1, 16, 64}, // NLP solves per unique unfair query: keep small
	}
	rounds := map[string]int{"2d": 40, "approx": 12, "exact": 6}
	for name, d := range designers {
		r := rand.New(rand.NewSource(41))
		dim := 2
		if name == "approx" {
			dim = 3
		}
		dupPool := make([][]float64, 6)
		for i := range dupPool {
			w := make([]float64, dim)
			for j := range w {
				w[j] = r.Float64() + 1e-3
			}
			dupPool[i] = w
		}
		for round := 0; round < rounds[name]; round++ {
			size := sizes[name][round%len(sizes[name])]
			qs := plannedWorkload(r, dim, size, dupPool)
			checkBatchMatchesSuggest(t, name, round, d, qs)
		}
	}
}

// Duplicate slots must fan out as independent copies: a caller mutating one
// slot's Weights must not see the change through another slot.
func TestPlannedBatchDuplicateSlotsDoNotAlias(t *testing.T) {
	designers := plannedModes(t)
	d := designers["2d"]
	q := []float64{0.3, 0.7}
	qs := make([][]float64, 64)
	for i := range qs {
		qs[i] = q
	}
	res := d.SuggestBatch(qs)
	var withWeights []*fairrank.Suggestion
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("slot %d: %v", i, r.Err)
		}
		withWeights = append(withWeights, r.Suggestion)
	}
	if len(withWeights) < 2 {
		t.Fatal("expected at least two answered duplicate slots")
	}
	if withWeights[0] == withWeights[1] {
		t.Fatal("duplicate slots share one Suggestion struct")
	}
	orig := withWeights[1].Weights[0]
	withWeights[0].Weights[0] = math.Inf(1)
	if withWeights[1].Weights[0] != orig {
		t.Fatal("duplicate slots alias the same weights backing array")
	}
}

// An unsatisfiable designer must report ErrUnsatisfiable on every batch slot
// through the planner — dedup collapses the identical queries, and the error
// must fan back out to all of them — for all three engines.
func TestPlannedBatchUnsatisfiable(t *testing.T) {
	ds, err := datagen.Biased(40, 2, 0.5, 0.3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	never := fairrank.OracleFunc(func([]int) bool { return false })
	for _, cfg := range []fairrank.Config{
		{Mode: fairrank.Mode2D},
		{Mode: fairrank.ModeExact, MaxHyperplanes: 200},
		{Mode: fairrank.ModeApprox, Cells: 200},
	} {
		d, err := fairrank.NewDesigner(ds, never, cfg)
		if err != nil {
			t.Fatal(err)
		}
		qs := make([][]float64, 48)
		for i := range qs {
			qs[i] = []float64{0.6, 0.8} // all identical: one kernel slot, 48 fan-outs
		}
		for _, r := range d.SuggestBatch(qs) {
			if !errors.Is(r.Err, fairrank.ErrUnsatisfiable) {
				t.Fatalf("mode %v: expected ErrUnsatisfiable, got %v", cfg.Mode, r.Err)
			}
		}
	}
}

// Planner stats must move with traffic: duplicate-heavy batches raise the
// dedup counters and the chunk gauge reflects the last planned batch.
func TestBatchPlanStatsObserveTraffic(t *testing.T) {
	designers := plannedModes(t)
	d := designers["2d"]
	qs := make([][]float64, 256)
	for i := range qs {
		qs[i] = []float64{0.3, 0.7}
	}
	for i := 0; i < 3; i++ {
		d.SuggestBatch(qs)
	}
	st := d.BatchPlanStats()
	if st.Batches < 3 || st.Slots < int64(3*len(qs)) {
		t.Fatalf("batch counters did not move: %+v", st)
	}
	if st.DedupedSlots == 0 {
		t.Fatalf("duplicate-heavy traffic recorded no deduped slots: %+v", st)
	}
	if st.KernelNsEWMA <= 0 {
		t.Fatalf("kernel EWMA never observed: %+v", st)
	}
	if st.LastChunkSize <= 0 {
		t.Fatalf("chunk gauge never set: %+v", st)
	}
}
