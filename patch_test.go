// Dataset mutability: the patch path must be indistinguishable from a
// from-scratch rebuild. The property suite drives seeded randomized
// insert/delete sequences through Designer.Patch for all three engines and
// compares every intermediate revision against a fresh NewDesigner over the
// same data — Suggest, SuggestBatch, Satisfiable, and QualityBound must
// agree bit for bit, whether the engine repaired in place or fell back to a
// rebuild. Failures shrink: the harness re-runs the failing step with
// one-smaller deltas until no sub-delta still fails, so the report names a
// minimal reproducing patch. The server-level tests cover the concurrency
// contract (readers keep answering the old index until the atomic swap, the
// memo cache never crosses a patch) and FuzzPatchDataset throws hostile
// deltas at the HTTP-facing entry point.
package fairrank

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fairrank/internal/datagen"
)

// patchQueryFan returns n queries spread across the positive orthant of
// dimension d at a non-unit magnitude.
func patchQueryFan(d, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		w := make([]float64, d)
		theta := (float64(i) + 0.5) / float64(n) * math.Pi / 2
		w[0] = 1.5 * math.Cos(theta)
		w[1] = 1.5 * math.Sin(theta)
		for j := 2; j < d; j++ {
			w[j] = 0.2 + 0.6*float64(i)/float64(n)
		}
		out[i] = w
	}
	return out
}

// randomPatchDelta draws a delta over ds: up to maxRemove distinct removals
// and up to maxAdd appended items with rows in [0,1) and type labels drawn
// from the dataset's own label sets. At least one change is always made.
func randomPatchDelta(ds *Dataset, rng *rand.Rand, maxRemove, maxAdd int) DatasetDelta {
	var delta DatasetDelta
	for delta.Empty() {
		nRem := rng.Intn(maxRemove + 1)
		if ds.N()-nRem < 2 {
			nRem = 0
		}
		perm := rng.Perm(ds.N())
		delta.Removed = append([]int(nil), perm[:nRem]...)
		sort.Ints(delta.Removed)
		nAdd := rng.Intn(maxAdd + 1)
		for i := 0; i < nAdd; i++ {
			row := make([]float64, ds.D())
			for j := range row {
				row[j] = rng.Float64()
			}
			types := map[string]string{}
			for _, ta := range ds.TypeAttrs() {
				types[ta.Name] = ta.Labels[rng.Intn(len(ta.Labels))]
			}
			delta.Added = append(delta.Added, PatchItem{Row: row, Types: types})
		}
	}
	return delta
}

// sameDesignerAnswers compares two designers the way a client could tell
// them apart: satisfiability, the Theorem 6 bound, and Suggest plus
// SuggestBatch over the query fan — all bit-identical.
func sameDesignerAnswers(got, want *Designer, queries [][]float64) error {
	if got.Satisfiable() != want.Satisfiable() {
		return fmt.Errorf("satisfiable %v, want %v", got.Satisfiable(), want.Satisfiable())
	}
	if math.Float64bits(got.QualityBound()) != math.Float64bits(want.QualityBound()) {
		return fmt.Errorf("quality bound %v, want %v", got.QualityBound(), want.QualityBound())
	}
	for _, q := range queries {
		s1, err1 := got.Suggest(q)
		s2, err2 := want.Suggest(q)
		if (err1 == nil) != (err2 == nil) {
			return fmt.Errorf("query %v: err %v, want %v", q, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				return fmt.Errorf("query %v: err %v, want %v", q, err1, err2)
			}
			continue
		}
		if err := sameSuggestionValues(s1, s2); err != nil {
			return fmt.Errorf("query %v: %v", q, err)
		}
	}
	b1 := got.SuggestBatch(queries)
	b2 := want.SuggestBatch(queries)
	for i := range b2 {
		if (b1[i].Err == nil) != (b2[i].Err == nil) {
			return fmt.Errorf("batch slot %d: err %v, want %v", i, b1[i].Err, b2[i].Err)
		}
		if b2[i].Err != nil {
			continue
		}
		if err := sameSuggestionValues(b1[i].Suggestion, b2[i].Suggestion); err != nil {
			return fmt.Errorf("batch slot %d: %v", i, err)
		}
	}
	return nil
}

func sameSuggestionValues(got, want *Suggestion) error {
	if got.AlreadyFair != want.AlreadyFair ||
		math.Float64bits(got.Distance) != math.Float64bits(want.Distance) {
		return fmt.Errorf("distance/fair (%v,%v), want (%v,%v)",
			got.Distance, got.AlreadyFair, want.Distance, want.AlreadyFair)
	}
	if len(got.Weights) != len(want.Weights) {
		return fmt.Errorf("weights %v, want %v", got.Weights, want.Weights)
	}
	for j := range want.Weights {
		if math.Float64bits(got.Weights[j]) != math.Float64bits(want.Weights[j]) {
			return fmt.Errorf("weights %v, want %v (must be byte-identical)", got.Weights, want.Weights)
		}
	}
	return nil
}

// patchOracle rebuilds the property suite's oracle over the given dataset
// state (oracles bind group counts to their dataset, so every patch step
// needs a fresh one).
func patchOracle(t testing.TB, ds *Dataset) Oracle {
	t.Helper()
	oracle, err := MinShare(ds, "group", "protected", 0.25, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// patchStepCheck applies one delta through Designer.Patch and verifies the
// result against a fresh rebuild at the same dataset state. It returns the
// advanced (designer, dataset) pair and whether the repair path ran; a
// non-nil checkErr reports the first observable divergence.
func patchStepCheck(t *testing.T, d *Designer, cur *Dataset, cfg Config, delta DatasetDelta) (
	next *Designer, newDS *Dataset, repaired bool, checkErr error) {
	t.Helper()
	newDS, err := ApplyDelta(cur, delta)
	if err != nil {
		t.Fatalf("applying delta %+v: %v", delta, err)
	}
	oracle := patchOracle(t, newDS)
	next, repaired, err = d.Patch(newDS, oracle, delta)
	if err != nil {
		t.Fatalf("Patch(%+v): %v", delta, err)
	}
	if want := ChainRevision(d.Revision(), newDS.Fingerprint()); next.Revision() != want {
		t.Fatalf("patched revision %#x, want chained %#x", next.Revision(), want)
	}
	fresh, err := NewDesigner(newDS, patchOracle(t, newDS), cfg)
	if err != nil {
		t.Fatalf("rebuild reference: %v", err)
	}
	return next, newDS, repaired, sameDesignerAnswers(next, fresh, patchQueryFan(newDS.D(), 12))
}

// shrinkPatchDelta minimizes a failing delta: repeatedly drop one removal or
// one addition while the single-step check still fails, and return the
// smallest delta that reproduces the divergence.
func shrinkPatchDelta(t *testing.T, d *Designer, cur *Dataset, cfg Config, delta DatasetDelta) (DatasetDelta, error) {
	t.Helper()
	_, _, _, lastErr := patchStepCheck(t, d, cur, cfg, delta)
	for shrunk := true; shrunk; {
		shrunk = false
		for i := 0; i < len(delta.Removed); i++ {
			cand := delta
			cand.Removed = append(append([]int(nil), delta.Removed[:i]...), delta.Removed[i+1:]...)
			if cand.Empty() {
				continue
			}
			if _, _, _, err := patchStepCheck(t, d, cur, cfg, cand); err != nil {
				delta, lastErr, shrunk = cand, err, true
				break
			}
		}
		if shrunk {
			continue
		}
		for i := 0; i < len(delta.Added); i++ {
			cand := delta
			cand.Added = append(append([]PatchItem(nil), delta.Added[:i]...), delta.Added[i+1:]...)
			if cand.Empty() {
				continue
			}
			if _, _, _, err := patchStepCheck(t, d, cur, cfg, cand); err != nil {
				delta, lastErr, shrunk = cand, err, true
				break
			}
		}
	}
	return delta, lastErr
}

// TestPatchEquivalentToRebuildAllEngines is the correctness anchor of the
// mutability work: seeded random insert/delete sequences, every intermediate
// revision compared bit-for-bit against a fresh rebuild, for all three
// engines. The churn threshold is opened up so the 2D sequences exercise the
// incremental repair path (asserted to actually run); the exact and approx
// designers must take the rebuild path on every step, since only the 2D
// engine repairs.
func TestPatchEquivalentToRebuildAllEngines(t *testing.T) {
	cases := []struct {
		name    string
		ds      func(t *testing.T) *Dataset
		cfg     Config
		repairs bool // whether Patch should repair (else rebuild) every step
	}{
		{
			name: "2d",
			ds: func(t *testing.T) *Dataset {
				ds, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			},
			cfg:     Config{Mode: Mode2D, RepairChurnFrac: 0.5},
			repairs: true,
		},
		{
			name: "exact",
			ds: func(t *testing.T) *Dataset {
				ds, err := datagen.Uniform(30, 2, 0.5, 8)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			},
			// d=2 with a binding hyperplane cap: an uncapped 3-D arrangement
			// makes each of the suite's from-scratch reference builds cost
			// minutes under -race; the capped 2-D instance rebuilds in
			// milliseconds.
			cfg: Config{Mode: ModeExact, Seed: 7, MaxHyperplanes: 120, RepairChurnFrac: 0.5},
		},
		{
			name: "approx",
			ds: func(t *testing.T) *Dataset {
				ds, err := datagen.Uniform(40, 3, 0.5, 8)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			},
			cfg: Config{Mode: ModeApprox, Cells: 80, MaxHyperplanes: 300, Seed: 7, RepairChurnFrac: 0.5},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range []int64{1, 42} {
				rng := rand.New(rand.NewSource(seed))
				cur := tc.ds(t)
				d, err := NewDesigner(cur, patchOracle(t, cur), tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				repairs, steps := 0, 4
				for step := 0; step < steps; step++ {
					delta := randomPatchDelta(cur, rng, 3, 3)
					next, newDS, repaired, checkErr := patchStepCheck(t, d, cur, tc.cfg, delta)
					if checkErr != nil {
						minimal, minErr := shrinkPatchDelta(t, d, cur, tc.cfg, delta)
						t.Fatalf("engine %s seed %d step %d: patched designer diverges from rebuild: %v\nminimal failing delta (shrunk from -%d/+%d): %+v (%v)",
							tc.name, seed, step, checkErr, len(delta.Removed), len(delta.Added), minimal, minErr)
					}
					if repaired {
						repairs++
					}
					d, cur = next, newDS
				}
				if tc.repairs && repairs != steps {
					t.Fatalf("engine %s seed %d: %d of %d steps took the incremental repair path, want all (churn frac 0.5, deltas <=6 of %d items)",
						tc.name, seed, repairs, steps, tc.ds(t).N())
				}
				if !tc.repairs && repairs != 0 {
					t.Fatalf("engine %s seed %d: %d of %d steps repaired; only the 2D engine repairs", tc.name, seed, repairs, steps)
				}
			}
		})
	}
}

// Above the churn threshold Patch must refuse to repair and rebuild instead
// — and the rebuild must be just as byte-identical to a fresh designer.
func TestPatchLargeChurnRebuildsEquivalently(t *testing.T) {
	ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: Mode2D} // default threshold: 10% of 60 = 6
	d, err := NewDesigner(ds, patchOracle(t, ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	delta := DatasetDelta{Removed: []int{0, 7, 14, 21, 28, 35, 42}} // churn 7 > 6
	next, newDS, repaired, checkErr := patchStepCheck(t, d, ds, cfg, delta)
	if repaired {
		t.Fatal("churn above the threshold must rebuild, not repair")
	}
	if checkErr != nil {
		t.Fatalf("rebuild fallback diverges from fresh designer: %v", checkErr)
	}
	// A negative threshold disables repair outright even for a tiny delta.
	cfgOff := cfg
	cfgOff.RepairChurnFrac = -1
	dOff, err := NewDesigner(newDS, patchOracle(t, newDS), cfgOff)
	if err != nil {
		t.Fatal(err)
	}
	small := DatasetDelta{Removed: []int{1}}
	if _, _, rep, err := patchStepCheck(t, dOff, newDS, cfgOff, small); err != nil || rep {
		t.Fatalf("disabled repair: repaired=%v err=%v, want rebuild with identical answers", rep, err)
	}
	_ = next
}

// Designer.Patch must reject malformed deltas without touching the receiver,
// and ApplyDelta must enforce the dataset-side contract.
func TestPatchValidation(t *testing.T) {
	ds, err := datagen.Uniform(10, 3, 0.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDesigner(ds, patchOracle(t, ds), Config{Cells: 60})
	if err != nil {
		t.Fatal(err)
	}
	okItem := PatchItem{Row: []float64{0.1, 0.2, 0.3}, Types: map[string]string{"group": "protected"}}
	bad := []struct {
		name  string
		delta DatasetDelta
	}{
		{"duplicate removals", DatasetDelta{Removed: []int{2, 2}}},
		{"descending removals", DatasetDelta{Removed: []int{5, 3}}},
		{"out-of-range removal", DatasetDelta{Removed: []int{10}}},
		{"negative removal", DatasetDelta{Removed: []int{-1}}},
		{"d-mismatched row", DatasetDelta{Added: []PatchItem{{Row: []float64{1, 2}, Types: okItem.Types}}}},
		{"unknown label", DatasetDelta{Added: []PatchItem{{Row: okItem.Row, Types: map[string]string{"group": "martian"}}}}},
		{"missing type attr", DatasetDelta{Added: []PatchItem{{Row: okItem.Row, Types: map[string]string{}}}}},
		{"shrinks below 2 items", DatasetDelta{Removed: []int{0, 1, 2, 3, 4, 5, 6, 7, 8}}},
	}
	for _, tc := range bad {
		if _, err := ApplyDelta(ds, tc.delta); err == nil {
			t.Errorf("%s: ApplyDelta accepted %+v", tc.name, tc.delta)
		}
	}
	// A patched dataset that does not match the delta must be rejected too.
	wrong, err := ApplyDelta(ds, DatasetDelta{Added: []PatchItem{okItem, okItem}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Patch(wrong, patchOracle(t, wrong), DatasetDelta{Added: []PatchItem{okItem}}); err == nil {
		t.Error("Patch accepted a dataset inconsistent with its delta")
	}
	if _, _, err := d.Patch(nil, nil, DatasetDelta{}); err == nil {
		t.Error("Patch accepted a nil dataset")
	}
}

// A designer restored from a persisted index has no retained build state:
// its first Patch must fall back to a rebuild — with the restored config,
// not the zero value — and still answer identically to a fresh designer.
func TestPatchAfterLoadRebuildsWithRestoredConfig(t *testing.T) {
	ds, err := datagen.Uniform(40, 3, 0.5, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: ModeApprox, Cells: 300, Seed: 7}
	d, err := NewDesigner(ds, patchOracle(t, ds), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDesigner(&buf, ds, patchOracle(t, ds))
	if err != nil {
		t.Fatal(err)
	}
	loaded.RestoreConfig(cfg)
	delta := DatasetDelta{Removed: []int{3}}
	next, newDS, repaired, checkErr := patchStepCheck(t, loaded, ds, cfg, delta)
	if repaired {
		t.Fatal("a loaded designer has no build state; repair must not claim success")
	}
	if checkErr != nil {
		t.Fatalf("patched loaded designer diverges from rebuild: %v", checkErr)
	}
	if next.QualityBound() <= 0 || newDS.N() != 39 {
		t.Fatalf("rebuilt approx designer lost its config: bound=%v n=%d", next.QualityBound(), newDS.N())
	}
}

// patchTestServer is one in-process server with a patchable 2D designer.
func patchTestServer(t *testing.T) (*Server, *Dataset, string, string) {
	t.Helper()
	srv := NewServer()
	t.Cleanup(srv.Close)
	ds, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("mutable", ds); err != nil {
		t.Fatal(err)
	}
	spec := DesignerSpec{
		Dataset: "mutable",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d", RepairChurnFrac: 0.5},
	}
	if err := srv.CreateDesigner("mutable-2d", spec); err != nil {
		t.Fatal(err)
	}
	if err := srv.WaitReady(t.Context(), "mutable-2d"); err != nil {
		t.Fatal(err)
	}
	return srv, ds, "mutable", "mutable-2d"
}

// Readers racing a patch must always get a coherent answer: the old index
// until the atomic swap, the patched index after, never an error and never a
// torn state. Run under -race this also proves the swap protocol itself.
func TestPatchRacingSuggestAndBatch(t *testing.T) {
	srv, _, dsID, id := patchTestServer(t)
	queries := patchQueryFan(2, 6)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reads atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if w%2 == 0 {
					s, err := srv.Suggest(id, queries[w%len(queries)])
					if err != nil && err != ErrUnsatisfiable {
						t.Errorf("suggest during patch: %v", err)
						return
					}
					if err == nil && len(s.Weights) != 2 {
						t.Errorf("suggest returned %d weights", len(s.Weights))
						return
					}
				} else {
					rs, err := srv.SuggestBatch(id, queries)
					if err != nil {
						t.Errorf("batch during patch: %v", err)
						return
					}
					for _, r := range rs {
						if r.Err != nil && r.Err != ErrUnsatisfiable {
							t.Errorf("batch slot error during patch: %v", r.Err)
							return
						}
					}
				}
				reads.Add(1)
			}
		}(w)
	}
	rng := rand.New(rand.NewSource(9))
	var lastRev uint64
	for i := 0; i < 6; i++ {
		cur, _ := srv.Dataset(dsID)
		delta := randomPatchDelta(cur, rng, 2, 2)
		res, err := srv.PatchDataset(dsID, delta)
		if err != nil {
			t.Fatalf("patch %d: %v", i, err)
		}
		for _, dr := range res.Designers {
			if dr.Error != "" {
				t.Fatalf("patch %d: designer splice failed: %s", i, dr.Error)
			}
		}
		if res.Revision == lastRev {
			t.Fatalf("patch %d did not advance the revision", i)
		}
		lastRev = res.Revision
	}
	// The patches may outrun goroutine scheduling; keep the readers running
	// until at least a few reads have landed so the assertions are not vacuous.
	waitFor(t, 10*time.Second, "racing readers to complete reads", func() bool {
		return reads.Load() >= 8
	})
	close(stop)
	wg.Wait()
	// Steady state: the server answers byte-identically to a fresh designer
	// over the final dataset.
	final, _ := srv.Dataset(dsID)
	fresh, err := NewDesigner(final, patchOracle(t, final), Config{Mode: Mode2D})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		got, err1 := srv.Suggest(id, q)
		want, err2 := fresh.Suggest(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("post-storm query %v: err %v vs %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if err := sameSuggestionValues(got, want); err != nil {
			t.Fatalf("post-storm query %v: %v", q, err)
		}
	}
}

// A patch issued while the designer's initial build is still in flight must
// queue behind the build (Entry.Patch waits on the build slot) and land on
// whatever the build produced — not error, not deadlock, not splice a
// half-built engine.
func TestPatchDuringBackgroundBuildQueues(t *testing.T) {
	srv := NewServer()
	t.Cleanup(srv.Close)
	ds, err := datagen.Biased(80, 2, 0.5, 0.3, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddDataset("mutable", ds); err != nil {
		t.Fatal(err)
	}
	spec := DesignerSpec{
		Dataset: "mutable",
		Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
		Config:  ConfigSpec{Mode: "2d", RepairChurnFrac: 0.5},
	}
	if err := srv.CreateDesigner("mutable-2d", spec); err != nil {
		t.Fatal(err)
	}
	// No WaitReady: the patch races the initial background build.
	res, err := srv.PatchDataset("mutable", DatasetDelta{Removed: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, dr := range res.Designers {
		if dr.Error != "" {
			t.Fatalf("patch racing the build failed: %s", dr.Error)
		}
	}
	if err := srv.WaitReady(t.Context(), "mutable-2d"); err != nil {
		t.Fatal(err)
	}
	final, _ := srv.Dataset("mutable")
	fresh, err := NewDesigner(final, patchOracle(t, final), Config{Mode: Mode2D})
	if err != nil {
		t.Fatal(err)
	}
	got, err1 := srv.Suggest("mutable-2d", []float64{0.6, 0.4})
	want, err2 := fresh.Suggest([]float64{0.6, 0.4})
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("err %v vs %v", err1, err2)
	}
	if err1 == nil {
		if err := sameSuggestionValues(got, want); err != nil {
			t.Fatalf("patched-during-build designer diverges: %v", err)
		}
	}
}

// The suggest memo cache must never serve a pre-patch answer at a
// post-patch generation: a patch bumps the entry generation and installs a
// fresh cache, so a query cached before the patch re-resolves afterwards.
func TestPatchInvalidatesSuggestMemo(t *testing.T) {
	srv, _, dsID, id := patchTestServer(t)
	entry, err := srv.localEntry(id)
	if err != nil {
		t.Fatal(err)
	}
	genBefore := entry.Generation()
	q := []float64{0.7, 0.3}
	// Prime the memo: two identical queries, the second served from cache.
	if _, err := srv.Suggest(id, q); err != nil && err != ErrUnsatisfiable {
		t.Fatal(err)
	}
	if _, err := srv.Suggest(id, q); err != nil && err != ErrUnsatisfiable {
		t.Fatal(err)
	}
	st, err := srv.DesignerStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Metrics.CacheHits == 0 {
		t.Fatal("memo cache never engaged; the invalidation assertion below would be vacuous")
	}
	// Remove the current top items so the answer for q changes shape.
	res, err := srv.PatchDataset(dsID, DatasetDelta{Removed: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for _, dr := range res.Designers {
		if dr.Error != "" {
			t.Fatalf("designer splice failed: %s", dr.Error)
		}
	}
	if entry.Generation() <= genBefore {
		t.Fatalf("patch did not bump the generation: %d -> %d", genBefore, entry.Generation())
	}
	final, _ := srv.Dataset(dsID)
	fresh, err := NewDesigner(final, patchOracle(t, final), Config{Mode: Mode2D})
	if err != nil {
		t.Fatal(err)
	}
	got, err1 := srv.Suggest(id, q) // must re-resolve, not replay the memo
	want, err2 := fresh.Suggest(q)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("err %v vs %v", err1, err2)
	}
	if err1 == nil {
		if err := sameSuggestionValues(got, want); err != nil {
			t.Fatalf("post-patch answer is not the patched index's: %v (memo leak across generations)", err)
		}
	}
}

// An empty delta is a no-op: same revision, no generation bump, no designer
// splices.
func TestPatchEmptyDeltaNoOp(t *testing.T) {
	srv, _, dsID, id := patchTestServer(t)
	entry, err := srv.localEntry(id)
	if err != nil {
		t.Fatal(err)
	}
	revBefore, _ := srv.DatasetRevision(dsID)
	genBefore := entry.Generation()
	res, err := srv.PatchDataset(dsID, DatasetDelta{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Revision != revBefore || len(res.Designers) != 0 {
		t.Fatalf("empty delta mutated state: %+v (rev before %#x)", res, revBefore)
	}
	if entry.Generation() != genBefore {
		t.Fatal("empty delta bumped the designer generation")
	}
	if _, err := srv.PatchDataset("ghost", DatasetDelta{Removed: []int{0}}); err == nil {
		t.Fatal("patch of an unknown dataset must fail")
	}
}

// FuzzPatchDataset throws arbitrary deltas at the server entry point:
// duplicate and out-of-range removals, d-mismatched rows, unknown labels,
// missing type attributes, unknown dataset ids, empty deltas. Invariants: no
// panic; a rejected patch leaves the dataset, its revision, and the designer
// untouched; an accepted patch advances the revision and leaves the designer
// answering exactly like a fresh rebuild over the patched data.
func FuzzPatchDataset(f *testing.F) {
	// Seeds: empty delta, plain remove, remove+add, duplicate removals,
	// out-of-range removal, d-mismatched row, unknown label, unknown dataset.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0})
	f.Add([]byte{2, 1, 3, 1, 1, 128, 64, 0, 0})
	f.Add([]byte{2, 4, 4, 0, 0})
	f.Add([]byte{1, 250, 0, 0})
	f.Add([]byte{0, 1, 0, 128, 64, 0, 0})
	f.Add([]byte{0, 1, 1, 128, 64, 3, 0})
	f.Add([]byte{1, 2, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		srv := NewServer()
		defer srv.Close()
		base, err := datagen.Biased(12, 2, 0.5, 0.3, 1, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddDataset("fuzz", base); err != nil {
			t.Fatal(err)
		}
		spec := DesignerSpec{
			Dataset: "fuzz",
			Oracle:  OracleSpec{Kind: "min_share", Attr: "group", Group: "protected", TopFrac: 0.25, Share: 0.3},
			Config:  ConfigSpec{Mode: "2d", RepairChurnFrac: 0.5},
		}
		if err := srv.CreateDesigner("fuzz-2d", spec); err != nil {
			t.Fatal(err)
		}
		if err := srv.WaitReady(t.Context(), "fuzz-2d"); err != nil {
			t.Fatal(err)
		}

		i := 0
		next := func() byte {
			if i >= len(data) {
				return 0
			}
			b := data[i]
			i++
			return b
		}
		var delta DatasetDelta
		nRem := int(next() % 6)
		for k := 0; k < nRem; k++ {
			delta.Removed = append(delta.Removed, int(int8(next())))
		}
		nAdd := int(next() % 4)
		labels := []string{"majority", "protected", "martian"}
		for k := 0; k < nAdd; k++ {
			rowLen := 2
			switch next() % 5 {
			case 3:
				rowLen = 1
			case 4:
				rowLen = 3
			}
			row := make([]float64, rowLen)
			for j := range row {
				row[j] = float64(next()) / 255
			}
			item := PatchItem{Row: row, Types: map[string]string{}}
			lb := next()
			if lb%7 != 6 { // sometimes omit the type attribute entirely
				item.Types["group"] = labels[int(lb)%len(labels)]
			}
			delta.Added = append(delta.Added, item)
		}
		target := "fuzz"
		if next()%9 == 8 {
			target = "ghost"
		}

		before, _ := srv.Dataset("fuzz")
		revBefore, _ := srv.DatasetRevision("fuzz")
		res, err := srv.PatchDataset(target, delta)
		after, _ := srv.Dataset("fuzz")
		revAfter, _ := srv.DatasetRevision("fuzz")
		if err != nil {
			if after.N() != before.N() || revAfter != revBefore {
				t.Fatalf("rejected patch mutated the dataset: n %d->%d rev %#x->%#x",
					before.N(), after.N(), revBefore, revAfter)
			}
			return
		}
		if delta.Empty() {
			if revAfter != revBefore {
				t.Fatalf("empty delta advanced the revision %#x -> %#x", revBefore, revAfter)
			}
			return
		}
		if revAfter == revBefore {
			t.Fatalf("accepted patch did not advance the revision (%#x)", revAfter)
		}
		if res.N != after.N() || after.N() != before.N()-len(delta.Removed)+len(delta.Added) {
			t.Fatalf("patched item count %d (reported %d), want %d",
				after.N(), res.N, before.N()-len(delta.Removed)+len(delta.Added))
		}
		for _, dr := range res.Designers {
			if dr.Error != "" {
				t.Fatalf("valid patch failed the designer splice: %s", dr.Error)
			}
		}
		fresh, err := NewDesigner(after, patchOracle(t, after), Config{Mode: Mode2D})
		if err != nil {
			t.Fatal(err)
		}
		q := []float64{0.6, 0.4}
		got, err1 := srv.Suggest("fuzz-2d", q)
		want, err2 := fresh.Suggest(q)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("post-patch err %v, fresh rebuild err %v", err1, err2)
		}
		if err1 == nil {
			if err := sameSuggestionValues(got, want); err != nil {
				t.Fatalf("post-patch designer diverges from rebuild: %v", err)
			}
		}
	})
}
