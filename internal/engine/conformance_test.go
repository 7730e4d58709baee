// Cross-engine conformance: the same (dataset, oracle, query) triples run
// through all three engines via the engine.Engine interface must agree — on
// satisfiability exactly, on suggestion distances within the engines'
// documented bounds (the grid engine's Theorem 6 slack, the exact engine's
// NLP tolerance), and each engine's batch kernel must answer bit-identically
// to its scalar path. This mirrors the equivalence-testing methodology of
// query-equivalence work: one specification, several evaluation strategies,
// verdicts compared pairwise.
package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"fairrank/internal/cells"
	"fairrank/internal/core"
	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
	"fairrank/internal/twod"
)

// fixture is one (dataset, oracle) instance with all three engines built
// over it.
type fixture struct {
	ds      *dataset.Dataset
	oracle  fairness.Oracle
	engines map[string]engine.Engine
	approx  *cells.Approx
}

func buildFixture(t *testing.T, seed int64) fixture {
	t.Helper()
	ds, err := datagen.Biased(60, 2, 0.5, 0.3, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := twod.RaySweep(ds, oracle, twod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.SatRegions(ds, oracle, core.Options{UseTree: true, Seed: seed, IncrementalLabeling: true})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := cells.Preprocess(ds, oracle, 500, cells.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return fixture{
		ds:     ds,
		oracle: oracle,
		engines: map[string]engine.Engine{
			"2d":     twod.NewEngine(sweep),
			"exact":  core.NewEngine(md),
			"approx": cells.NewEngine(approx, false),
		},
		approx: approx,
	}
}

// queryFan returns a fan of weight vectors across the quadrant at a
// non-unit magnitude (suggestions must preserve it).
func queryFan(n int, r float64) []geom.Vector {
	out := make([]geom.Vector, n)
	for i := range out {
		theta := (float64(i) + 0.5) / float64(n) * math.Pi / 2
		out[i] = geom.Vector{r * math.Cos(theta), r * math.Sin(theta)}
	}
	return out
}

func isFair(t *testing.T, ds *dataset.Dataset, oracle fairness.Oracle, w geom.Vector) bool {
	t.Helper()
	order, err := ranking.Order(ds, w)
	if err != nil {
		t.Fatal(err)
	}
	return oracle.Check(order)
}

func TestConformanceVerdictsAndDistances(t *testing.T) {
	for _, seed := range []int64{3, 17, 40} {
		fx := buildFixture(t, seed)
		sat := fx.engines["2d"].Satisfiable()
		for name, e := range fx.engines {
			if e.Satisfiable() != sat {
				t.Fatalf("seed %d: engine %s satisfiable=%v, 2d says %v", seed, name, e.Satisfiable(), sat)
			}
		}
		if !sat {
			continue
		}
		bound := fx.engines["approx"].QualityBound()
		if bound <= 0 {
			t.Fatalf("seed %d: approx engine reports no quality bound", seed)
		}
		for _, q := range queryFan(25, 2.0) {
			answers := map[string]geom.Vector{}
			dists := map[string]float64{}
			for name, e := range fx.engines {
				out, dist, err := e.Suggest(q)
				if err != nil {
					t.Fatalf("seed %d: engine %s Suggest(%v): %v", seed, name, q, err)
				}
				if math.Abs(out.Norm()-q.Norm()) > 1e-9 {
					t.Fatalf("seed %d: engine %s changed the query magnitude: %v -> %v", seed, name, q.Norm(), out.Norm())
				}
				answers[name] = out
				dists[name] = dist
			}
			// The 2D sweep is the exact reference. The arrangement engine is
			// exact up to its NLP solver's tolerance; the grid engine may
			// exceed the optimum by at most the Theorem 6 bound.
			if math.Abs(dists["2d"]-dists["exact"]) > 0.02 {
				t.Fatalf("seed %d q %v: 2d dist %v vs exact dist %v", seed, q, dists["2d"], dists["exact"])
			}
			if dists["approx"] < dists["2d"]-1e-6 {
				t.Fatalf("seed %d q %v: approx dist %v beats the exact optimum %v", seed, q, dists["approx"], dists["2d"])
			}
			if dists["approx"] > dists["2d"]+bound+0.02 {
				t.Fatalf("seed %d q %v: approx dist %v exceeds optimum %v + Theorem 6 bound %v",
					seed, q, dists["approx"], dists["2d"], bound)
			}
			// Fairness of the answers themselves: 2D answers are nudged
			// strictly inside satisfactory intervals, and grid answers are
			// oracle-verified functions, so both must check out directly.
			for _, name := range []string{"2d", "approx"} {
				if dists[name] > 0 && !isFair(t, fx.ds, fx.oracle, answers[name]) {
					t.Fatalf("seed %d q %v: engine %s suggested an unfair function %v", seed, q, name, answers[name])
				}
			}
			// Verdict agreement: a query one engine finds already fair must
			// be already fair everywhere (the check is oracle-direct).
			fair := dists["2d"] == 0
			for name, dist := range dists {
				if (dist == 0) != fair {
					t.Fatalf("seed %d q %v: engine %s already-fair=%v, 2d says %v", seed, q, name, dist == 0, fair)
				}
			}
		}
	}
}

// malformedChunk appends to a fan of queries the slots a chunk's box must
// leave out — NaN, ±Inf and wrong-dimension queries — and duplicates of a
// fan query and of a NaN one.
func malformedChunk(fan []geom.Vector) []geom.Vector {
	nan, inf := math.NaN(), math.Inf(1)
	out := append([]geom.Vector(nil), fan...)
	out = append(out,
		geom.Vector{nan, 1}, geom.Vector{1, nan}, geom.Vector{inf, 1}, geom.Vector{1, -inf},
		geom.Vector{0.5, 0.5, 0.5}, geom.Vector{0.5}, fan[3], fan[3], geom.Vector{nan, 1})
	return out
}

// sameAnswers requires dst to hold e.Suggest's answer for every query: the
// same weights bit for bit, the same distance, an error exactly where
// Suggest gives one.
func sameAnswers(t *testing.T, label string, e engine.Engine, queries []geom.Vector, dst []engine.Result) {
	t.Helper()
	for i, q := range queries {
		out, dist, err := e.Suggest(q)
		got := dst[i]
		if (err != nil) != (got.Err != nil) {
			t.Fatalf("%s slot %d: scalar err %v, batch err %v", label, i, err, got.Err)
		}
		if err != nil {
			continue
		}
		if dist != got.Distance {
			t.Fatalf("%s slot %d: scalar dist %v, batch dist %v", label, i, dist, got.Distance)
		}
		if len(out) != len(got.Weights) {
			t.Fatalf("%s slot %d: scalar dim %d, batch dim %d", label, i, len(out), len(got.Weights))
		}
		for j := range out {
			if math.Float64bits(out[j]) != math.Float64bits(got.Weights[j]) {
				t.Fatalf("%s slot %d: scalar weights %v, batch weights %v", label, i, out, got.Weights)
			}
		}
	}
}

// Every engine's batch kernel must answer bit-identically to its scalar
// Suggest path — same weights, same distances, same errors, slot by slot —
// including the slots a chunk's restricted ranking leaves out of its box.
func TestConformanceBatchMatchesScalar(t *testing.T) {
	fx := buildFixture(t, 17)
	engines := fx.engines
	// The refined grid variant has its own kernel path; conform it too.
	engines["approx-refined"] = cells.NewEngine(fx.approx, true)
	fan := queryFan(41, 1.5)
	// A bad query lands in the middle so error slots are exercised.
	fan[20] = geom.Vector{0, 0}
	chunks := map[string][]geom.Vector{
		"fan":       fan,
		"malformed": malformedChunk(fan),
		// One finite query: no box, every check ranks all n items.
		"one finite": {geom.Vector{math.NaN(), 1}, fan[7], geom.Vector{1, 2, 3}},
	}
	for name, e := range engines {
		for cname, queries := range chunks {
			dst := make([]engine.Result, len(queries))
			e.SuggestBatch(dst, queries, new(engine.Scratch))
			sameAnswers(t, "engine "+name+" chunk "+cname, e, queries, dst)
		}
	}
}

// A pooled scratch moves between designers: one Scratch, reset between
// kernels as the batch layer's pool does (and once not reset at all), runs
// the kernels of two fixtures whose datasets have the same n, and every
// slot must still be its own engine's scalar answer.
func TestConformanceBatchScratchAcrossDesigners(t *testing.T) {
	a, b := buildFixture(t, 17), buildFixture(t, 40)
	if a.ds.N() != b.ds.N() {
		t.Fatalf("fixtures have %d and %d items, want equal n", a.ds.N(), b.ds.N())
	}
	fan := queryFan(33, 0.8)
	chunks := [][]geom.Vector{fan[:16], malformedChunk(fan[16:]), {fan[5]}, {geom.Vector{math.Inf(1), 1}, fan[9]}}
	s := new(engine.Scratch)
	for _, name := range []string{"exact", "approx"} {
		for round, chunk := range chunks {
			for k, fx := range []fixture{a, b, a} {
				e := fx.engines[name]
				dst := make([]engine.Result, len(chunk))
				if round == 0 {
					e.SuggestBatchSorted(dst, chunk, s)
				} else {
					e.SuggestBatch(dst, chunk, s)
				}
				sameAnswers(t, fmt.Sprintf("engine %s round %d designer %d", name, round, k), e, chunk, dst)
				if k != 1 {
					s.Reset()
				}
			}
		}
	}
}

// SuggestBatchSorted must answer bit-identically to the scalar path for ANY
// query order — ascending angles (the cursor-friendly case the planner
// arranges), descending (every cursor check fails), and duplicate runs — and
// with one Scratch reused across engines and orders, so a stale cursor from
// another engine or a differently-ordered chunk must be detected and
// discarded, never trusted.
func TestConformanceSortedBatchMatchesScalar(t *testing.T) {
	fx := buildFixture(t, 17)
	engines := fx.engines
	engines["approx-refined"] = cells.NewEngine(fx.approx, true)
	fan := queryFan(41, 1.5)
	fan[20] = geom.Vector{0, 0} // error slot mid-run
	rev := make([]geom.Vector, len(fan))
	for i, q := range fan {
		rev[len(fan)-1-i] = q
	}
	dupes := make([]geom.Vector, 0, 3*len(fan))
	for _, q := range fan {
		dupes = append(dupes, q, q, q) // consecutive duplicates share a cursor
	}
	orders := map[string][]geom.Vector{"ascending": fan, "descending": rev, "duplicates": dupes, "malformed": malformedChunk(fan)}
	s := new(engine.Scratch) // deliberately shared: cursors go stale between runs
	for name, e := range engines {
		for oname, queries := range orders {
			dst := make([]engine.Result, len(queries))
			e.SuggestBatchSorted(dst, queries, s)
			sameAnswers(t, "engine "+name+" order "+oname+" (sorted batch)", e, queries, dst)
		}
	}
}

// Revalidate on the unchanged dataset must come back healthy for every
// engine; against an always-unfair oracle every probe must fail.
func TestConformanceRevalidate(t *testing.T) {
	fx := buildFixture(t, 3)
	if !fx.engines["2d"].Satisfiable() {
		t.Skip("unsatisfiable instance")
	}
	never := fairness.Func(func([]int) bool { return false })
	for name, e := range fx.engines {
		report, err := e.Revalidate(fx.ds, fx.oracle)
		if err != nil {
			t.Fatalf("engine %s revalidate: %v", name, err)
		}
		if !report.Healthy() || report.Probes == 0 {
			t.Fatalf("engine %s: unchanged data should be healthy with probes: %+v", name, report)
		}
		drifted, err := e.Revalidate(fx.ds, never)
		if err != nil {
			t.Fatalf("engine %s drifted revalidate: %v", name, err)
		}
		if drifted.Healthy() || drifted.StillSatisfactory != 0 || len(drifted.Violations) != drifted.Probes {
			t.Fatalf("engine %s: always-unfair oracle should fail every probe: %+v", name, drifted)
		}
	}
}

// A MaxHyperplanes-capped exact index labels regions approximately: some
// stored witnesses fail a fresh re-check even on unchanged data. Revalidate
// must still come back healthy there (the witness baseline excludes the
// unattestable ones) — otherwise the serving drift loop would rebuild such
// designers forever.
func TestConformanceRevalidateCappedExact(t *testing.T) {
	ds, err := datagen.Biased(100, 2, 0.5, 0.25, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.SatRegions(ds, oracle, core.Options{UseTree: true, MaxHyperplanes: 300, IncrementalLabeling: true})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(md)
	if !e.Satisfiable() {
		t.Skip("unsatisfiable instance")
	}
	report, err := e.Revalidate(ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Healthy() || report.Probes == 0 {
		t.Fatalf("capped index on unchanged data must revalidate healthy with probes: %+v", report)
	}
	// And drift must still be detectable through the baseline-filtered
	// probes: an always-unfair world fails every one of them.
	never := fairness.Func(func([]int) bool { return false })
	report, err = e.Revalidate(ds, never)
	if err != nil {
		t.Fatal(err)
	}
	if report.Healthy() || report.StillSatisfactory != 0 {
		t.Fatalf("capped index must still detect drift: %+v", report)
	}
}

// An index that found no satisfactory function must still revalidate
// meaningfully: probing the unsatisfiable verdict itself, staying healthy
// while it holds and reporting drift once fair functions appear.
func TestConformanceRevalidateUnsatisfiable(t *testing.T) {
	ds, err := datagen.Biased(40, 2, 0.5, 0.3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	never := fairness.Func(func([]int) bool { return false })
	always := fairness.Func(func([]int) bool { return true })
	sweep, err := twod.RaySweep(ds, never, twod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.SatRegions(ds, never, core.Options{UseTree: true, IncrementalLabeling: true})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := cells.Preprocess(ds, never, 200, cells.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]engine.Engine{
		"2d":     twod.NewEngine(sweep),
		"exact":  core.NewEngine(md),
		"approx": cells.NewEngine(approx, false),
	}
	for name, e := range engines {
		if e.Satisfiable() {
			t.Fatalf("engine %s: never-fair oracle produced a satisfiable index", name)
		}
		report, err := e.Revalidate(ds, never)
		if err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		if !report.Healthy() || report.Probes == 0 {
			t.Fatalf("engine %s: holding unsatisfiable verdict should be healthy with probes: %+v", name, report)
		}
		// The world drifted: fair functions exist now, so the stored
		// unsatisfiable verdict must read as drift and trigger a rebuild.
		report, err = e.Revalidate(ds, always)
		if err != nil {
			t.Fatalf("engine %s: %v", name, err)
		}
		if report.Healthy() || len(report.Violations) != report.Probes {
			t.Fatalf("engine %s: fair functions appearing must report drift: %+v", name, report)
		}
	}
}

// Persist through the interface and reload through each package's loader:
// the reloaded engine must answer bit-identically.
func TestConformancePersistRoundTrip(t *testing.T) {
	fx := buildFixture(t, 17)
	queries := queryFan(9, 1.0)
	for name, e := range fx.engines {
		var buf bytes.Buffer
		if err := e.Persist(&buf); err != nil {
			t.Fatalf("engine %s persist: %v", name, err)
		}
		var loaded engine.Engine
		var err error
		switch name {
		case "2d":
			var idx *twod.Index
			if idx, err = twod.LoadIndex(&buf); err == nil {
				loaded = twod.NewEngine(idx)
			}
		case "exact":
			var idx *core.MDIndex
			if idx, err = core.LoadIndex(&buf, fx.ds, fx.oracle); err == nil {
				loaded = core.NewEngine(idx)
			}
		case "approx":
			var idx *cells.Approx
			if idx, err = cells.LoadIndex(&buf, fx.ds, fx.oracle); err == nil {
				loaded = cells.NewEngine(idx, false)
			}
		}
		if err != nil {
			t.Fatalf("engine %s reload: %v", name, err)
		}
		for _, q := range queries {
			w1, d1, err1 := e.Suggest(q)
			w2, d2, err2 := loaded.Suggest(q)
			if (err1 != nil) != (err2 != nil) || d1 != d2 {
				t.Fatalf("engine %s: reloaded answers diverge on %v: (%v,%v,%v) vs (%v,%v,%v)", name, q, w1, d1, err1, w2, d2, err2)
			}
			for j := range w1 {
				if w1[j] != w2[j] {
					t.Fatalf("engine %s: reloaded weights diverge on %v: %v vs %v", name, q, w1, w2)
				}
			}
		}
	}
}

// Patchable conformance: every engine adapter implements engine.Patchable,
// and Repair must be observationally identical to a from-scratch build over
// the patched dataset with the same options — Satisfiable, QualityBound,
// and Suggest all bit for bit. (The grid engine's mark phase is serial in
// this fixture; byte-equality of a repair is only defined for Workers <= 1,
// same as for two independent rebuilds.)
func TestConformancePatchableRepairMatchesRebuild(t *testing.T) {
	const seed = 17
	fx := buildFixture(t, seed)
	delta := dataset.Delta{
		Removed: []int{3, 41},
		Added: []dataset.AddItem{
			{Row: []float64{0.62, 0.31}, Types: map[string]string{"group": "protected"}},
			{Row: []float64{0.18, 0.77}, Types: map[string]string{"group": "majority"}},
		},
	}
	patched, err := dataset.Apply(fx.ds, delta)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(patched, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	ed := engine.Delta{Removed: delta.Removed, Added: len(delta.Added)}

	sweep, err := twod.RaySweep(patched, oracle, twod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.SatRegions(patched, oracle, core.Options{UseTree: true, Seed: seed, IncrementalLabeling: true})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := cells.Preprocess(patched, oracle, 500, cells.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	fresh := map[string]engine.Engine{
		"2d":     twod.NewEngine(sweep),
		"exact":  core.NewEngine(md),
		"approx": cells.NewEngine(approx, false),
	}

	queries := queryFan(25, 1.5)
	// Snapshot the receivers' pre-repair answers: Repair must not disturb
	// the serving index it derives from.
	type snap struct {
		w    geom.Vector
		dist float64
		err  bool
	}
	before := map[string][]snap{}
	for name, e := range fx.engines {
		for _, q := range queries {
			w, dist, err := e.Suggest(q)
			before[name] = append(before[name], snap{w, dist, err != nil})
		}
	}

	for name, e := range fx.engines {
		p, ok := e.(engine.Patchable)
		if !ok {
			t.Fatalf("engine %s does not implement engine.Patchable", name)
		}
		repaired, err := p.Repair(patched, oracle, ed)
		if err != nil {
			t.Fatalf("engine %s repair: %v", name, err)
		}
		want := fresh[name]
		if repaired.Satisfiable() != want.Satisfiable() {
			t.Fatalf("engine %s: repaired satisfiable=%v, rebuild says %v", name, repaired.Satisfiable(), want.Satisfiable())
		}
		if math.Float64bits(repaired.QualityBound()) != math.Float64bits(want.QualityBound()) {
			t.Fatalf("engine %s: repaired bound %v, rebuild %v", name, repaired.QualityBound(), want.QualityBound())
		}
		for _, q := range queries {
			w1, d1, err1 := repaired.Suggest(q)
			w2, d2, err2 := want.Suggest(q)
			if (err1 != nil) != (err2 != nil) || math.Float64bits(d1) != math.Float64bits(d2) {
				t.Fatalf("engine %s q %v: repaired (%v,%v,%v) vs rebuild (%v,%v,%v)", name, q, w1, d1, err1, w2, d2, err2)
			}
			for j := range w2 {
				if math.Float64bits(w1[j]) != math.Float64bits(w2[j]) {
					t.Fatalf("engine %s q %v: repaired weights %v, rebuild %v (must be byte-identical)", name, q, w1, w2)
				}
			}
		}
		// Receiver untouched: same answers as before the repair.
		for i, q := range queries {
			w, dist, err := e.Suggest(q)
			s := before[name][i]
			if (err != nil) != s.err || math.Float64bits(dist) != math.Float64bits(s.dist) {
				t.Fatalf("engine %s: Repair disturbed the receiver at %v", name, q)
			}
			for j := range s.w {
				if math.Float64bits(w[j]) != math.Float64bits(s.w[j]) {
					t.Fatalf("engine %s: Repair disturbed the receiver's weights at %v", name, q)
				}
			}
		}
	}
}

// Engines without retained build state must refuse to repair with
// ErrRepairUnsupported — a decoded persisted stream for every engine, and a
// PruneTopK-built grid index (pruning re-derives its candidate set from the
// whole dataset, which no delta can patch).
func TestConformancePatchableUnsupportedStates(t *testing.T) {
	fx := buildFixture(t, 17)
	delta := engine.Delta{Removed: []int{0}}
	patched, err := dataset.Apply(fx.ds, dataset.Delta{Removed: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(patched, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range fx.engines {
		var buf bytes.Buffer
		if err := e.Persist(&buf); err != nil {
			t.Fatalf("engine %s persist: %v", name, err)
		}
		var loaded engine.Engine
		switch name {
		case "2d":
			idx, lerr := twod.LoadIndex(&buf)
			if lerr != nil {
				t.Fatal(lerr)
			}
			loaded = twod.NewEngine(idx)
		case "exact":
			idx, lerr := core.LoadIndex(&buf, fx.ds, fx.oracle)
			if lerr != nil {
				t.Fatal(lerr)
			}
			loaded = core.NewEngine(idx)
		case "approx":
			idx, lerr := cells.LoadIndex(&buf, fx.ds, fx.oracle)
			if lerr != nil {
				t.Fatal(lerr)
			}
			loaded = cells.NewEngine(idx, false)
		}
		p, ok := loaded.(engine.Patchable)
		if !ok {
			t.Fatalf("decoded engine %s lost the Patchable interface", name)
		}
		if _, err := p.Repair(patched, oracle, delta); !errors.Is(err, engine.ErrRepairUnsupported) {
			t.Fatalf("decoded engine %s: Repair err %v, want ErrRepairUnsupported", name, err)
		}
	}
	pruned, err := cells.Preprocess(fx.ds, fx.oracle, 200, cells.Options{Seed: 17, PruneTopK: 12})
	if err != nil {
		t.Fatal(err)
	}
	p := cells.NewEngine(pruned, false).(engine.Patchable)
	if _, err := p.Repair(patched, oracle, delta); !errors.Is(err, engine.ErrRepairUnsupported) {
		t.Fatalf("PruneTopK grid index: Repair err %v, want ErrRepairUnsupported", err)
	}
}

// Delta.Remap is the survivor map every repair kernel keys on; pin its
// contract: monotone over survivors, -1 exactly at removals.
func TestConformanceDeltaRemap(t *testing.T) {
	d := engine.Delta{Removed: []int{1, 4}, Added: 3}
	remap := d.Remap(6)
	want := []int{0, -1, 1, 2, -1, 3}
	for i, w := range want {
		if remap[i] != w {
			t.Fatalf("remap %v, want %v", remap, want)
		}
	}
	if err := d.Validate(6, 7); err != nil {
		t.Fatalf("valid delta rejected: %v", err)
	}
	for _, bad := range []engine.Delta{
		{Removed: []int{4, 1}},
		{Removed: []int{2, 2}},
		{Removed: []int{6}},
		{Added: -1},
	} {
		if err := bad.Validate(6, 6-len(bad.Removed)+bad.Added); err == nil {
			t.Fatalf("invalid delta %+v accepted", bad)
		}
	}
	if err := (engine.Delta{Added: 1}).Validate(6, 9); err == nil {
		t.Fatal("inconsistent newN accepted")
	}
}
