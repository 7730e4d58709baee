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
	md, err := core.SatRegions(ds, oracle, core.Options{UseTree: true, Seed: seed})
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
// for any query order (ascending angles as the planner sorts them,
// descending, runs of consecutive duplicates), including the slots a
// chunk's restricted ranking leaves out of its box, with one Scratch shared
// across every engine and chunk.
func TestConformanceBatchMatchesScalar(t *testing.T) {
	fx := buildFixture(t, 17)
	engines := fx.engines
	// The refined grid variant has its own kernel path; conform it too.
	engines["approx-refined"] = cells.NewEngine(fx.approx, true)
	fan := queryFan(41, 1.5)
	// A bad query lands in the middle so error slots are exercised.
	fan[20] = geom.Vector{0, 0}
	rev := make([]geom.Vector, len(fan))
	for i, q := range fan {
		rev[len(fan)-1-i] = q
	}
	dupes := make([]geom.Vector, 0, 3*len(fan))
	for _, q := range fan {
		dupes = append(dupes, q, q, q)
	}
	chunks := map[string][]geom.Vector{
		"ascending":  fan,
		"descending": rev,
		"duplicates": dupes,
		"malformed":  malformedChunk(fan),
		// One finite query: no box, every check ranks all n items.
		"one finite": {geom.Vector{math.NaN(), 1}, fan[7], geom.Vector{1, 2, 3}},
	}
	s := new(engine.Scratch) // deliberately shared and never reset
	for name, e := range engines {
		for cname, queries := range chunks {
			dst := make([]engine.Result, len(queries))
			e.SuggestBatch(dst, queries, s)
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
				e.SuggestBatch(dst, chunk, s)
				sameAnswers(t, fmt.Sprintf("engine %s round %d designer %d", name, round, k), e, chunk, dst)
				if k != 1 {
					s.Reset()
				}
			}
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

// A MaxHyperplanes-capped exact index still labels each region with the
// oracle's verdict at the region's own witness, so on unchanged data every
// sampled satisfactory witness is probed and passes — otherwise the serving
// drift loop would rebuild such designers forever — and an always-unfair
// world fails every probe.
func TestConformanceRevalidateCappedExact(t *testing.T) {
	ds, err := datagen.Biased(100, 2, 0.5, 0.25, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	md, err := core.SatRegions(ds, oracle, core.Options{UseTree: true, MaxHyperplanes: 300})
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEngine(md)
	if !e.Satisfiable() {
		t.Skip("unsatisfiable instance")
	}
	probes := len(md.Sat)
	if probes > 512 {
		t.Fatalf("|Sat| = %d; the fixture must keep every witness in Revalidate's 512-probe sample", probes)
	}
	report, err := e.Revalidate(ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Healthy() || report.Probes != probes || report.StillSatisfactory != probes {
		t.Fatalf("capped index on unchanged data: %+v, want all %d satisfactory witnesses probed and passing", report, probes)
	}
	never := fairness.Func(func([]int) bool { return false })
	report, err = e.Revalidate(ds, never)
	if err != nil {
		t.Fatal(err)
	}
	if report.Healthy() || report.StillSatisfactory != 0 || report.Probes != probes || len(report.Violations) != probes {
		t.Fatalf("capped index must fail every probe in an always-unfair world: %+v", report)
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
	md, err := core.SatRegions(ds, never, core.Options{UseTree: true})
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

// Patchable conformance: only the 2D adapter implements engine.Patchable —
// the exact and grid builds fit only the hyperplanes a MaxHyperplanes cap
// keeps, so a repair of theirs would cost what a rebuild does — and its
// Repair must be observationally identical to a from-scratch build over the
// patched dataset with the same options: Satisfiable, QualityBound, and
// Suggest all bit for bit, with the receiver's answers undisturbed.
func TestConformancePatchableRepairMatchesRebuild(t *testing.T) {
	fx := buildFixture(t, 17)
	for _, name := range []string{"exact", "approx"} {
		if _, ok := fx.engines[name].(engine.Patchable); ok {
			t.Fatalf("engine %s implements engine.Patchable; only 2d repairs", name)
		}
	}
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
	sweep, err := twod.RaySweep(patched, oracle, twod.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := twod.NewEngine(sweep)

	e := fx.engines["2d"]
	queries := queryFan(25, 1.5)
	// Snapshot the receiver's pre-repair answers: Repair must not disturb
	// the serving index it derives from.
	type snap struct {
		w    geom.Vector
		dist float64
		err  bool
	}
	var before []snap
	for _, q := range queries {
		w, dist, err := e.Suggest(q)
		before = append(before, snap{w, dist, err != nil})
	}
	p, ok := e.(engine.Patchable)
	if !ok {
		t.Fatal("engine 2d does not implement engine.Patchable")
	}
	repaired, err := p.Repair(patched, oracle, engine.Delta{Removed: delta.Removed, Added: len(delta.Added)})
	if err != nil {
		t.Fatalf("engine 2d repair: %v", err)
	}
	if repaired.Satisfiable() != want.Satisfiable() {
		t.Fatalf("repaired satisfiable=%v, rebuild says %v", repaired.Satisfiable(), want.Satisfiable())
	}
	if math.Float64bits(repaired.QualityBound()) != math.Float64bits(want.QualityBound()) {
		t.Fatalf("repaired bound %v, rebuild %v", repaired.QualityBound(), want.QualityBound())
	}
	for _, q := range queries {
		w1, d1, err1 := repaired.Suggest(q)
		w2, d2, err2 := want.Suggest(q)
		if (err1 != nil) != (err2 != nil) || math.Float64bits(d1) != math.Float64bits(d2) {
			t.Fatalf("q %v: repaired (%v,%v,%v) vs rebuild (%v,%v,%v)", q, w1, d1, err1, w2, d2, err2)
		}
		for j := range w2 {
			if math.Float64bits(w1[j]) != math.Float64bits(w2[j]) {
				t.Fatalf("q %v: repaired weights %v, rebuild %v (must be byte-identical)", q, w1, w2)
			}
		}
	}
	for i, q := range queries {
		w, dist, err := e.Suggest(q)
		s := before[i]
		if (err != nil) != s.err || math.Float64bits(dist) != math.Float64bits(s.dist) {
			t.Fatalf("Repair disturbed the receiver at %v", q)
		}
		for j := range s.w {
			if math.Float64bits(w[j]) != math.Float64bits(s.w[j]) {
				t.Fatalf("Repair disturbed the receiver's weights at %v", q)
			}
		}
	}
}

// A decoded persisted stream keeps no build state: the 2D engine loaded
// from one must refuse to repair with ErrRepairUnsupported, and the exact
// and grid engines loaded from one do not implement engine.Patchable.
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
		if name != "2d" {
			if ok {
				t.Fatalf("decoded engine %s implements engine.Patchable; only 2d repairs", name)
			}
			continue
		}
		if !ok {
			t.Fatal("decoded engine 2d lost the Patchable interface")
		}
		if _, err := p.Repair(patched, oracle, delta); !errors.Is(err, engine.ErrRepairUnsupported) {
			t.Fatalf("decoded engine 2d: Repair err %v, want ErrRepairUnsupported", err)
		}
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
