package arrangement

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"fairrank/internal/geom"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

// fig7 is the paper's Figure 7 3D dataset.
func fig7() []geom.Vector {
	return []geom.Vector{
		{1, 2, 3}, {2, 4, 1}, {5.3, 1, 6}, {3, 7.2, 2},
	}
}

func TestHyperPolarPaperExample(t *testing.T) {
	// The ordering exchange of t1={1,2,3}, t2={2,4,1} is the weight-space
	// plane w1 + 2w2 − 2w3 = 0 (the paper's magenta plane in Figure 8).
	// Any positive weight vector on that plane must map to an angle point
	// (approximately) on the returned angle-space hyperplane.
	items := fig7()
	h, err := HyperPolar(items[0], items[1])
	if err != nil {
		t.Fatal(err)
	}
	// Points on w1 + 2w2 − 2w3 = 0 in the positive orthant:
	for _, w := range []geom.Vector{
		{2, 1, 2},     // 2 + 2 − 4 = 0
		{2, 2, 3},     // 2 + 4 − 6 = 0
		{4, 1, 3},     // 4 + 2 − 6 = 0
		{0.4, 0.8, 1}, // 0.4 + 1.6 − 2 = 0
	} {
		if math.Abs(w[0]+2*w[1]-2*w[2]) > 1e-9 {
			t.Fatalf("test point %v not on the exchange plane", w)
		}
		_, ang, err := geom.ToPolar(w)
		if err != nil {
			t.Fatal(err)
		}
		// The angle-space hyperplane interpolates the curved exchange locus,
		// so allow a tolerance commensurate with the curvature.
		if v := h.Eval(geom.Vector(ang)); math.Abs(v) > 0.15 {
			t.Errorf("exchange point %v maps to h·θ−1 = %v, want ≈ 0", w, v)
		}
	}
}

func TestHyperPolar2DExact(t *testing.T) {
	// In 2D the angle-space "hyperplane" is the single exchange angle and
	// must be exact: for t1=(1,2), t2=(2,1), θ = π/4 so h = [4/π].
	h, err := HyperPolar(geom.Vector{1, 2}, geom.Vector{2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Coef) != 1 {
		t.Fatalf("coef = %v", h.Coef)
	}
	theta := 1 / h.Coef[0]
	if math.Abs(theta-math.Pi/4) > 1e-9 {
		t.Errorf("exchange angle = %v, want π/4", theta)
	}
}

func TestHyperPolarErrors(t *testing.T) {
	if _, err := HyperPolar(geom.Vector{2, 2}, geom.Vector{1, 1}); err == nil {
		t.Error("expected error for dominating pair")
	}
	if _, err := HyperPolar(geom.Vector{1, 1}, geom.Vector{1, 1}); err == nil {
		t.Error("expected error for equal items")
	}
	if _, err := HyperPolar(geom.Vector{1, 2}, geom.Vector{1}); err == nil {
		t.Error("expected dimension mismatch error")
	}
	if _, err := HyperPolar(geom.Vector{1}, geom.Vector{2}); err == nil {
		t.Error("expected error for 1D items")
	}
}

// Property: HyperPolar's hyperplane separates weight vectors by which item
// scores higher. Sample random positive weights; the sign of
// (ti−tj)·w must match the side of the angle point, up to the curvature
// tolerance near the surface.
func TestHyperPolarSeparatesScores(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for iter := 0; iter < 40; iter++ {
		d := 2 + r.Intn(3)
		ti := make(geom.Vector, d)
		tj := make(geom.Vector, d)
		for k := 0; k < d; k++ {
			ti[k] = r.Float64() * 5
			tj[k] = r.Float64() * 5
		}
		if geom.Dominates(ti, tj) || geom.Dominates(tj, ti) || ti.Sub(tj).IsZero() {
			continue
		}
		h, err := HyperPolar(ti, tj)
		if err != nil {
			t.Fatal(err)
		}
		diff := ti.Sub(tj)
		agree, disagree := 0, 0
		for s := 0; s < 200; s++ {
			w := make(geom.Vector, d)
			for k := range w {
				w[k] = r.Float64()*2 + 1e-3
			}
			scoreSide := diff.Dot(w)
			if math.Abs(scoreSide) < 0.1 {
				continue // too close to the exchange surface to classify
			}
			_, ang, err := geom.ToPolar(w)
			if err != nil {
				t.Fatal(err)
			}
			hSide := h.Eval(geom.Vector(ang))
			if math.Abs(hSide) < 0.05 {
				continue
			}
			// Consistent orientation within one instance: count agreements.
			if (scoreSide > 0) == (hSide > 0) {
				agree++
			} else {
				disagree++
			}
		}
		total := agree + disagree
		if total < 20 {
			continue
		}
		frac := float64(max(agree, disagree)) / float64(total)
		if frac < 0.9 {
			t.Errorf("iter %d (d=%d): hyperplane separates only %.0f%% of clear-cut samples", iter, d, frac*100)
		}
	}
}

func TestBuildHyperplanes(t *testing.T) {
	hs, err := BuildHyperplanes(fig7())
	if err != nil {
		t.Fatal(err)
	}
	// Check only non-dominating pairs produce hyperplanes and pairs are tagged.
	if len(hs) == 0 {
		t.Fatal("no hyperplanes")
	}
	for _, h := range hs {
		if h.I < 0 || h.J <= h.I {
			t.Errorf("bad pair tag (%d,%d)", h.I, h.J)
		}
	}
	// t3={5.3,1,6} vs t1={1,2,3}: incomparable (5.3>1 but 1<2) → has exchange.
	found := false
	for _, h := range hs {
		if h.I == 0 && h.J == 2 {
			found = true
		}
	}
	if !found {
		t.Error("missing exchange for incomparable pair (0,2)")
	}
}

func TestArrangementSingleHyperplane(t *testing.T) {
	box := geom.FullAngleBox(3)
	a := New(box, false, rng())
	if a.NumRegions() != 1 {
		t.Fatalf("initial regions = %d", a.NumRegions())
	}
	// θ1 + θ2 = 1 crosses the box.
	a.Insert(geom.Hyperplane{Coef: geom.Vector{1, 1}})
	if a.NumRegions() != 2 {
		t.Fatalf("regions after insert = %d, want 2", a.NumRegions())
	}
	// A hyperplane far outside the box must not split anything.
	a.Insert(geom.Hyperplane{Coef: geom.Vector{0.01, 0.01}})
	if a.NumRegions() != 2 {
		t.Fatalf("regions after out-of-box insert = %d, want 2", a.NumRegions())
	}
}

func TestArrangementWitnessesInsideRegions(t *testing.T) {
	box := geom.FullAngleBox(3)
	r := rng()
	a := New(box, false, r)
	for i := 0; i < 12; i++ {
		coef := geom.Vector{r.Float64()*3 - 0.5, r.Float64()*3 - 0.5}
		a.Insert(geom.Hyperplane{Coef: coef})
	}
	for ri, reg := range a.Regions() {
		if !box.Contains(reg.Witness) {
			t.Errorf("region %d witness outside box: %v", ri, reg.Witness)
		}
		for _, sh := range reg.Sides {
			side := a.Hyperplanes[sh.H].SideOf(reg.Witness)
			if side != sh.S {
				t.Errorf("region %d witness on wrong side of h%d: %v vs %v",
					ri, sh.H, side, sh.S)
			}
		}
	}
}

// regionSignature canonicalizes a region as its sorted signed hyperplane set.
func regionSignature(r *Region) string {
	sides := append([]SignedHP(nil), r.Sides...)
	sort.Slice(sides, func(a, b int) bool { return sides[a].H < sides[b].H })
	sig := ""
	for _, s := range sides {
		sig += string(rune('0'+s.H)) + s.S.String()
	}
	return sig
}

// Property: baseline and arrangement-tree construction produce identical
// region sets.
func TestTreeMatchesBaseline(t *testing.T) {
	box := geom.FullAngleBox(3)
	r := rand.New(rand.NewSource(8))
	for iter := 0; iter < 15; iter++ {
		var hps []geom.Hyperplane
		for i := 0; i < 8; i++ {
			hps = append(hps, geom.Hyperplane{
				Coef: geom.Vector{r.Float64()*4 - 0.8, r.Float64()*4 - 0.8},
			})
		}
		base := New(box, false, rand.New(rand.NewSource(1)))
		tree := New(box, true, rand.New(rand.NewSource(1)))
		for _, h := range hps {
			base.Insert(h)
			tree.Insert(h)
		}
		if base.NumRegions() != tree.NumRegions() {
			t.Fatalf("iter %d: region counts differ: %d vs %d", iter, base.NumRegions(), tree.NumRegions())
		}
		bs := map[string]bool{}
		for _, reg := range base.Regions() {
			bs[regionSignature(reg)] = true
		}
		for _, reg := range tree.Regions() {
			if !bs[regionSignature(reg)] {
				t.Fatalf("iter %d: tree region %v missing from baseline", iter, regionSignature(reg))
			}
		}
		// The tree must do no more LP work than the baseline on non-trivial
		// instances (this is the point of Figure 18).
		if tree.Stats.Splits != base.Stats.Splits {
			t.Fatalf("iter %d: split counts differ: %d vs %d", iter, tree.Stats.Splits, base.Stats.Splits)
		}
	}
}

// Property: Locate is consistent — the region containing a random point has
// all its side constraints satisfied by the point.
func TestLocate(t *testing.T) {
	box := geom.FullAngleBox(3)
	r := rand.New(rand.NewSource(12))
	for _, useTree := range []bool{false, true} {
		a := New(box, useTree, rand.New(rand.NewSource(2)))
		for i := 0; i < 10; i++ {
			a.Insert(geom.Hyperplane{Coef: geom.Vector{r.Float64() * 3, r.Float64() * 3}})
		}
		for s := 0; s < 200; s++ {
			p := geom.Vector{r.Float64() * math.Pi / 2, r.Float64() * math.Pi / 2}
			reg := a.Locate(p)
			if reg == nil {
				t.Fatalf("useTree=%v: no region for %v", useTree, p)
			}
			for _, sh := range reg.Sides {
				side := a.Hyperplanes[sh.H].SideOf(p)
				if side != sh.S && side != geom.On {
					t.Fatalf("useTree=%v: point %v in region with wrong side of h%d", useTree, p, sh.H)
				}
			}
		}
	}
}

// Property: region witnesses have pairwise distinct sign vectors — they are
// genuinely different regions.
func TestRegionsDistinct(t *testing.T) {
	box := geom.FullAngleBox(3)
	a := New(box, true, rng())
	r := rand.New(rand.NewSource(33))
	for i := 0; i < 12; i++ {
		a.Insert(geom.Hyperplane{Coef: geom.Vector{r.Float64() * 3, r.Float64() * 3}})
	}
	sigs := map[string]bool{}
	for _, reg := range a.Regions() {
		sig := ""
		for _, h := range a.Hyperplanes {
			sig += h.SideOf(reg.Witness).String()
		}
		if sigs[sig] {
			t.Fatalf("two regions share witness signature %s", sig)
		}
		sigs[sig] = true
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// A reset arrangement reproduces a fresh one bit for bit: for the same box,
// inserts and seed, the same regions in the same order, with the same sides,
// witnesses and versions, and the same Stats. One arrangement is reset
// across boxes of different dimensions and both construction modes, so its
// LP workspace and scratch carry sizes from unrelated builds.
func TestResetMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	reused := New(geom.FullAngleBox(3), true, rng())
	splits := 0
	for iter := 0; iter < 30; iter++ {
		dim := 2 + r.Intn(2)
		box := geom.Box{Lo: make(geom.Vector, dim), Hi: make(geom.Vector, dim)}
		for k := range box.Lo {
			box.Lo[k] = r.Float64() * math.Pi / 4
			box.Hi[k] = box.Lo[k] + 0.1 + r.Float64()*math.Pi/4
		}
		var hps []geom.Hyperplane
		for i := 0; i < 3+r.Intn(10); i++ {
			coef := make(geom.Vector, dim)
			for k := range coef {
				coef[k] = r.Float64()*3 - 0.5
			}
			hps = append(hps, geom.Hyperplane{Coef: coef})
		}
		useTree := r.Intn(2) == 0
		seed := r.Int63()
		fresh := New(box, useTree, rand.New(rand.NewSource(seed)))
		reused.Reset(box, useTree, rand.New(rand.NewSource(seed)))
		for _, h := range hps {
			fresh.Insert(h)
			reused.Insert(h)
		}
		if fresh.Stats != reused.Stats {
			t.Fatalf("iter %d: stats %+v after Reset, %+v fresh", iter, reused.Stats, fresh.Stats)
		}
		splits += fresh.Stats.Splits
		if len(fresh.Hyperplanes) != len(reused.Hyperplanes) || fresh.NumRegions() != reused.NumRegions() {
			t.Fatalf("iter %d: %d hyperplanes and %d regions after Reset, %d and %d fresh", iter,
				len(reused.Hyperplanes), reused.NumRegions(), len(fresh.Hyperplanes), fresh.NumRegions())
		}
		for i, want := range fresh.Regions() {
			got := reused.Regions()[i]
			if got.Version != want.Version || !slices.Equal(got.Sides, want.Sides) {
				t.Fatalf("iter %d region %d: version %d sides %v after Reset, %d %v fresh",
					iter, i, got.Version, got.Sides, want.Version, want.Sides)
			}
			if !slices.EqualFunc(got.Witness, want.Witness, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Fatalf("iter %d region %d: witness %v after Reset, %v fresh", iter, i, got.Witness, want.Witness)
			}
		}
	}
	if splits == 0 {
		t.Fatal("no insert split a region: the test compares nothing")
	}
}
