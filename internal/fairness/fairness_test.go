package fairness

import (
	"testing"

	"fairrank/internal/dataset"
	"fairrank/internal/ranking"
)

// mk builds a 10-item dataset with a binary "g" attribute: items 0-5 are
// "a", items 6-9 are "b".
func mk(t *testing.T) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, 10)
	vals := make([]int, 10)
	for i := range rows {
		rows[i] = []float64{float64(i)}
		if i >= 6 {
			vals[i] = 1
		}
	}
	ds, err := dataset.New([]string{"x"}, rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("g", []string{"a", "b"}, vals); err != nil {
		t.Fatal(err)
	}
	return ds
}

func ident(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = i
	}
	return o
}

func TestTopKUpperBound(t *testing.T) {
	ds := mk(t)
	// Top-4 of identity order is items 0,1,2,3 — all group "a".
	o, err := NewTopK(ds, "g", 4, []GroupBound{{Group: "a", Min: -1, Max: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Check(ident(10)) {
		t.Error("4 a's should violate max 2")
	}
	// Order with two b's up front passes.
	if !o.Check([]int{6, 7, 0, 1, 2, 3, 4, 5, 8, 9}) {
		t.Error("2 a's should satisfy max 2")
	}
	if o.K() != 4 {
		t.Errorf("K = %d", o.K())
	}
}

func TestTopKLowerBound(t *testing.T) {
	ds := mk(t)
	o, err := NewTopK(ds, "g", 4, []GroupBound{{Group: "b", Min: 2, Max: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if o.Check(ident(10)) {
		t.Error("0 b's should violate min 2")
	}
	if !o.Check([]int{6, 7, 0, 1, 2, 3, 4, 5, 8, 9}) {
		t.Error("2 b's should satisfy min 2")
	}
}

func TestTopKBothBounds(t *testing.T) {
	ds := mk(t)
	o, err := NewTopK(ds, "g", 4, []GroupBound{{Group: "a", Min: 1, Max: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !o.Check([]int{0, 6, 7, 1, 2, 3, 4, 5, 8, 9}) { // 2 a's
		t.Error("2 a's in [1,3] should pass")
	}
	if o.Check([]int{6, 7, 8, 9, 0, 1, 2, 3, 4, 5}) { // 0 a's
		t.Error("0 a's should violate min 1")
	}
}

func TestNewTopKValidation(t *testing.T) {
	ds := mk(t)
	if _, err := NewTopK(ds, "g", 0, []GroupBound{{Group: "a", Max: 1}}); err == nil {
		t.Error("expected k range error")
	}
	if _, err := NewTopK(ds, "g", 99, []GroupBound{{Group: "a", Max: 1}}); err == nil {
		t.Error("expected k range error")
	}
	if _, err := NewTopK(ds, "g", 4, nil); err == nil {
		t.Error("expected no-bounds error")
	}
	if _, err := NewTopK(ds, "zzz", 4, []GroupBound{{Group: "a", Max: 1}}); err == nil {
		t.Error("expected unknown attribute error")
	}
	if _, err := NewTopK(ds, "g", 4, []GroupBound{{Group: "zzz", Max: 1}}); err == nil {
		t.Error("expected unknown group error")
	}
	if _, err := NewTopK(ds, "g", 4, []GroupBound{{Group: "a", Min: 3, Max: 1}}); err == nil {
		t.Error("expected min>max error")
	}
}

func TestTopFracK(t *testing.T) {
	ds := mk(t)
	if k := TopFracK(ds, 0.3); k != 3 {
		t.Errorf("TopFracK(0.3) = %d", k)
	}
	if k := TopFracK(ds, 0); k != 1 {
		t.Errorf("TopFracK(0) = %d, want clamp to 1", k)
	}
	if k := TopFracK(ds, 2); k != 10 {
		t.Errorf("TopFracK(2) = %d, want clamp to n", k)
	}
}

func TestMaxShare(t *testing.T) {
	ds := mk(t)
	// Group "a" is 60% of the data. MaxShare with slack 0.1 over top-50%
	// (k=5) allows floor(0.7·5)=3.
	o, err := MaxShare(ds, "g", "a", 0.5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if o.Check(ident(10)) { // top-5 all a's
		t.Error("5 a's should violate max 3")
	}
	if !o.Check([]int{0, 1, 2, 6, 7, 3, 4, 5, 8, 9}) { // 3 a's
		t.Error("3 a's should pass")
	}
	if _, err := MaxShare(ds, "g", "zzz", 0.5, 0.1); err == nil {
		t.Error("expected unknown group error")
	}
	if _, err := MaxShare(ds, "zzz", "a", 0.5, 0.1); err == nil {
		t.Error("expected unknown attribute error")
	}
}

func TestMinShare(t *testing.T) {
	ds := mk(t)
	// At least 40% of top-5 must be "b": ceil(0.4·5) = 2.
	o, err := MinShare(ds, "g", "b", 0.5, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if o.Check(ident(10)) {
		t.Error("0 b's should fail")
	}
	if !o.Check([]int{6, 7, 0, 1, 2, 3, 4, 5, 8, 9}) {
		t.Error("2 b's should pass")
	}
}

func TestProportional(t *testing.T) {
	ds := mk(t) // 60% a, 40% b
	// k = 5, slack 0.25: group a in [ceil(0.35·5), floor(0.85·5)] = [2, 4];
	// group b in [ceil(0.15·5), floor(0.65·5)] = [1, 3].
	o, err := Proportional(ds, "g", 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if o.Check(ident(10)) { // 5 a's, 0 b's
		t.Error("all-a top-5 should fail")
	}
	if !o.Check([]int{0, 1, 2, 6, 7, 3, 4, 5, 8, 9}) { // 3 a's, 2 b's
		t.Error("3a/2b should pass")
	}
	if o.Check([]int{6, 7, 8, 9, 0, 1, 2, 3, 4, 5}) { // 1 a, 4 b's
		t.Error("1a/4b should fail (b max is 3)")
	}
	// Impossibly tight slack errors out.
	if _, err := Proportional(ds, "g", 0.1, 0.0); err == nil {
		// k=1: a needs [ceil(0.6), floor(0.6)] = [1, 0] — empty.
		t.Error("expected empty-range error for zero slack at k=1")
	}
	if _, err := Proportional(ds, "zzz", 0.5, 0.2); err == nil {
		t.Error("expected unknown attribute error")
	}
}

func TestCombinators(t *testing.T) {
	yes := Func(func([]int) bool { return true })
	no := Func(func([]int) bool { return false })
	if !(All{yes, yes}).Check(nil) || (All{yes, no}).Check(nil) {
		t.Error("All broken")
	}
	if !(Any{no, yes}).Check(nil) || (Any{no, no}).Check(nil) {
		t.Error("Any broken")
	}
	if (Not{yes}).Check(nil) || !(Not{no}).Check(nil) {
		t.Error("Not broken")
	}
}

func TestPrefix(t *testing.T) {
	ds := mk(t)
	// Protected group "b", p = 0.4, no slack: prefix of length 5 needs
	// ⌊0.4·5⌋ = 2 b's.
	o, err := NewPrefix(ds, "g", "b", 5, 0.4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.Check(ident(10)) {
		t.Error("all-a prefix should fail")
	}
	// b's early enough in every prefix.
	if !o.Check([]int{6, 0, 7, 1, 8, 2, 3, 4, 5, 9}) {
		t.Error("interleaved order should pass")
	}
	// Slack loosens the requirement.
	o2, _ := NewPrefix(ds, "g", "b", 5, 0.4, 2)
	if !o2.Check(ident(10)) {
		t.Error("slack 2 should pass with 0 b's in top-5 (needs ⌊2⌋−2=0)")
	}
	if _, err := NewPrefix(ds, "g", "b", 0, 0.4, 0); err == nil {
		t.Error("expected k error")
	}
	if _, err := NewPrefix(ds, "g", "b", 5, 1.4, 0); err == nil {
		t.Error("expected p error")
	}
	if _, err := NewPrefix(ds, "g", "zzz", 5, 0.4, 0); err == nil {
		t.Error("expected group error")
	}
	if _, err := NewPrefix(ds, "zzz", "b", 5, 0.4, 0); err == nil {
		t.Error("expected attribute error")
	}
}

func TestReads(t *testing.T) {
	ds := mk(t)
	topk, _ := NewTopK(ds, "g", 4, []GroupBound{{Group: "a", Max: 2}})
	topk6, _ := NewTopK(ds, "g", 6, []GroupBound{{Group: "b", Min: 1, Max: -1}})
	prefix, _ := NewPrefix(ds, "g", "b", 6, 0.3, 0)
	opaque := Func(func([]int) bool { return true })
	set := func(k int) ranking.Need { return ranking.Need{K: k, SetOnly: true} }
	sorted := func(k int) ranking.Need { return ranking.Need{K: k} }
	cases := []struct {
		o    Oracle
		want ranking.Need
	}{
		{topk, set(4)},
		{prefix, sorted(6)},
		{opaque, sorted(0)},
		{All{topk, prefix}, sorted(6)},
		{All{topk, opaque}, sorted(0)}, // any unknown member reads everything
		{Any{topk, prefix}, sorted(6)},
		{All{topk, topk}, set(4)},      // one shared K: membership suffices
		{Any{topk, Not{topk}}, set(4)}, // Not passes its member's need through
		{All{topk, topk6}, sorted(6)},  // mixed K: the k=4 member needs the true top 4
		{Any{topk6, topk}, sorted(6)},  // member order does not matter
		{All{prefix, topk6}, sorted(6)},
		{Not{topk}, set(4)},
		{&Counter{O: prefix}, sorted(6)},
		{&Counter{O: topk}, set(4)},
		{All{}, sorted(0)},
	}
	for i, c := range cases {
		if got := Reads(c.o); got != c.want {
			t.Errorf("case %d: Reads = %+v, want %+v", i, got, c.want)
		}
	}
}

func TestCounter(t *testing.T) {
	c := &Counter{O: Func(func([]int) bool { return true })}
	for i := 0; i < 7; i++ {
		c.Check(nil)
	}
	if c.Calls() != 7 {
		t.Errorf("Calls = %d", c.Calls())
	}
}
