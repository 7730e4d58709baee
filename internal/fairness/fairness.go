// Package fairness implements the paper's fairness model (§2): a fairness
// oracle is a black box that maps an ordering of the dataset to a boolean
// verdict. The package provides the two concrete families evaluated in §6 —
// FM1 (proportional representation of the groups of a single type attribute
// at the top-k) and FM2 (simultaneous upper bounds over several type
// attributes, after Celis et al.) — plus prefix-fairness in the style of
// FA*IR, boolean combinators, and an instrumentation wrapper that counts
// oracle calls (the On term in every complexity bound of the paper).
package fairness

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"fairrank/internal/dataset"
	"fairrank/internal/ranking"
)

// Oracle decides whether an ordering of the dataset (a permutation of item
// indices, best first) is satisfactory.
type Oracle interface {
	// Check returns true when the ordering meets the fairness constraints.
	Check(order []int) bool
}

// Func adapts a plain function to an Oracle — the paper's "any constraint
// that can be evaluated over a ranked list" escape hatch.
type Func func(order []int) bool

// Check implements Oracle.
func (f Func) Check(order []int) bool { return f(order) }

// GroupBound constrains how many members of one group may appear in the
// top-k. Min = −1 means no lower bound; Max = −1 means no upper bound.
type GroupBound struct {
	Group string // label of the group in the type attribute
	Min   int
	Max   int
}

// TopK is the FM1 oracle: for one categorical type attribute and a cutoff k,
// every listed group's count among the top-k must respect its bounds.
type TopK struct {
	k      int
	values []int // item → group index
	bounds []resolvedBound
	groups int
}

type resolvedBound struct {
	group    int
	min, max int
}

// NewTopK builds an FM1 oracle over the dataset's type attribute attr with
// cutoff k and the given per-group bounds.
func NewTopK(ds *dataset.Dataset, attr string, k int, bounds []GroupBound) (*TopK, error) {
	if k <= 0 || k > ds.N() {
		return nil, fmt.Errorf("fairness: top-k cutoff %d out of range (n=%d)", k, ds.N())
	}
	if len(bounds) == 0 {
		return nil, errors.New("fairness: no group bounds given")
	}
	ta, err := ds.TypeAttr(attr)
	if err != nil {
		return nil, err
	}
	labelIdx := map[string]int{}
	for i, l := range ta.Labels {
		labelIdx[l] = i
	}
	t := &TopK{
		k:      k,
		values: ta.Values,
		groups: len(ta.Labels),
	}
	for _, b := range bounds {
		g, ok := labelIdx[b.Group]
		if !ok {
			return nil, fmt.Errorf("fairness: unknown group %q in attribute %q", b.Group, attr)
		}
		if b.Min >= 0 && b.Max >= 0 && b.Min > b.Max {
			return nil, fmt.Errorf("fairness: group %q has min %d > max %d", b.Group, b.Min, b.Max)
		}
		t.bounds = append(t.bounds, resolvedBound{group: g, min: b.Min, max: b.Max})
	}
	return t, nil
}

// K returns the top-k cutoff.
func (t *TopK) K() int { return t.k }

// Check implements Oracle in O(k + #bounds). It reads only which items
// hold order[:k], never their order. Attributes with up to eight groups
// count on the stack, so a probe allocates nothing.
func (t *TopK) Check(order []int) bool {
	var small [8]int
	counts := small[:]
	if t.groups > len(small) {
		counts = make([]int, t.groups)
	}
	for _, item := range order[:t.k] {
		counts[t.values[item]]++
	}
	for _, b := range t.bounds {
		c := counts[b.group]
		if b.min >= 0 && c < b.min {
			return false
		}
		if b.max >= 0 && c > b.max {
			return false
		}
	}
	return true
}

// TopFracK converts a fraction of the dataset ("the top-ranked 30%") into an
// absolute cutoff, rounding half away from zero and clamping to [1, n].
func TopFracK(ds *dataset.Dataset, frac float64) int {
	k := int(math.Round(frac * float64(ds.N())))
	if k < 1 {
		k = 1
	}
	if k > ds.N() {
		k = ds.N()
	}
	return k
}

// MaxShare builds the paper's default constraint shape: group's share of the
// top-k may exceed its share of the dataset by at most slack (e.g. the
// default COMPAS oracle is MaxShare(ds, "race", "African-American", 0.30,
// 0.10): at most 50%+10% = 60% of the top 30%).
func MaxShare(ds *dataset.Dataset, attr, group string, topFrac, slack float64) (*TopK, error) {
	props, err := ds.GroupProportions(attr)
	if err != nil {
		return nil, err
	}
	ta, _ := ds.TypeAttr(attr)
	gi := -1
	for i, l := range ta.Labels {
		if l == group {
			gi = i
			break
		}
	}
	if gi < 0 {
		return nil, fmt.Errorf("fairness: unknown group %q in attribute %q", group, attr)
	}
	k := TopFracK(ds, topFrac)
	maxCount := int(math.Floor((props[gi] + slack) * float64(k)))
	return NewTopK(ds, attr, k, []GroupBound{{Group: group, Min: -1, Max: maxCount}})
}

// MinShare is the symmetric lower-bound constructor ("at least 200 women in
// the top 500").
func MinShare(ds *dataset.Dataset, attr, group string, topFrac, share float64) (*TopK, error) {
	k := TopFracK(ds, topFrac)
	minCount := int(math.Ceil(share * float64(k)))
	return NewTopK(ds, attr, k, []GroupBound{{Group: group, Min: minCount, Max: -1}})
}

// Proportional builds an FM1 oracle constraining EVERY group of the type
// attribute to stay within ±slack of its dataset proportion at the top-k:
// group g with dataset share p_g must hold between ⌈(p_g−slack)·k⌉ and
// ⌊(p_g+slack)·k⌋ of the top k. This is the "demographics of those
// receiving the outcome mirror the demographics of the population" reading
// of statistical parity.
func Proportional(ds *dataset.Dataset, attr string, topFrac, slack float64) (*TopK, error) {
	props, err := ds.GroupProportions(attr)
	if err != nil {
		return nil, err
	}
	ta, _ := ds.TypeAttr(attr)
	k := TopFracK(ds, topFrac)
	bounds := make([]GroupBound, 0, len(ta.Labels))
	for i, label := range ta.Labels {
		lo := int(math.Ceil((props[i] - slack) * float64(k)))
		if lo < 0 {
			lo = 0
		}
		hi := int(math.Floor((props[i] + slack) * float64(k)))
		if hi > k {
			hi = k
		}
		if lo > hi {
			return nil, fmt.Errorf("fairness: slack %v leaves group %q with empty range [%d, %d]", slack, label, lo, hi)
		}
		bounds = append(bounds, GroupBound{Group: label, Min: lo, Max: hi})
	}
	return NewTopK(ds, attr, k, bounds)
}

// All is the FM2 combinator: satisfactory iff every sub-oracle accepts.
// With one TopK per type attribute it expresses the multi-attribute upper
// bounds of Celis et al. used in the paper's FM2 experiments.
type All []Oracle

// Check implements Oracle.
func (a All) Check(order []int) bool {
	for _, o := range a {
		if !o.Check(order) {
			return false
		}
	}
	return true
}

// Any accepts when at least one sub-oracle accepts.
type Any []Oracle

// Check implements Oracle.
func (a Any) Check(order []int) bool {
	for _, o := range a {
		if o.Check(order) {
			return true
		}
	}
	return false
}

// Not inverts an oracle.
type Not struct{ O Oracle }

// Check implements Oracle.
func (n Not) Check(order []int) bool { return !n.O.Check(order) }

// Prefix is a FA*IR-style oracle (Zehlike et al., cited as [32]): for every
// prefix of length i = 1..k, the protected group must hold at least
// ⌊p·i⌋ − slack positions. It expresses "the proportion of protected
// members statistically remains above a given minimum in every prefix".
type Prefix struct {
	k         int
	protected []bool
	p         float64
	slack     int
}

// NewPrefix builds a prefix-fairness oracle for the given protected group of
// a type attribute.
func NewPrefix(ds *dataset.Dataset, attr, group string, k int, p float64, slack int) (*Prefix, error) {
	if k <= 0 || k > ds.N() {
		return nil, fmt.Errorf("fairness: prefix cutoff %d out of range (n=%d)", k, ds.N())
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("fairness: prefix proportion %v out of [0,1]", p)
	}
	ta, err := ds.TypeAttr(attr)
	if err != nil {
		return nil, err
	}
	gi := -1
	for i, l := range ta.Labels {
		if l == group {
			gi = i
			break
		}
	}
	if gi < 0 {
		return nil, fmt.Errorf("fairness: unknown group %q in attribute %q", group, attr)
	}
	prot := make([]bool, ds.N())
	for i, v := range ta.Values {
		prot[i] = v == gi
	}
	return &Prefix{k: k, protected: prot, p: p, slack: slack}, nil
}

// Check implements Oracle in O(k).
func (pf *Prefix) Check(order []int) bool {
	count := 0
	for i := 0; i < pf.k; i++ {
		if pf.protected[order[i]] {
			count++
		}
		need := int(math.Floor(pf.p*float64(i+1))) - pf.slack
		if count < need {
			return false
		}
	}
	return true
}

// Reads reports what the oracle's Check reads of an ordering, so a probe
// can rank no more than that (ranking.Buffers.Rank): the prefix length K
// (0 when the oracle may read the whole ordering) and whether only the
// membership of order[:K] matters. A TopK counts group members in its
// prefix and reads membership only; a Prefix walks its prefix in order.
// Counter and Not report their inner oracle. Func and unknown oracles may
// read anything and get the full ordering.
func Reads(o Oracle) ranking.Need {
	switch v := o.(type) {
	case *TopK:
		return ranking.Need{K: v.k, SetOnly: true}
	case *Prefix:
		return ranking.Need{K: v.k}
	case *Counter:
		return Reads(v.O)
	case Not:
		return Reads(v.O)
	case All:
		return combinedReads(v)
	case Any:
		return combinedReads(v)
	default:
		return ranking.Need{}
	}
}

// combinedReads is the need of a combinator: membership only when every
// member reads membership only at one shared K. Members with different K
// get the sorted prefix at the largest K instead — given an unsorted
// top-40 set, a k=10 member would count the wrong ten items. Any member
// that may read everything makes the combinator read everything.
func combinedReads(members []Oracle) ranking.Need {
	var need ranking.Need
	for i, m := range members {
		r := Reads(m)
		if r.K <= 0 {
			return ranking.Need{}
		}
		if i == 0 {
			need = r
			continue
		}
		if !r.SetOnly || r.K != need.K {
			need.SetOnly = false
		}
		need.K = max(need.K, r.K)
	}
	return need
}

// Counter wraps an oracle and counts Check calls; every offline algorithm in
// the paper is measured in oracle calls (the O_n term of Theorems 1 and 3).
// The counter is atomic, so one Counter may be shared by the concurrent
// workers of the parallel sweep and MarkCellsParallel.
type Counter struct {
	O     Oracle
	calls atomic.Int64
}

// Check implements Oracle. Safe for concurrent use when O is.
func (c *Counter) Check(order []int) bool {
	c.calls.Add(1)
	return c.O.Check(order)
}

// Calls returns the number of Check calls so far, plus the probes Add
// reported.
func (c *Counter) Calls() int { return int(c.calls.Load()) }

// Add bumps the call count by n without evaluating the oracle — used by the
// incremental 2D sweep, whose probes are answered in O(1) by the oracle's
// incremental state but each still represent one logical oracle call.
func (c *Counter) Add(n int) { c.calls.Add(int64(n)) }
