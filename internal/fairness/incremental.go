package fairness

import "math"

// Incremental is the stateful counterpart of Oracle for sweep-style
// algorithms: between two consecutive sectors of the 2D ray sweep the
// ordering changes by a single swap, so a verdict can be maintained in O(1)
// amortized instead of re-reading a top-k prefix on every probe — this is
// what removes the O_n factor from the offline phase.
//
// Protocol: Begin captures the ordering slice (by reference — the caller
// mutates it in place); Swap is called after the caller has exchanged the
// items at positions posA and posB of that slice; Valid answers for the
// current state. A fresh Incremental must be obtained per goroutine: states
// are not safe for concurrent use even when the underlying Oracle is.
type Incremental interface {
	// Begin (re)initializes the state for the given ordering. The slice is
	// retained; subsequent Swap calls describe in-place mutations of it.
	Begin(order []int)
	// Swap updates the state after the items at positions posA and posB
	// (0 = best) of the ordering have been exchanged.
	Swap(posA, posB int)
	// Valid reports whether the current ordering is satisfactory.
	Valid() bool
}

// IncrementalProvider is implemented by oracles that can produce a native
// incremental state. Oracles without one still work through NewIncremental's
// full-Check fallback adapter.
type IncrementalProvider interface {
	Incremental() Incremental
}

// NewIncremental returns an incremental state for the oracle: the oracle's
// native one when it implements IncrementalProvider, otherwise a fallback
// that re-runs Check on every Valid call (same cost as the non-incremental
// path — never worse, never wrong).
func NewIncremental(o Oracle) Incremental {
	if p, ok := o.(IncrementalProvider); ok {
		return p.Incremental()
	}
	return &fallbackInc{o: o}
}

// fallbackInc adapts any Oracle to the Incremental protocol by ignoring
// swaps and calling Check against the live ordering slice.
type fallbackInc struct {
	o     Oracle
	order []int
}

func (f *fallbackInc) Begin(order []int) { f.order = order }
func (f *fallbackInc) Swap(_, _ int)     {}
func (f *fallbackInc) Valid() bool       { return f.o.Check(f.order) }

// Incremental implements IncrementalProvider. The state maintains per-group
// counts over the top-k and a violated-bounds counter, so a swap costs O(1):
// only swaps that cross the k boundary between items of different groups
// change anything.
func (t *TopK) Incremental() Incremental {
	// Merge the bound list into dense per-group min/max arrays (−1 = none).
	// Multiple bounds on one group intersect: effective min is the largest
	// lower bound, effective max the smallest upper bound — the conjunction
	// Check evaluates.
	minB := make([]int, t.groups)
	maxB := make([]int, t.groups)
	bounded := make([]bool, t.groups)
	for g := range minB {
		minB[g], maxB[g] = -1, -1
	}
	for _, b := range t.bounds {
		bounded[b.group] = true
		if b.min >= 0 && b.min > minB[b.group] {
			minB[b.group] = b.min
		}
		if b.max >= 0 && (maxB[b.group] < 0 || b.max < maxB[b.group]) {
			maxB[b.group] = b.max
		}
	}
	return &topKInc{t: t, minB: minB, maxB: maxB, bounded: bounded, counts: make([]int, t.groups)}
}

type topKInc struct {
	t          *TopK
	order      []int
	counts     []int
	minB, maxB []int
	bounded    []bool
	violations int
}

func (s *topKInc) Begin(order []int) {
	s.order = order
	for g := range s.counts {
		s.counts[g] = 0
	}
	for _, item := range order[:s.t.k] {
		s.counts[s.t.values[item]]++
	}
	s.violations = 0
	for g, b := range s.bounded {
		if b && s.violated(g) {
			s.violations++
		}
	}
}

func (s *topKInc) violated(g int) bool {
	c := s.counts[g]
	return (s.minB[g] >= 0 && c < s.minB[g]) || (s.maxB[g] >= 0 && c > s.maxB[g])
}

func (s *topKInc) Swap(posA, posB int) {
	if posA > posB {
		posA, posB = posB, posA
	}
	if posB < s.t.k || posA >= s.t.k {
		return // both inside or both outside the top-k: counts unchanged
	}
	// The swap already happened: order[posA] entered the top-k, order[posB]
	// left it.
	in := s.t.values[s.order[posA]]
	out := s.t.values[s.order[posB]]
	if in == out {
		return
	}
	s.bump(in, +1)
	s.bump(out, -1)
}

func (s *topKInc) bump(g, delta int) {
	if !s.bounded[g] {
		s.counts[g] += delta
		return
	}
	was := s.violated(g)
	s.counts[g] += delta
	if now := s.violated(g); now != was {
		if now {
			s.violations++
		} else {
			s.violations--
		}
	}
}

func (s *topKInc) Valid() bool { return s.violations == 0 }

// Incremental implements IncrementalProvider. The state maintains the
// per-prefix protected counts c(i) = |{j ≤ i : order[j] protected}| for
// i < k and the number of violated prefixes. A swap of positions posA < posB
// moves a protected item past an unprotected one (or vice versa), shifting
// c(i) by ±1 exactly for i ∈ [posA, min(posB, k)−1]; each shifted prefix
// crosses its FA*IR threshold ⌊p·(i+1)⌋ − slack by at most one, so the
// violation counter updates in O(1) per shifted prefix. Worst case O(k) per
// swap, O(1) when the swap is outside the prefix window — against the
// fallback's O(k) full re-check on every probe.
func (pf *Prefix) Incremental() Incremental {
	need := make([]int, pf.k)
	for i := range need {
		need[i] = int(math.Floor(pf.p*float64(i+1))) - pf.slack
	}
	return &prefixInc{pf: pf, need: need, counts: make([]int, pf.k)}
}

type prefixInc struct {
	pf         *Prefix
	order      []int
	counts     []int // counts[i] = protected members among order[0..i]
	need       []int // need[i] = required protected members among order[0..i]
	violations int
}

func (s *prefixInc) Begin(order []int) {
	s.order = order
	s.violations = 0
	count := 0
	for i := 0; i < s.pf.k; i++ {
		if s.pf.protected[order[i]] {
			count++
		}
		s.counts[i] = count
		if count < s.need[i] {
			s.violations++
		}
	}
}

func (s *prefixInc) Swap(posA, posB int) {
	if posA > posB {
		posA, posB = posB, posA
	}
	if posA >= s.pf.k {
		return // both positions beyond the inspected prefix
	}
	// The swap already happened: order[posA] moved up from posB. Prefixes
	// i ≥ posB (or beyond k) contain both items before and after, and
	// prefixes i < posA contain neither, so only [posA, min(posB,k)−1] shift.
	a := s.pf.protected[s.order[posA]]
	b := s.pf.protected[s.order[posB]]
	if a == b {
		return
	}
	delta := -1
	if a {
		delta = 1 // a protected item moved into these prefixes
	}
	hi := posB
	if hi > s.pf.k {
		hi = s.pf.k
	}
	for i := posA; i < hi; i++ {
		was := s.counts[i] < s.need[i]
		s.counts[i] += delta
		if now := s.counts[i] < s.need[i]; now != was {
			if now {
				s.violations++
			} else {
				s.violations--
			}
		}
	}
}

func (s *prefixInc) Valid() bool { return s.violations == 0 }

// Incremental implements IncrementalProvider: every member gets its own
// state (native or fallback); the conjunction is re-evaluated per Valid in
// O(#members).
func (a All) Incremental() Incremental {
	return &groupInc{members: memberStates(a), all: true}
}

// Incremental implements IncrementalProvider (disjunction).
func (a Any) Incremental() Incremental {
	return &groupInc{members: memberStates(a), all: false}
}

func memberStates(members []Oracle) []Incremental {
	states := make([]Incremental, len(members))
	for i, m := range members {
		states[i] = NewIncremental(m)
	}
	return states
}

type groupInc struct {
	members []Incremental
	all     bool
}

func (g *groupInc) Begin(order []int) {
	for _, m := range g.members {
		m.Begin(order)
	}
}

func (g *groupInc) Swap(posA, posB int) {
	for _, m := range g.members {
		m.Swap(posA, posB)
	}
}

func (g *groupInc) Valid() bool {
	for _, m := range g.members {
		if m.Valid() != g.all {
			return !g.all
		}
	}
	return g.all
}

// Incremental implements IncrementalProvider by negating the inner state.
func (n Not) Incremental() Incremental { return &notInc{inner: NewIncremental(n.O)} }

type notInc struct{ inner Incremental }

func (n *notInc) Begin(order []int) { n.inner.Begin(order) }
func (n *notInc) Swap(a, b int)     { n.inner.Swap(a, b) }
func (n *notInc) Valid() bool       { return !n.inner.Valid() }
