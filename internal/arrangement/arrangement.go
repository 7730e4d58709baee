package arrangement

import (
	"math/rand"

	"fairrank/internal/geom"
	"fairrank/internal/lp"
)

// MinMargin is the interior margin below which a region or a crossing is
// treated as degenerate (a sliver with no full-dimensional interior).
const MinMargin = 1e-7

// SignedHP is a signed reference to a hyperplane of an arrangement: the
// region lies on side S of hyperplane index H.
type SignedHP struct {
	H int
	S geom.Side
}

// Region is a convex region of the arrangement: the intersection of the box
// with the half-spaces in Sides (Eq. 6 of the paper). Witness is a point
// with positive interior margin, used to sample the ordering that holds
// throughout the region.
type Region struct {
	Sides   []SignedHP
	Witness geom.Vector
	// Satisfactory is filled in by the oracle-labeling pass of SATREGIONS.
	Satisfactory bool
	// Version increments whenever Witness is recomputed, letting the
	// early-stopping cell algorithms (§5) re-test only regions whose
	// witness changed since the last oracle probe.
	Version int
}

// Stats counts the work done during construction; Figures 18 and 19 plot
// these against the number of inserted hyperplanes.
type Stats struct {
	LPCalls            int
	IntersectionChecks int
	Splits             int
}

// Arrangement incrementally maintains the convex regions induced by a set of
// hyperplanes within a box of the angle coordinate system.
type Arrangement struct {
	Box         geom.Box
	Hyperplanes []geom.Hyperplane
	Stats       Stats

	regions []*Region
	useTree bool
	root    *treeNode
	rng     *rand.Rand
	// neg[h] is −Hyperplanes[h].Coef: the normal of side Above as an lp
	// constraint (−h·θ ≤ −1). Immutable once set, so region constraints
	// share it instead of negating per call.
	neg [][]float64

	// Insertion scratch, reused across Insert calls: the LP workspace, the
	// constraints of a region being re-witnessed, and the half-spaces on
	// the path from the tree root to the node being visited.
	ws   lp.Workspace
	cons []lp.Constraint
	path []lp.Constraint
}

// New returns an arrangement over the given box containing a single region
// (the whole box). When useTree is true, insertions descend the arrangement
// tree of Algorithm 5 instead of scanning all regions.
func New(box geom.Box, useTree bool, rng *rand.Rand) *Arrangement {
	whole := &Region{Witness: box.Center()}
	a := &Arrangement{
		Box:     box,
		useTree: useTree,
		rng:     rng,
	}
	a.regions = []*Region{whole}
	a.root = &treeNode{region: whole}
	return a
}

// Reconstruct rebuilds an arrangement from persisted state: the box, the
// hyperplane list, and the regions with their sides and witnesses. The result
// is query-only — Locate tests region sides directly (no tree) and Insert
// must not be called on it, which is all the loaded read path of an MDIndex
// needs.
func Reconstruct(box geom.Box, hps []geom.Hyperplane, regions []*Region) *Arrangement {
	a := &Arrangement{
		Box:         box,
		Hyperplanes: hps,
		regions:     regions,
		neg:         make([][]float64, len(hps)),
	}
	var total int
	for _, h := range hps {
		total += len(h.Coef)
	}
	flat := make([]float64, total)
	for i, h := range hps {
		n := len(h.Coef)
		a.neg[i] = negate(flat[:n:n], h.Coef)
		flat = flat[n:]
	}
	return a
}

func negate(dst, coef []float64) []float64 {
	for k, c := range coef {
		dst[k] = -c
	}
	return dst
}

// constraint converts a signed hyperplane reference to an lp constraint.
// Side Below means h·θ ≤ 1; side Above means h·θ ≥ 1, i.e. −h·θ ≤ −1.
func (a *Arrangement) constraint(h int, s geom.Side) lp.Constraint {
	if s == geom.Below {
		return lp.Constraint{A: a.Hyperplanes[h].Coef, B: 1}
	}
	return lp.Constraint{A: a.neg[h], B: -1}
}

// Regions returns the current regions (shared slice; treat as read-only).
func (a *Arrangement) Regions() []*Region { return a.regions }

// NumRegions returns |R|, the arrangement complexity plotted in Figure 19.
func (a *Arrangement) NumRegions() int { return len(a.regions) }

// ConstraintsInto appends region r's half-space constraints to dst and
// returns the extended slice. The coefficient vectors are the arrangement's
// own (shared, read-only), so a caller reusing dst across regions allocates
// nothing once dst has grown.
func (a *Arrangement) ConstraintsInto(dst []lp.Constraint, r *Region) []lp.Constraint {
	for _, sh := range r.Sides {
		dst = append(dst, a.constraint(sh.H, sh.S))
	}
	return dst
}

// Insert adds a hyperplane to the arrangement, splitting every region whose
// interior it crosses (the loop of lines 9-19 of Algorithm 4, or AT+ when
// the arrangement tree is enabled).
func (a *Arrangement) Insert(h geom.Hyperplane) {
	hi := len(a.Hyperplanes)
	a.Hyperplanes = append(a.Hyperplanes, h)
	a.neg = append(a.neg, negate(make([]float64, len(h.Coef)), h.Coef))
	if a.useTree {
		a.insertTree(a.root, h, hi, 0)
		return
	}
	// Baseline: scan every region (SATREGIONS without the tree). The range
	// expression is evaluated once, so regions split off during the scan
	// are not revisited.
	for _, r := range a.regions {
		a.cons = a.ConstraintsInto(a.cons[:0], r)
		a.trySplit(r, h, hi, a.cons)
	}
}

// trySplit checks whether h crosses region r (given r's constraints) and, if
// it does, splits r in place: r keeps side Below and a new region takes side
// Above. It returns the new region, or nil when there is no crossing. cons
// may be a.cons, which trySplit reuses once the crossing test is done.
func (a *Arrangement) trySplit(r *Region, h geom.Hyperplane, hi int, cons []lp.Constraint) *Region {
	a.Stats.IntersectionChecks++
	a.Stats.LPCalls++
	if _, ok := a.ws.FeasibleOnHyperplane(h.Coef, 1, cons, a.Box.Lo, a.Box.Hi, MinMargin, a.rng); !ok {
		return nil
	}
	a.Stats.Splits++
	other := &Region{Sides: append(append([]SignedHP(nil), r.Sides...), SignedHP{H: hi, S: geom.Above})}
	r.Sides = append(r.Sides, SignedHP{H: hi, S: geom.Below})
	// Refresh witnesses on both sides, copied out of the LP workspace.
	a.Stats.LPCalls += 2
	a.cons = a.ConstraintsInto(a.cons[:0], r)
	if w, _, err := a.ws.InteriorPoint(a.cons, a.Box.Lo, a.Box.Hi, a.rng); err == nil {
		r.Witness = append(geom.Vector(nil), w...)
		r.Version++
	}
	a.cons = a.ConstraintsInto(a.cons[:0], other)
	if w, _, err := a.ws.InteriorPoint(a.cons, a.Box.Lo, a.Box.Hi, a.rng); err == nil {
		other.Witness = append(geom.Vector(nil), w...)
		other.Version++
	}
	a.regions = append(a.regions, other)
	return other
}

// treeNode is a vertex of the arrangement tree (Algorithm 5): internal nodes
// carry the hyperplane that split them, with the left subtree on side Below
// and the right subtree on side Above; leaves carry regions.
type treeNode struct {
	h           int // hyperplane index; meaningful for internal nodes
	left, right *treeNode
	region      *Region // non-nil for leaves
}

func (n *treeNode) isLeaf() bool { return n.region != nil }

// insertTree is AT+: descend the tree, pruning subtrees whose accumulated
// half-space constraints the new hyperplane cannot cross. a.path[:depth]
// holds the half-spaces from the root down to n.
func (a *Arrangement) insertTree(n *treeNode, h geom.Hyperplane, hi, depth int) {
	if n.isLeaf() {
		r := n.region
		if other := a.trySplit(r, h, hi, a.path[:depth]); other != nil {
			// The leaf becomes an internal node for hyperplane hi.
			n.h = hi
			n.region = nil
			n.left = &treeNode{region: r}
			n.right = &treeNode{region: other}
		}
		return
	}
	a.path = append(a.path[:depth], a.constraint(n.h, geom.Below))
	a.Stats.LPCalls++
	if _, ok := a.ws.FeasibleOnHyperplane(h.Coef, 1, a.path, a.Box.Lo, a.Box.Hi, MinMargin, a.rng); ok {
		a.insertTree(n.left, h, hi, depth+1)
	}
	a.path = append(a.path[:depth], a.constraint(n.h, geom.Above))
	a.Stats.LPCalls++
	if _, ok := a.ws.FeasibleOnHyperplane(h.Coef, 1, a.path, a.Box.Lo, a.Box.Hi, MinMargin, a.rng); ok {
		a.insertTree(n.right, h, hi, depth+1)
	}
}

// Locate returns the region containing the angle point theta by descending
// the tree (tree mode) or testing sides directly (baseline mode). Points on
// a boundary resolve to the Below side.
func (a *Arrangement) Locate(theta geom.Vector) *Region {
	if a.useTree {
		n := a.root
		for !n.isLeaf() {
			if a.Hyperplanes[n.h].SideOf(theta) == geom.Above {
				n = n.right
			} else {
				n = n.left
			}
		}
		return n.region
	}
	for _, r := range a.regions {
		ok := true
		for _, sh := range r.Sides {
			side := a.Hyperplanes[sh.H].SideOf(theta)
			if side != sh.S && side != geom.On {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	return nil
}
