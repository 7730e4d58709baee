// Package dataset implements the data model of the paper (§2): a collection
// of n items with d non-negative scalar scoring attributes (higher is
// better) plus any number of categorical type attributes (gender, race, age
// group, carrier, ...) consumed by fairness oracles. It also provides the
// data-reduction substrates the paper relies on or proposes as
// optimizations: min-max normalization, uniform sampling (§5.4), dominance
// tests, skyline and dominance-layer computation, and 2D convex layers (the
// onion technique referenced in §8).
package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"

	"fairrank/internal/geom"
)

// TypeAttr is a categorical attribute: a name, category labels, and a
// per-item category index into Labels.
type TypeAttr struct {
	Name   string
	Labels []string
	Values []int
}

// Dataset is an immutable-after-construction collection of scored items.
type Dataset struct {
	scoringNames []string
	items        []geom.Vector
	types        []TypeAttr
	byName       map[string]int // type attribute name → index in types
	// fp caches Fingerprint; nil until first asked for and after AddTypeAttr.
	fp atomic.Pointer[uint64]
}

// New creates a dataset with the given scoring attribute names and item
// rows. Every row must have len(scoringNames) non-negative finite values.
func New(scoringNames []string, rows [][]float64) (*Dataset, error) {
	if len(scoringNames) < 1 {
		return nil, errors.New("dataset: need at least one scoring attribute")
	}
	d := len(scoringNames)
	ds := &Dataset{
		scoringNames: append([]string(nil), scoringNames...),
		items:        make([]geom.Vector, len(rows)),
		byName:       map[string]int{},
	}
	for i, row := range rows {
		if len(row) != d {
			return nil, fmt.Errorf("dataset: row %d has %d values, want %d", i, len(row), d)
		}
		v := geom.Vector(row).Clone()
		if !v.IsFinite() {
			return nil, fmt.Errorf("dataset: row %d has non-finite value", i)
		}
		ds.items[i] = v
	}
	return ds, nil
}

// N returns the number of items.
func (ds *Dataset) N() int { return len(ds.items) }

// D returns the number of scoring attributes.
func (ds *Dataset) D() int { return len(ds.scoringNames) }

// ScoringNames returns the scoring attribute names (shared slice; do not
// mutate).
func (ds *Dataset) ScoringNames() []string { return ds.scoringNames }

// Item returns item i's scoring vector (shared slice; do not mutate).
func (ds *Dataset) Item(i int) geom.Vector { return ds.items[i] }

// AddTypeAttr attaches a categorical attribute. Values must index Labels and
// have length N.
func (ds *Dataset) AddTypeAttr(name string, labels []string, values []int) error {
	if _, dup := ds.byName[name]; dup {
		return fmt.Errorf("dataset: duplicate type attribute %q", name)
	}
	if len(values) != ds.N() {
		return fmt.Errorf("dataset: type %q has %d values, want %d", name, len(values), ds.N())
	}
	for i, v := range values {
		if v < 0 || v >= len(labels) {
			return fmt.Errorf("dataset: type %q value %d out of range at item %d", name, v, i)
		}
	}
	ds.byName[name] = len(ds.types)
	ds.types = append(ds.types, TypeAttr{
		Name:   name,
		Labels: append([]string(nil), labels...),
		Values: append([]int(nil), values...),
	})
	ds.fp.Store(nil)
	return nil
}

// TypeAttr returns the named categorical attribute.
func (ds *Dataset) TypeAttr(name string) (TypeAttr, error) {
	i, ok := ds.byName[name]
	if !ok {
		return TypeAttr{}, fmt.Errorf("dataset: unknown type attribute %q", name)
	}
	return ds.types[i], nil
}

// TypeAttrs returns all categorical attributes (shared; do not mutate).
func (ds *Dataset) TypeAttrs() []TypeAttr { return ds.types }

// GroupCounts returns, for the named type attribute, how many items fall in
// each category.
func (ds *Dataset) GroupCounts(name string) ([]int, error) {
	ta, err := ds.TypeAttr(name)
	if err != nil {
		return nil, err
	}
	counts := make([]int, len(ta.Labels))
	for _, v := range ta.Values {
		counts[v]++
	}
	return counts, nil
}

// GroupProportions returns GroupCounts divided by N.
func (ds *Dataset) GroupProportions(name string) ([]float64, error) {
	counts, err := ds.GroupCounts(name)
	if err != nil {
		return nil, err
	}
	props := make([]float64, len(counts))
	for i, c := range counts {
		props[i] = float64(c) / float64(ds.N())
	}
	return props, nil
}

// Project returns a new dataset containing only the named scoring attributes
// (in the given order) with all type attributes carried over. This is how
// the paper's experiments select 2, 3, ..., 7 of COMPAS's scoring columns.
func (ds *Dataset) Project(names ...string) (*Dataset, error) {
	if len(names) == 0 {
		return nil, errors.New("dataset: Project with no attributes")
	}
	cols := make([]int, len(names))
	for k, name := range names {
		cols[k] = -1
		for j, existing := range ds.scoringNames {
			if existing == name {
				cols[k] = j
				break
			}
		}
		if cols[k] < 0 {
			return nil, fmt.Errorf("dataset: unknown scoring attribute %q", name)
		}
	}
	rows := make([][]float64, ds.N())
	for i, it := range ds.items {
		row := make([]float64, len(cols))
		for k, c := range cols {
			row[k] = it[c]
		}
		rows[i] = row
	}
	out, err := New(names, rows)
	if err != nil {
		return nil, err
	}
	for _, ta := range ds.types {
		if err := out.AddTypeAttr(ta.Name, ta.Labels, ta.Values); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Subset returns a new dataset with only the given item indices, carrying
// type attributes along.
func (ds *Dataset) Subset(indices []int) (*Dataset, error) {
	rows := make([][]float64, len(indices))
	for k, i := range indices {
		if i < 0 || i >= ds.N() {
			return nil, fmt.Errorf("dataset: subset index %d out of range", i)
		}
		rows[k] = ds.items[i]
	}
	out, err := New(ds.scoringNames, rows)
	if err != nil {
		return nil, err
	}
	for _, ta := range ds.types {
		vals := make([]int, len(indices))
		for k, i := range indices {
			vals[k] = ta.Values[i]
		}
		if err := out.AddTypeAttr(ta.Name, ta.Labels, vals); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Sample returns a uniform random sample (without replacement) of m items,
// as a new dataset plus the chosen original indices. This is the §5.4
// large-scale preprocessing primitive.
func (ds *Dataset) Sample(m int, rng *rand.Rand) (*Dataset, []int, error) {
	if m <= 0 || m > ds.N() {
		return nil, nil, fmt.Errorf("dataset: sample size %d out of range (n=%d)", m, ds.N())
	}
	perm := rng.Perm(ds.N())[:m]
	sub, err := ds.Subset(perm)
	if err != nil {
		return nil, nil, err
	}
	return sub, perm, nil
}
