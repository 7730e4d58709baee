package fairness

import (
	"math/rand"
	"slices"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// readsDataset draws a datagen.Biased dataset and, when dups is set,
// overwrites about a fifth of its rows with copies of other rows while
// keeping every item's own group label. Copied rows score equally under
// every direction, so which of them lands in a top-k set is decided by the
// index tie-break alone — often between a protected and a majority item.
func readsDataset(t *testing.T, r *rand.Rand, n, d int, dups bool) *dataset.Dataset {
	t.Helper()
	base, err := datagen.Biased(n, d, 0.5, 0.3, 1, r.Int63())
	if err != nil {
		t.Fatal(err)
	}
	if !dups {
		return base
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = base.Item(i).Clone()
	}
	for c := 0; c < n/5; c++ {
		copy(rows[r.Intn(n)], rows[r.Intn(n)])
	}
	ds, err := dataset.New(base.ScoringNames(), rows)
	if err != nil {
		t.Fatal(err)
	}
	ta, err := base.TypeAttr("group")
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AddTypeAttr("group", ta.Labels, ta.Values); err != nil {
		t.Fatal(err)
	}
	return ds
}

// readsOracles builds the oracle families of the need rule over ds, named
// for failure messages.
func readsOracles(t *testing.T, ds *dataset.Dataset) map[string]Oracle {
	t.Helper()
	must := func(o *TopK, err error) *TopK {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	topk := func(k, lo, hi int) *TopK {
		return must(NewTopK(ds, "group", k, []GroupBound{{Group: "protected", Min: lo, Max: hi}}))
	}
	prefix, err := NewPrefix(ds, "group", "protected", 20, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	minShare := must(MinShare(ds, "group", "protected", 0.2, 0.35))
	os := map[string]Oracle{
		"MinShare":     minShare,
		"MaxShare":     must(MaxShare(ds, "group", "protected", 0.3, 0.05)),
		"Proportional": must(Proportional(ds, "group", 0.3, 0.1)),
		"Prefix":       prefix,
		"All{k10,k40}": All{topk(10, 4, -1), topk(40, 12, 28)},
		"All{=k}":      All{topk(25, 8, -1), topk(25, -1, 15)},
		"Any{=k}":      Any{topk(25, 14, -1), topk(25, -1, 9)},
		"Not":          Not{minShare},
		"Counter":      &Counter{O: prefix},
		"Func":         Func(minShare.Check),
	}
	// The k=40 member always accepts, so each verdict is the k=10
	// member's count of protected items in the true top ten: ranking only
	// the top-40 set would hand it ten arbitrary members of that set.
	for lo := 1; lo <= 6; lo++ {
		os["All{k10>="+string(rune('0'+lo))+",k40}"] = All{topk(10, lo, -1), topk(40, 0, -1)}
	}
	return os
}

// TestReadsProbeMatchesFullOrder is the oracle-need rule as a property:
// ranking only what fairness.Reads reports gives every oracle the verdict
// it gives on ranking.Order, on random biased datasets with and without
// duplicated rows, at random and axis-aligned directions. It also checks
// the shape the primitive promises: the exact top-K set, the exact sorted
// prefix, or the exact full order.
func TestReadsProbeMatchesFullOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1801))
	var bufs ranking.Buffers
	for iter := 0; iter < 40; iter++ {
		n, d := 50+r.Intn(351), 2+r.Intn(3)
		ds := readsDataset(t, r, n, d, iter%2 == 1)
		oracles := readsOracles(t, ds)
		for probe := 0; probe < 24; probe++ {
			w := make(geom.Vector, d)
			if probe < d {
				w[probe] = 1 // axis: scores tie wherever one attribute does
			} else {
				for j := range w {
					w[j] = r.Float64()
				}
			}
			full, err := ranking.Order(ds, w)
			if err != nil {
				t.Fatal(err)
			}
			for name, o := range oracles {
				need := Reads(o)
				order, err := bufs.Rank(ds, w, need)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := o.Check(order), o.Check(full); got != want {
					t.Fatalf("iter %d (n=%d d=%d) w=%v %s need %+v: verdict %v, full order says %v",
						iter, n, d, w, name, need, got, want)
				}
				k := need.K
				switch {
				case k <= 0 || (k >= n && !need.SetOnly):
					if !slices.Equal(order, full) {
						t.Fatalf("%s need %+v: full order differs", name, need)
					}
				case need.SetOnly:
					got := slices.Sorted(slices.Values(order[:min(k, n)]))
					want := slices.Sorted(slices.Values(full[:min(k, n)]))
					if !slices.Equal(got, want) {
						t.Fatalf("%s need %+v: top-%d set differs", name, need, k)
					}
				default:
					if !slices.Equal(order[:k], full[:k]) {
						t.Fatalf("%s need %+v: sorted prefix differs", name, need)
					}
				}
			}
		}
	}
}

// TestProbeAllocatesNothingWhenWarm pins the probe's zero-allocation
// contract: once the buffers have grown to the dataset, ranking for an
// oracle and checking it allocate nothing — in particular TopK.Check counts
// groups on the stack.
func TestProbeAllocatesNothingWhenWarm(t *testing.T) {
	r := rand.New(rand.NewSource(1802))
	ds := readsDataset(t, r, 400, 3, true)
	w := geom.Vector{0.3, 0.5, 0.2}
	oracles := readsOracles(t, ds)
	for _, name := range []string{"MinShare", "Proportional", "Prefix", "All{k10,k40}", "Any{=k}", "Not", "Counter"} {
		o := oracles[name]
		need := Reads(o)
		var bufs ranking.Buffers
		probe := func() {
			order, err := bufs.Rank(ds, w, need)
			if err != nil {
				t.Fatal(err)
			}
			o.Check(order)
		}
		probe() // grow the buffers
		if allocs := testing.AllocsPerRun(50, probe); allocs != 0 {
			t.Errorf("%s: warm probe allocates %.1f times, want 0", name, allocs)
		}
	}
}
