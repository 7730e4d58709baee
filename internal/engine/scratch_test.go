package engine_test

import (
	"math"
	"testing"

	"fairrank/internal/datagen"
	"fairrank/internal/dataset"
	"fairrank/internal/engine"
	"fairrank/internal/fairness"
	"fairrank/internal/geom"
	"fairrank/internal/ranking"
)

// scratchFixture is a d=3 dataset with a top-20% oracle and two close
// queries whose box keeps only part of the items.
func scratchFixture(t *testing.T) (*dataset.Dataset, fairness.Oracle, ranking.Need, []geom.Vector) {
	t.Helper()
	ds, err := datagen.Biased(300, 3, 0.5, 0.3, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := fairness.MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	return ds, oracle, fairness.Reads(oracle), []geom.Vector{{0.5, 0.6, 0.7}, {0.52, 0.61, 0.69}}
}

// rankedBy returns how many items one CheckFair of w ranks on s.
func rankedBy(t *testing.T, s *engine.Scratch, ds *dataset.Dataset, oracle fairness.Oracle, w geom.Vector, need ranking.Need) int64 {
	t.Helper()
	checks, items := s.Ranked()
	if _, err := s.CheckFair(ds, oracle, w, need); err != nil {
		t.Fatal(err)
	}
	c, i := s.Ranked()
	if c != checks+1 {
		t.Fatalf("one CheckFair counted %d checks", c-checks)
	}
	return i - items
}

// Reset drops the chunk's restriction, so a pooled scratch never carries a
// list (or the dataset it pins) into its next batch.
func TestScratchResetDropsRestriction(t *testing.T) {
	ds, oracle, need, qs := scratchFixture(t)
	n := int64(ds.N())
	s := new(engine.Scratch)
	s.RestrictChunk(ds, qs, need)
	if got := rankedBy(t, s, ds, oracle, qs[0], need); got >= n {
		t.Fatalf("a restricted check ranked %d of %d items", got, n)
	}
	s.Reset()
	if c, i := s.Ranked(); c != 0 || i != 0 {
		t.Fatalf("Reset left counts %d checks, %d items", c, i)
	}
	if got := rankedBy(t, s, ds, oracle, qs[0], need); got != n {
		t.Fatalf("after Reset a check ranked %d items, want all %d", got, n)
	}
}

// RestrictChunk boxes only the queries of ds's dimension with finite
// values, needs two of them and an oracle reading a top K < n, and drops
// the previous chunk's list whenever it builds none.
func TestRestrictChunkBox(t *testing.T) {
	ds, oracle, need, qs := scratchFixture(t)
	n := int64(ds.N())
	nan, inf := math.NaN(), math.Inf(1)
	malformed := []geom.Vector{{nan, 0.6, 0.7}, {0.5, inf, 0.7}, {0.5, 0.6}, {-inf, 0.6, 0.7}}
	outside := geom.Vector{0.9, 0.1, 0.2}
	for _, tc := range []struct {
		name       string
		queries    []geom.Vector
		need       ranking.Need
		restricted bool
	}{
		{"two queries", qs, need, true},
		{"two among malformed", append(append([]geom.Vector(nil), malformed...), qs...), need, true},
		{"one finite query", append([]geom.Vector{qs[0]}, malformed...), need, false},
		{"K = n", qs, ranking.Need{K: ds.N(), SetOnly: true}, false},
		{"K = 0", qs, ranking.Need{}, false},
	} {
		s := new(engine.Scratch)
		// A previous chunk's list, which a chunk without a box must drop.
		s.RestrictChunk(ds, []geom.Vector{{0.3, 0.3, 0.3}, {0.9, 0.9, 0.9}}, need)
		s.RestrictChunk(ds, tc.queries, tc.need)
		got := rankedBy(t, s, ds, oracle, qs[1], tc.need)
		if tc.restricted != (got < n) {
			t.Errorf("%s: a check inside the box ranked %d of %d items, restricted=%v wanted", tc.name, got, n, tc.restricted)
		}
		if got := rankedBy(t, s, ds, oracle, outside, tc.need); got != n {
			t.Errorf("%s: a check outside the box ranked %d items, want all %d", tc.name, got, n)
		}
	}
}

// The exact and approx batch kernels restrict their chunk: over a chunk of
// close queries, each fairness check ranks fewer than n items.
func TestBatchKernelsRestrictChunks(t *testing.T) {
	fx := buildFixture(t, 17)
	n := int64(fx.ds.N())
	chunk := make([]geom.Vector, 8)
	for i := range chunk {
		theta := 0.6 + 0.002*float64(i)
		chunk[i] = geom.Vector{math.Cos(theta), math.Sin(theta)}
	}
	for _, name := range []string{"exact", "approx"} {
		s := new(engine.Scratch)
		fx.engines[name].SuggestBatch(make([]engine.Result, len(chunk)), chunk, s)
		checks, items := s.Ranked()
		if checks != int64(len(chunk)) || items >= checks*n {
			t.Errorf("%s: %d checks ranked %d items; want %d checks of fewer than %d items each",
				name, checks, items, len(chunk), n)
		}
	}
}
