package fairrank

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"testing"

	"fairrank/internal/datagen"
)

// Golden digests of the geometry kernels' observable output. The LP and
// Frank–Wolfe kernels behind ModeExact and the approx cell arrangements may
// be rewritten for speed only if every answer and every index byte stays
// the same; these constants were recorded before such a rewrite and must
// keep passing after it. A deliberate change of answers updates them in the
// same change and says why.
const (
	goldenExactD2Suggest = "1fdafe22b2cc1d0fce91f3d027e7394c2a10db56836b964104afb077a66612bb"
	goldenExactD2Index   = "22c44cd3bc0d96d7ac179fe236631ab58e17de12abe5568608af453bd4bc9021"
	goldenExactD3Suggest = "5cc9b3f476e7fce9c27a053be5aad84a8c1685ef58edcb96c1584030f24de1a8"
	goldenExactD3Index   = "4833f7ab2c4cd1989663ecfcc57c4c42819ad75bff970dda703fe7eeb0e7c735"
	goldenExactD4Suggest = "9f077cc4a955b853cb6d2db233b3e56a1d9b47fe2793355222bf86a08480fa3a"
	goldenExactD4Index   = "f7337063a8bfd413587bd98a08fee6cb4a3aa4c27921d3d0330c91485af8f9fa"
	goldenApproxD3Index  = "f3e6c6a3e70c44a8a71814ba7655bdda501d165ab3258be30d619f6918ace691"
	goldenPatchD3Index   = "586b9601c78b4069e62217d96548b18ef46ee697a8044c3c4edf4ffe9ca06686"
	goldenPatchD3Suggest = "46467eb936db150890d167848e4be52fdbde5febb7565c1d4e459104880a4eb0"
)

// goldenUnfairQueries is the number of unfair queries each exact designer
// answers into its digest.
const goldenUnfairQueries = 50

func goldenDesigner(t *testing.T, n, d int, cfg Config) (*Dataset, *Designer) {
	t.Helper()
	ds, err := datagen.Biased(n, d, 0.5, 0.3, 1, 29)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := MinShare(ds, "group", "protected", 0.2, 0.35)
	if err != nil {
		t.Fatal(err)
	}
	des, err := NewDesigner(ds, oracle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !des.Satisfiable() {
		t.Fatalf("golden instance n=%d d=%d is unsatisfiable", n, d)
	}
	return ds, des
}

// goldenQueries draws directions until want of them are unfair for des.
func goldenQueries(t *testing.T, des *Designer, d, want int) [][]float64 {
	t.Helper()
	r := rand.New(rand.NewSource(int64(31 + d)))
	var out [][]float64
	for tries := 0; len(out) < want; tries++ {
		if tries > 100*want {
			t.Fatalf("found %d unfair queries in %d draws, want %d", len(out), tries, want)
		}
		w := make([]float64, d)
		for k := range w {
			w[k] = r.Float64() + 1e-3
		}
		fair, err := des.IsFair(w)
		if err != nil {
			t.Fatal(err)
		}
		if !fair {
			out = append(out, w)
		}
	}
	return out
}

// digestSuggest hashes the bits of every answer: weights and distance, or
// the error text.
func digestSuggest(t *testing.T, des *Designer, queries [][]float64) string {
	t.Helper()
	h := sha256.New()
	for _, q := range queries {
		s, err := des.Suggest(q)
		if err != nil {
			h.Write([]byte(err.Error()))
			continue
		}
		for _, v := range s.Weights {
			writeBits(h, v)
		}
		writeBits(h, s.Distance)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeBits(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

func digestIndex(t *testing.T, des *Designer) string {
	t.Helper()
	var buf bytes.Buffer
	if err := des.SaveIndex(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest %s, want %s", name, got, want)
	}
}

func TestGoldenKernelDigests(t *testing.T) {
	t.Run("exact-d2", func(t *testing.T) {
		// Uncapped: every exchange is in the arrangement, so each region
		// holds one ordering and any labeling that agrees with the oracle
		// there saves these bytes.
		_, des := goldenDesigner(t, 60, 2, Config{Mode: ModeExact, Seed: 7})
		queries := goldenQueries(t, des, 2, goldenUnfairQueries)
		checkGolden(t, "exact d=2 suggest", digestSuggest(t, des, queries), goldenExactD2Suggest)
		checkGolden(t, "exact d=2 index", digestIndex(t, des), goldenExactD2Index)
	})
	t.Run("exact-d3", func(t *testing.T) {
		ds, des := goldenDesigner(t, 40, 3, Config{Mode: ModeExact, MaxHyperplanes: 16, Seed: 7})
		queries := goldenQueries(t, des, 3, goldenUnfairQueries)
		checkGolden(t, "exact d=3 suggest", digestSuggest(t, des, queries), goldenExactD3Suggest)
		checkGolden(t, "exact d=3 index", digestIndex(t, des), goldenExactD3Index)

		// One exact patch: only the 2D engine repairs, so Patch rebuilds
		// over the patched dataset, and the result must match these
		// digests byte for byte.
		delta := DatasetDelta{
			Removed: []int{3, 17},
			Added:   []PatchItem{{Row: []float64{0.61, 0.42, 0.77}, Types: map[string]string{"group": "protected"}}},
		}
		next, err := ApplyDelta(ds, delta)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := MinShare(next, "group", "protected", 0.2, 0.35)
		if err != nil {
			t.Fatal(err)
		}
		patched, repaired, err := des.Patch(next, oracle, delta)
		if err != nil {
			t.Fatal(err)
		}
		if repaired {
			t.Fatal("patch repaired an exact index; want a rebuild")
		}
		checkGolden(t, "patched d=3 index", digestIndex(t, patched), goldenPatchD3Index)
		checkGolden(t, "patched d=3 suggest", digestSuggest(t, patched, queries), goldenPatchD3Suggest)
	})
	t.Run("exact-d4", func(t *testing.T) {
		_, des := goldenDesigner(t, 30, 4, Config{Mode: ModeExact, MaxHyperplanes: 8, Seed: 7})
		queries := goldenQueries(t, des, 4, goldenUnfairQueries)
		checkGolden(t, "exact d=4 suggest", digestSuggest(t, des, queries), goldenExactD4Suggest)
		checkGolden(t, "exact d=4 index", digestIndex(t, des), goldenExactD4Index)
	})
	t.Run("approx-d3", func(t *testing.T) {
		_, des := goldenDesigner(t, 100, 3, Config{Mode: ModeApprox, Cells: 500, MaxHyperplanes: 200, Seed: 7})
		checkGolden(t, "approx d=3 index", digestIndex(t, des), goldenApproxD3Index)
	})
}

// The approx index is a function of the dataset, the oracle and the Config
// minus Workers: parallel MARKCELL deals strips of cells to goroutines in a
// scheduling-dependent order, and every build at every worker count must
// still save the golden bytes.
func TestApproxIndexSameOnAnyWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for build := 0; build < 2; build++ {
			_, des := goldenDesigner(t, 100, 3, Config{Mode: ModeApprox, Cells: 500, MaxHyperplanes: 200, Seed: 7, Workers: workers})
			checkGolden(t, fmt.Sprintf("approx d=3 index (workers %d, build %d)", workers, build), digestIndex(t, des), goldenApproxD3Index)
		}
	}
}

// An unfair exact query solves one Frank–Wolfe program per satisfactory
// region; with one solver workspace and one constraint buffer per query,
// its allocations no longer grow with the regions or the iterations.
func TestExactSuggestAllocs(t *testing.T) {
	_, des := goldenDesigner(t, 40, 3, Config{Mode: ModeExact, MaxHyperplanes: 16, Seed: 7})
	for i, q := range goldenQueries(t, des, 3, 5) {
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := des.Suggest(q); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 256 {
			t.Errorf("unfair query %d: Suggest allocates %v times, want ≤ 256", i, allocs)
		}
	}
}
