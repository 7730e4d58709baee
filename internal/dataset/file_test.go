package dataset

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"fairrank/internal/flatidx"
)

// fileFixtures are datasets of several shapes, each with the revision it is
// saved at: no items, an unnamed label and a non-ASCII name, several type
// attributes, and values a text format could round badly.
func fileFixtures(t testing.TB) []*Dataset {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	empty, err := New([]string{"x"}, nil)
	must(err)
	must(empty.AddTypeAttr("none", nil, nil))

	small, err := New([]string{"gpa", "sat"}, [][]float64{{3.5, 1400}, {2.9, 1210}, {4, 1600}})
	must(err)
	must(small.AddTypeAttr("gender", []string{"", "female", "male"}, []int{1, 2, 0}))

	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{float64(i) / 3, math.Copysign(0, -1), 5e-324, 1e300, math.Nextafter(1, 2)}
	}
	wide, err := New([]string{"a", "b", "c", "d", "é"}, rows)
	must(err)
	g, band := make([]int, len(rows)), make([]int, len(rows))
	for i := range rows {
		g[i], band[i] = i%2, i%5
	}
	must(wide.AddTypeAttr("group", []string{"majority", "protected"}, g))
	must(wide.AddTypeAttr("band", []string{"n", "e", "s", "w", "c"}, band))
	return []*Dataset{empty, small, wide}
}

func encode(t testing.TB, ds *Dataset, rev uint64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, ds, rev); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameDataset reports whether two datasets hold the same names, the same
// item bits and the same type attributes.
func sameDataset(a, b *Dataset) bool {
	if a.Fingerprint() != b.Fingerprint() || !slices.Equal(a.ScoringNames(), b.ScoringNames()) ||
		a.N() != b.N() || len(a.TypeAttrs()) != len(b.TypeAttrs()) {
		return false
	}
	for i := 0; i < a.N(); i++ {
		for j, v := range a.Item(i) {
			if math.Float64bits(v) != math.Float64bits(b.Item(i)[j]) {
				return false
			}
		}
	}
	for k, ta := range a.TypeAttrs() {
		tb := b.TypeAttrs()[k]
		if ta.Name != tb.Name || !slices.Equal(ta.Labels, tb.Labels) || !slices.Equal(ta.Values, tb.Values) {
			return false
		}
		if _, err := b.TypeAttr(ta.Name); err != nil {
			return false
		}
	}
	return true
}

func TestFileRoundTrip(t *testing.T) {
	for i, ds := range fileFixtures(t) {
		rev := uint64(0xfedcba9876543210) + uint64(i)
		got, gotRev, err := Decode(encode(t, ds, rev))
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if gotRev != rev || !sameDataset(ds, got) {
			t.Fatalf("fixture %d: decoded revision %#x (want %#x) or content differs", i, gotRev, rev)
		}
	}
}

// rawFile builds a dataset file section by section, bypassing Encode, so a
// test can write what Encode never would. A nil values slab is left out.
func rawFile(t *testing.T, kind uint32, shape []int64, names []byte, rows []float64, values []int64) []byte {
	t.Helper()
	fw := flatidx.NewWriter(kind)
	fw.Int64s(secShape, shape)
	fw.Uint8s(secNames, names)
	fw.Float64s(secRows, rows)
	if values != nil {
		fw.Int64s(secValues, values)
	}
	var buf bytes.Buffer
	if err := fw.Flush(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func strs(ss ...string) []byte {
	var b []byte
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

// A file is held to the checks a dataset built from JSON passes, and its
// shape must agree with its slabs.
func TestDecodeAppliesDatasetChecks(t *testing.T) {
	xy := strs("x", "y")
	gAB := append(append(strs("g"), 2), strs("a", "b")...)
	for _, tc := range []struct {
		name string
		file []byte
		want string
	}{
		{"ok", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 1}, append(xy, gAB...), []float64{1, 2, 3, 4}, []int64{0, 1}), ""},
		{"non-finite value", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 0}, xy, []float64{1, 2, math.NaN(), 4}, []int64{}), "dataset: row 1 has non-finite value"},
		{"infinite value", rawFile(t, flatidx.KindDataset, []int64{1, 2, 9, 0}, xy, []float64{math.Inf(-1), 2}, []int64{}), "dataset: row 0 has non-finite value"},
		{"label index past the labels", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 1}, append(xy, gAB...), []float64{1, 2, 3, 4}, []int64{0, 2}), `type "g" value 2 out of range at item 1`},
		{"negative label index", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 1}, append(xy, gAB...), []float64{1, 2, 3, 4}, []int64{-1, 0}), `type "g" value -1 out of range at item 0`},
		{"duplicate type attribute", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 2}, append(append(xy, gAB...), gAB...), []float64{1, 2, 3, 4}, []int64{0, 1, 1, 0}), `duplicate type attribute "g"`},
		{"n×d against the rows", rawFile(t, flatidx.KindDataset, []int64{3, 2, 9, 0}, xy, []float64{1, 2, 3, 4}, []int64{}), "n=3, d=2 against 4 item values"},
		{"T×n against the label indexes", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 1}, append(xy, gAB...), []float64{1, 2, 3, 4}, []int64{0}), "1 type attributes of 2 items against 1 label indexes"},
		{"more type attributes than bytes", rawFile(t, flatidx.KindDataset, []int64{0, 2, 9, 5}, xy, nil, []int64{}), "5 type attributes of 0 items"},
		{"no scoring attribute", rawFile(t, flatidx.KindDataset, []int64{0, 0, 9, 0}, nil, nil, []int64{}), "n=0, d=0"},
		{"more names than bytes", rawFile(t, flatidx.KindDataset, []int64{0, 5, 9, 0}, xy, nil, []int64{}), "n=0, d=5"},
		{"name past the section", rawFile(t, flatidx.KindDataset, []int64{0, 2, 9, 0}, strs("x", "yyyy")[:4], nil, []int64{}), "exceeds the"},
		{"bytes after the names", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 0}, append(xy, 0), []float64{1, 2, 3, 4}, []int64{}), "1 bytes after the last name"},
		{"label count past the section", rawFile(t, flatidx.KindDataset, []int64{1, 2, 9, 1}, append(append(xy, strs("g")...), 100), []float64{1, 2}, []int64{0}), "count 100 exceeds"},
		{"no values section", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9, 0}, xy, []float64{1, 2, 3, 4}, nil), "3 sections, want 4"},
		{"short shape", rawFile(t, flatidx.KindDataset, []int64{2, 2, 9}, xy, []float64{1, 2, 3, 4}, []int64{}), "shape section holds 3 values"},
		{"index payload", rawFile(t, flatidx.KindTwoD, []int64{2, 2, 9, 0}, xy, []float64{1, 2, 3, 4}, []int64{}), "payload kind 1 is not a dataset"},
	} {
		ds, rev, err := Decode(tc.file)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want == "" && (rev != 9 || ds.N() != 2 || ds.D() != 2):
			t.Errorf("%s: revision %d, n=%d, d=%d", tc.name, rev, ds.N(), ds.D())
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzLoadDatasetFile drives arbitrary bytes through the dataset file
// decoder. Hostile bytes must return an error, never panic, and never make
// Decode allocate more than a small multiple of their length, whatever the
// header claims. A file that decodes re-encodes to one that decodes to the
// same dataset at the same revision.
func FuzzLoadDatasetFile(f *testing.F) {
	for i, ds := range fileFixtures(f) {
		file := encode(f, ds, uint64(i+1)*0x9e3779b97f4a7c15)
		f.Add(file)
		f.Add(file[:len(file)/2])
	}
	huge := encode(f, fileFixtures(f)[1], 1)
	binary.LittleEndian.PutUint64(huge[24+1*24+8:], 1<<40) // the names section claims a terabyte
	f.Add(huge)
	f.Add([]byte("FRNKFLT1 not really a header"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ds, rev, err := Decode(data)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 32*uint64(len(data))+1<<16 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, ds, rev); err != nil {
			t.Fatal(err)
		}
		again, againRev, err := Decode(buf.Bytes())
		if err != nil {
			t.Fatalf("re-encoded file: %v", err)
		}
		if againRev != rev || !sameDataset(ds, again) {
			t.Fatal("re-encoded file decodes to a different dataset")
		}
	})
}
