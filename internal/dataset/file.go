package dataset

import (
	"encoding/binary"
	"fmt"
	"io"

	"fairrank/internal/flatidx"
	"fairrank/internal/geom"
)

// The dataset file is how a data directory stores a dataset: one
// internal/flatidx payload of kind flatidx.KindDataset, so every section
// carries a CRC32C. Its sections:
//
//	kind  slab     content
//	1     int64    n, d, the revision, the number of type attributes T
//	2     uint8    the d scoring names, then per type attribute its name,
//	               its label count and its labels (each string and count a
//	               uvarint length or value, strings followed by their bytes)
//	3     float64  the n×d item values, row-major
//	4     int64    the T×n label indexes: each type attribute's n in turn
//
// One slab holds every type attribute's values, so the section count is
// fixed and the container's section limit does not cap T. The revision is
// the caller's: the dataset's content fingerprint chained through its
// patches. Decode applies the checks New and AddTypeAttr make, so a file is
// held to the same rules as a dataset built from JSON.
const (
	secShape  uint32 = 1
	secNames  uint32 = 2
	secRows   uint32 = 3
	secValues uint32 = 4
)

// Encode writes ds and its revision as a dataset file.
func Encode(w io.Writer, ds *Dataset, revision uint64) error {
	n, d := ds.N(), ds.D()
	var names []byte
	for _, s := range ds.scoringNames {
		names = appendString(names, s)
	}
	for _, ta := range ds.types {
		names = appendString(names, ta.Name)
		names = binary.AppendUvarint(names, uint64(len(ta.Labels)))
		for _, l := range ta.Labels {
			names = appendString(names, l)
		}
	}
	rows := make([]float64, 0, n*d)
	for _, it := range ds.items {
		rows = append(rows, it...)
	}
	vals := make([]int64, 0, len(ds.types)*n)
	for _, ta := range ds.types {
		for _, v := range ta.Values {
			vals = append(vals, int64(v))
		}
	}
	fw := flatidx.NewWriter(flatidx.KindDataset)
	fw.Int64s(secShape, []int64{int64(n), int64(d), int64(revision), int64(len(ds.types))})
	fw.Uint8s(secNames, names)
	fw.Float64s(secRows, rows)
	fw.Int64s(secValues, vals)
	return fw.Flush(w)
}

// Decode reads a dataset file held whole in b, returning the dataset and
// the revision it was saved at. The items may alias b, so b must not be
// modified afterwards. Damage to any byte, a shape that disagrees with
// the slab lengths, a non-finite value or a label index out of range is an
// error; nothing is allocated beyond a small multiple of len(b).
func Decode(b []byte) (*Dataset, uint64, error) {
	fr, err := flatidx.Parse(b)
	if err != nil {
		return nil, 0, err
	}
	if k := fr.EngineKind(); k != flatidx.KindDataset {
		return nil, 0, flatidx.Corruptf("dataset: payload kind %d is not a dataset", k)
	}
	shape, err := fr.Int64s(secShape)
	if err != nil {
		return nil, 0, err
	}
	if len(shape) != 4 {
		return nil, 0, flatidx.Corruptf("dataset: shape section holds %d values, want 4", len(shape))
	}
	if fr.Sections() != 4 {
		return nil, 0, flatidx.Corruptf("dataset: %d sections, want 4", fr.Sections())
	}
	names, err := fr.Uint8s(secNames)
	if err != nil {
		return nil, 0, err
	}
	rows, err := fr.Float64s(secRows)
	if err != nil {
		return nil, 0, err
	}
	vals, err := fr.Int64s(secValues)
	if err != nil {
		return nil, 0, err
	}
	// Every scoring name and every type attribute name takes at least one
	// byte, which bounds d and T before n×d and T×n are compared with the
	// slabs.
	n64, d64, rev, nt := shape[0], shape[1], uint64(shape[2]), shape[3]
	if d64 < 1 || d64 > int64(len(names)) || n64 < 0 ||
		int64(len(rows))%d64 != 0 || int64(len(rows))/d64 != n64 {
		return nil, 0, flatidx.Corruptf("dataset: n=%d, d=%d against %d item values", n64, d64, len(rows))
	}
	if nt < 0 || nt > int64(len(names)) || int64(len(vals)) != nt*n64 {
		return nil, 0, flatidx.Corruptf("dataset: %d type attributes of %d items against %d label indexes", nt, n64, len(vals))
	}
	n, d := int(n64), int(d64)
	sr := stringReader{b: names}
	scoring := sr.strings(d)
	if sr.err != nil {
		return nil, 0, sr.err
	}
	ds := &Dataset{scoringNames: scoring, items: make([]geom.Vector, n), byName: map[string]int{}}
	for i := range ds.items {
		v := geom.Vector(rows[i*d : (i+1)*d : (i+1)*d])
		if err := checkRow(i, v); err != nil {
			return nil, 0, err
		}
		ds.items[i] = v
	}
	for t := range int(nt) {
		name := sr.string()
		labels := sr.strings(sr.count())
		if sr.err != nil {
			return nil, 0, sr.err
		}
		tv := vals[t*n : (t+1)*n]
		if err := checkTypeAttr(ds, name, labels, tv); err != nil {
			return nil, 0, err
		}
		values := make([]int, n)
		for i, v := range tv {
			values[i] = int(v)
		}
		ds.addTypeAttr(name, labels, values)
	}
	if len(sr.b) != 0 {
		return nil, 0, flatidx.Corruptf("dataset: %d bytes after the last name", len(sr.b))
	}
	return ds, rev, nil
}

// appendString appends s with its uvarint length.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// stringReader consumes the names section. The first malformed read sets
// err; later reads return zero values.
type stringReader struct {
	b   []byte
	err error
}

// count reads a uvarint that counts strings still to come, each of which
// takes at least one byte, so a count beyond the bytes left is damage.
func (r *stringReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.b)) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.b))
		return 0
	}
	return int(v)
}

func (r *stringReader) string() string {
	l := r.uvarint()
	if l > uint64(len(r.b)) {
		r.fail("string of %d bytes exceeds the %d bytes left", l, len(r.b))
		return ""
	}
	s := string(r.b[:l])
	r.b = r.b[l:]
	return s
}

// strings reads k strings; the caller has bounded k by the bytes left.
func (r *stringReader) strings(k int) []string {
	out := make([]string, k)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *stringReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b)
	if k <= 0 {
		r.fail("malformed length")
		return 0
	}
	r.b = r.b[k:]
	return v
}

func (r *stringReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = flatidx.Corruptf("dataset: names section: %s", fmt.Sprintf(format, args...))
	}
}
