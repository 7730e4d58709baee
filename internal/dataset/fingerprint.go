package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Fingerprint returns a 64-bit digest of the dataset's full content: scoring
// attribute names, every item's exact float bits, and every type attribute's
// name, labels, and per-item values. Two datasets share a fingerprint exactly
// when a fairness oracle and a designer built over one are valid over the
// other, so persisted indexes embed it and refuse to load against data they
// were not built for. The digest is computed once and cached (AddTypeAttr,
// the only mutation, discards it); concurrent callers are safe.
func (ds *Dataset) Fingerprint() uint64 {
	if fp := ds.fp.Load(); fp != nil {
		return *fp
	}
	fp := ds.fingerprint()
	ds.fp.Store(&fp)
	return fp
}

// fingerprint computes Fingerprint's digest afresh.
func (ds *Dataset) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	writeInt(ds.D())
	writeInt(ds.N())
	for _, name := range ds.scoringNames {
		writeStr(name)
	}
	for _, it := range ds.items {
		for _, v := range it {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	writeInt(len(ds.types))
	for _, ta := range ds.types {
		writeStr(ta.Name)
		writeInt(len(ta.Labels))
		for _, l := range ta.Labels {
			writeStr(l)
		}
		for _, v := range ta.Values {
			writeInt(v)
		}
	}
	return h.Sum64()
}
