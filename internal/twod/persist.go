package twod

import (
	"fmt"
	"io"
	"math"
	"unsafe"

	"fairrank/internal/flatidx"
	"fairrank/internal/geom"
)

// Flat payload sections of a 2D ray-sweep index. The satisfactory intervals
// are the whole queryable state (Query is a pure function of them); the
// sweep statistics ride along so a loaded index reports the same counters as
// the one that was saved.
const (
	secIntervals uint32 = 1 // float64: Start, End interleaved, 2 per interval
	secStats     uint32 = 2 // int64: ExchangeCount, OracleCalls, Sectors
)

// WriteIndex serializes the index in the flat columnar format so the offline
// ray sweep can be paid once and reused across processes. The interval slab
// is written straight from the in-memory representation — encoding cost is
// one table pass plus the checksums, independent of per-element structure.
func (idx *Index) WriteIndex(w io.Writer) error {
	fw := flatidx.NewWriter(flatidx.KindTwoD)
	fw.Float64s(secIntervals, intervalsToSlab(idx.intervals))
	fw.Int64s(secStats, []int64{int64(idx.ExchangeCount), int64(idx.OracleCalls), int64(idx.Sectors)})
	return fw.Flush(w)
}

// intervalsToSlab reinterprets the interval slice as its flat float64 view
// (Interval is exactly two float64s, so the memory layouts coincide).
func intervalsToSlab(ivs []Interval) []float64 {
	if len(ivs) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&ivs[0])), len(ivs)*2)
}

// intervalsFromSlab is the inverse cast: the loaded index's intervals alias
// the decoded payload blob — no per-element copy.
func intervalsFromSlab(f []float64) []Interval {
	if len(f) == 0 {
		return nil
	}
	return unsafe.Slice((*Interval)(unsafe.Pointer(&f[0])), len(f)/2)
}

// LoadIndex reconstructs a queryable index from WriteIndex output (the flat
// format). A loaded index answers Query byte-identically to the index that
// wrote it. Damaged payloads report errors wrapping flatidx.ErrCorrupt.
func LoadIndex(r io.Reader) (*Index, error) {
	fr, err := flatidx.Read(r)
	if err != nil {
		return nil, fmt.Errorf("twod: %w", err)
	}
	if fr.EngineKind() != flatidx.KindTwoD {
		return nil, flatidx.Corruptf("twod: payload is for engine kind %d", fr.EngineKind())
	}
	slab, err := fr.Float64s(secIntervals)
	if err != nil {
		return nil, fmt.Errorf("twod: %w", err)
	}
	if len(slab)%2 != 0 {
		return nil, flatidx.Corruptf("twod: odd interval slab length %d", len(slab))
	}
	stats, err := fr.Int64s(secStats)
	if err != nil {
		return nil, fmt.Errorf("twod: %w", err)
	}
	if len(stats) != 3 {
		return nil, flatidx.Corruptf("twod: stats section has %d values, want 3", len(stats))
	}
	intervals := intervalsFromSlab(slab)
	if err := validateIntervals(intervals); err != nil {
		return nil, err
	}
	return &Index{
		intervals:     intervals,
		ExchangeCount: int(stats[0]),
		OracleCalls:   int(stats[1]),
		Sectors:       int(stats[2]),
	}, nil
}

// validateIntervals enforces the structural invariants Query depends on:
// each interval well-formed and inside [0, π/2], the list sorted and
// non-overlapping. Checked on every load path, so a damaged slab that
// happens to pass the checksums still cannot produce wrong answers.
func validateIntervals(ivs []Interval) error {
	for i, iv := range ivs {
		if !(iv.Start <= iv.End) || iv.Start < -geom.Eps || iv.End > math.Pi/2+geom.Eps {
			return flatidx.Corruptf("twod: index interval %d [%v, %v] outside [0, π/2]", i, iv.Start, iv.End)
		}
		if i > 0 && ivs[i-1].End > iv.Start {
			return flatidx.Corruptf("twod: index intervals %d and %d out of order", i-1, i)
		}
	}
	return nil
}
