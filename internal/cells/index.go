package cells

import (
	"fmt"
	"io"

	"fairrank/internal/dataset"
	"fairrank/internal/fairness"
	"fairrank/internal/flatidx"
	"fairrank/internal/geom"
)

// Flat payload sections of a grid index. The partitioning is deterministic
// in (D, N), so only the per-cell assignments are stored: a one-byte state
// per cell and a packed float64 slab holding the assigned functions of the
// cells that have one. Loading re-derives the grid and slices functions out
// of the slab — no per-cell decode.
const (
	secMeta     uint32 = 1 // int64: D, N, NumCells, function length (D−1)
	secCellBits uint32 = 2 // uint8 per cell: bit 0 = has function, bit 1 = marked
	secFVals    uint32 = 3 // float64: assigned functions, D−1 values per assigned cell
)

const (
	cellHasF   = 1 << 0
	cellMarked = 1 << 1
)

// WriteIndex serializes the preprocessed index (grid shape plus per-cell
// satisfactory functions) in the flat columnar format so the offline phase
// can be paid once and reused across processes — the paper's "creating
// proper indexes in an offline manner enables efficient answering of the
// users' queries".
func (a *Approx) WriteIndex(w io.Writer) error {
	flen := a.DS.D() - 1
	bits := make([]uint8, a.Grid.NumCells())
	var fvals []float64
	for i, c := range a.Grid.Cells {
		if c.F != nil {
			if len(c.F) != flen {
				return fmt.Errorf("cells: cell %d function has %d angles, want %d", i, len(c.F), flen)
			}
			bits[i] |= cellHasF
			fvals = append(fvals, c.F...)
		}
		if c.Marked {
			bits[i] |= cellMarked
		}
	}
	fw := flatidx.NewWriter(flatidx.KindApprox)
	fw.Int64s(secMeta, []int64{int64(a.DS.D()), int64(a.Grid.N), int64(a.Grid.NumCells()), int64(flen)})
	fw.Uint8s(secCellBits, bits)
	fw.Float64s(secFVals, fvals)
	return fw.Flush(w)
}

// LoadIndex reconstructs a queryable index from WriteIndex output (the flat
// format). The dataset and oracle must be the ones the index was built for
// (Query validates the query against the oracle directly; a mismatched
// dataset gives garbage answers, and a changed dataset should be
// re-validated as §1 of the paper discusses). The assigned functions alias
// the decoded payload blob; the per-cell work is one byte test and one
// three-index slice expression.
func LoadIndex(r io.Reader, ds *dataset.Dataset, oracle fairness.Oracle) (*Approx, error) {
	fr, err := flatidx.Read(r)
	if err != nil {
		return nil, fmt.Errorf("cells: %w", err)
	}
	if fr.EngineKind() != flatidx.KindApprox {
		return nil, flatidx.Corruptf("cells: payload is for engine kind %d", fr.EngineKind())
	}
	meta, err := fr.Int64s(secMeta)
	if err != nil {
		return nil, fmt.Errorf("cells: %w", err)
	}
	if len(meta) != 4 {
		return nil, flatidx.Corruptf("cells: meta section has %d values, want 4", len(meta))
	}
	d, n, numCells, flen := int(meta[0]), int(meta[1]), int(meta[2]), int(meta[3])
	if d != ds.D() {
		return nil, fmt.Errorf("cells: index built for d=%d, dataset has d=%d", d, ds.D())
	}
	if flen != d-1 {
		return nil, flatidx.Corruptf("cells: function length %d, want %d", flen, d-1)
	}
	bits, err := fr.Uint8s(secCellBits)
	if err != nil {
		return nil, fmt.Errorf("cells: %w", err)
	}
	fvals, err := fr.Float64s(secFVals)
	if err != nil {
		return nil, fmt.Errorf("cells: %w", err)
	}
	if len(bits) != numCells {
		return nil, flatidx.Corruptf("cells: %d cell states for %d cells", len(bits), numCells)
	}
	withF := 0
	for i, b := range bits {
		if b&^uint8(cellHasF|cellMarked) != 0 {
			return nil, flatidx.Corruptf("cells: cell %d has state byte %#x", i, b)
		}
		if b&cellHasF != 0 {
			withF++
		}
	}
	if len(fvals) != withF*flen {
		return nil, flatidx.Corruptf("cells: function slab has %d values, %d assigned cells need %d",
			len(fvals), withF, withF*flen)
	}

	grid, err := NewGrid(d, n)
	if err != nil {
		return nil, err
	}
	if grid.NumCells() != numCells {
		return nil, fmt.Errorf("cells: index has %d cells, partitioning produced %d (incompatible build?)",
			numCells, grid.NumCells())
	}
	marked, off := 0, 0
	for i, c := range grid.Cells {
		if bits[i]&cellHasF != 0 {
			c.F = geom.Angles(fvals[off : off+flen : off+flen])
			off += flen
		}
		if bits[i]&cellMarked != 0 {
			c.Marked = true
			marked++
		}
	}
	return &Approx{
		Grid:      grid,
		DS:        ds,
		Oracle:    oracle,
		MarkStats: MarkStats{Marked: marked},
	}, nil
}
