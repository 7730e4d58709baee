// Package matrix implements the small dense linear algebra needed by the
// fair-ranking geometry: solving square linear systems by Gaussian
// elimination with partial pivoting, and orthonormal null-space bases of a
// single linear functional. Matrices here are tiny (at most d×d for d ≤ ~8
// ranking attributes), so a straightforward O(n³) elimination is both
// adequate and easy to verify.
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a system has no unique solution.
var ErrSingular = errors.New("matrix: singular matrix")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, Data[r*Cols+c]
}

// New returns a zero matrix of the given shape.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v float64) { m.Data[r*m.Cols+c] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Solve solves m·x = b for square m using Gaussian elimination with partial
// pivoting. It returns ErrSingular when the pivot falls below tol.
func (m *Matrix) Solve(b []float64) ([]float64, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("matrix: Solve requires square matrix, got %dx%d", m.Rows, m.Cols)
	}
	if len(b) != m.Rows {
		return nil, fmt.Errorf("matrix: Solve rhs length %d, want %d", len(b), m.Rows)
	}
	n := m.Rows
	a := m.Clone()
	x := make([]float64, n)
	copy(x, b)
	const tol = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, best := col, math.Abs(a.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				piv, best = r, v
			}
		}
		if best < tol {
			return nil, ErrSingular
		}
		if piv != col {
			a.swapRows(piv, col)
			x[piv], x[col] = x[col], x[piv]
		}
		inv := 1 / a.At(col, col)
		for r := col + 1; r < n; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= a.At(r, c) * x[c]
		}
		x[r] = s / a.At(r, r)
	}
	return x, nil
}

// NullSpaceOfRow returns an orthonormal basis of the null space of the single
// linear functional v (the hyperplane v·x = 0 through the origin): d−1
// orthonormal vectors spanning {x : v·x = 0}. Used by HYPERPOLAR to walk the
// ordering-exchange hyperplane. Returns an error for a zero functional.
func NullSpaceOfRow(v []float64) ([][]float64, error) {
	d := len(v)
	flat := make([]float64, (d-1)*d)
	if err := NullSpaceOfRowInto(v, make([]float64, d), flat); err != nil {
		return nil, err
	}
	basis := make([][]float64, d-1)
	for i := range basis {
		basis[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return basis, nil
}

// NullSpaceOfRowInto is NullSpaceOfRow into caller-provided storage: unit
// (length d) receives v/‖v‖ and basis (length (d−1)·d) the basis vectors as
// consecutive rows. The arithmetic is NullSpaceOfRow's own, so the vectors
// are bit-identical.
func NullSpaceOfRowInto(v, unit, basis []float64) error {
	d := len(v)
	var norm float64
	for _, x := range v {
		norm += x * x
	}
	norm = math.Sqrt(norm)
	if norm < 1e-12 {
		return errors.New("matrix: null space of zero functional")
	}
	for i, x := range v {
		unit[i] = x / norm
	}
	// Gram-Schmidt the standard basis against unit, keeping the d−1 largest
	// survivors. Start from the axis most aligned with unit to drop it.
	drop := 0
	for i := 1; i < d; i++ {
		if math.Abs(unit[i]) > math.Abs(unit[drop]) {
			drop = i
		}
	}
	rows := 0
	for i := 0; i < d; i++ {
		if i == drop {
			continue
		}
		e := basis[rows*d : (rows+1)*d]
		clear(e)
		e[i] = 1
		// Project out unit and the basis vectors found so far.
		projectOut(e, unit)
		for b := 0; b < rows; b++ {
			projectOut(e, basis[b*d:(b+1)*d])
		}
		var n float64
		for _, x := range e {
			n += x * x
		}
		n = math.Sqrt(n)
		if n < 1e-9 {
			return errors.New("matrix: degenerate null space basis")
		}
		for k := range e {
			e[k] /= n
		}
		rows++
	}
	return nil
}

func projectOut(e, b []float64) {
	var dot float64
	for i := range e {
		dot += e[i] * b[i]
	}
	for i := range e {
		e[i] -= dot * b[i]
	}
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}
