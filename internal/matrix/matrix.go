// Package matrix implements the small dense linear algebra needed by the
// fair-ranking geometry: solving linear systems, inversion, rank, and null
// space bases via Gaussian elimination with partial pivoting. Matrices here
// are tiny (at most d×d for d ≤ ~8 ranking attributes), so a straightforward
// O(n³) elimination is both adequate and easy to verify.
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

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		panic("matrix: FromRows with no rows")
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.Cols {
			panic(fmt.Sprintf("matrix: ragged row %d: %d vs %d", r, len(row), m.Cols))
		}
		copy(m.Data[r*m.Cols:(r+1)*m.Cols], row)
	}
	return m
}

// Identity returns the n×n identity.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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

// MulVec returns m·x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("matrix: MulVec dimension mismatch %d vs %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s float64
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			s += v * x[c]
		}
		y[r] = s
	}
	return y
}

// Mul returns m·o.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("matrix: Mul shape mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
	p := New(m.Rows, o.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			for c := 0; c < o.Cols; c++ {
				p.Data[r*p.Cols+c] += a * o.At(k, c)
			}
		}
	}
	return p
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

// Inverse returns m⁻¹ or ErrSingular.
func (m *Matrix) Inverse() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("matrix: Inverse requires square matrix, got %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	inv := New(n, n)
	// Solve column by column against the identity. O(n⁴) but n ≤ 8 here.
	e := make([]float64, n)
	for c := 0; c < n; c++ {
		for i := range e {
			e[i] = 0
		}
		e[c] = 1
		col, err := m.Solve(e)
		if err != nil {
			return nil, err
		}
		for r := 0; r < n; r++ {
			inv.Set(r, c, col[r])
		}
	}
	return inv, nil
}

// Rank returns the numerical rank of m with the given tolerance on pivots.
func (m *Matrix) Rank(tol float64) int {
	a := m.Clone()
	rank := 0
	row := 0
	for col := 0; col < a.Cols && row < a.Rows; col++ {
		piv, best := -1, tol
		for r := row; r < a.Rows; r++ {
			if v := math.Abs(a.At(r, col)); v > best {
				piv, best = r, v
			}
		}
		if piv < 0 {
			continue
		}
		a.swapRows(piv, row)
		inv := 1 / a.At(row, col)
		for r := row + 1; r < a.Rows; r++ {
			f := a.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < a.Cols; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(row, c))
			}
		}
		rank++
		row++
	}
	return rank
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
