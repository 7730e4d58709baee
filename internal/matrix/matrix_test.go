package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveKnown(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{2, 1, 1, 3}}
	x, err := m.Solve([]float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Errorf("Solve = %v, want [1 3]", x)
	}
}

func TestSolveSingular(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 4}}
	if _, err := m.Solve([]float64{1, 2}); err != ErrSingular {
		t.Errorf("expected ErrSingular, got %v", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	m := New(2, 3)
	if _, err := m.Solve([]float64{1, 2}); err == nil {
		t.Error("expected non-square error")
	}
	sq := New(2, 2)
	sq.Set(0, 0, 1)
	sq.Set(1, 1, 1)
	if _, err := sq.Solve([]float64{1}); err == nil {
		t.Error("expected rhs length error")
	}
}

func TestSolveRandomAgainstMulVec(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for iter := 0; iter < 500; iter++ {
		n := 1 + r.Intn(7)
		m := New(n, n)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		want := make([]float64, n)
		for i := range want {
			want[i] = r.NormFloat64()
		}
		b := mulVec(m, want)
		x, err := m.Solve(b)
		if err == ErrSingular {
			continue // random singular matrix, fine
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("Solve mismatch at %d: %v vs %v", i, x, want)
			}
		}
	}
}

func TestNullSpaceOfRow(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for iter := 0; iter < 500; iter++ {
		d := 2 + r.Intn(6)
		v := make([]float64, d)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		basis, err := NullSpaceOfRow(v)
		if err != nil {
			t.Fatal(err)
		}
		if len(basis) != d-1 {
			t.Fatalf("basis size %d, want %d", len(basis), d-1)
		}
		for i, b := range basis {
			// Orthogonal to v.
			var dot, norm float64
			for k := range b {
				dot += b[k] * v[k]
				norm += b[k] * b[k]
			}
			if math.Abs(dot) > 1e-8*vecNorm(v) {
				t.Fatalf("basis %d not orthogonal to v: %v", i, dot)
			}
			if math.Abs(norm-1) > 1e-8 {
				t.Fatalf("basis %d not unit: %v", i, norm)
			}
			// Orthonormal among themselves.
			for j := i + 1; j < len(basis); j++ {
				var d2 float64
				for k := range b {
					d2 += b[k] * basis[j][k]
				}
				if math.Abs(d2) > 1e-8 {
					t.Fatalf("basis %d,%d not orthogonal: %v", i, j, d2)
				}
			}
		}
	}
}

func TestNullSpaceZero(t *testing.T) {
	if _, err := NullSpaceOfRow([]float64{0, 0, 0}); err == nil {
		t.Error("expected error for zero functional")
	}
}

func vecNorm(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// mulVec returns m·x.
func mulVec(m *Matrix, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for r := range y {
		for c, v := range m.Data[r*m.Cols : (r+1)*m.Cols] {
			y[r] += v * x[c]
		}
	}
	return y
}
