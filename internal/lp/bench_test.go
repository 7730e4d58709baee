package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// Seidel's LP is the inner loop of every arrangement operation; these
// micro-benchmarks track its cost as constraint count and dimension grow.
func BenchmarkSeidel(b *testing.B) {
	for _, d := range []int{2, 3, 5} {
		for _, m := range []int{10, 100, 1000} {
			b.Run(fmt.Sprintf("d=%d/m=%d", d, m), func(b *testing.B) {
				r := rand.New(rand.NewSource(1))
				p := &Problem{
					C:  make([]float64, d),
					Lo: make([]float64, d),
					Hi: make([]float64, d),
				}
				for k := 0; k < d; k++ {
					p.C[k] = r.NormFloat64()
					p.Hi[k] = 1
				}
				for i := 0; i < m; i++ {
					a := make([]float64, d)
					for k := range a {
						a[k] = r.NormFloat64()
					}
					p.Cons = append(p.Cons, Constraint{A: a, B: 1 + r.Float64()})
				}
				rng := rand.New(rand.NewSource(2))
				var ws Workspace
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ws.Solve(p, rng); err != nil && err != ErrInfeasible {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkInteriorPoint(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	d, m := 3, 200
	var cons []Constraint
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		for k := range a {
			a[k] = r.NormFloat64()
		}
		cons = append(cons, Constraint{A: a, B: 1 + r.Float64()})
	}
	lo := make([]float64, d)
	hi := []float64{1, 1, 1}
	rng := rand.New(rand.NewSource(4))
	var ws Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ws.InteriorPoint(cons, lo, hi, rng); err != nil && err != ErrInfeasible {
			b.Fatal(err)
		}
	}
}

func BenchmarkFeasibleOnHyperplane(b *testing.B) {
	r := rand.New(rand.NewSource(5))
	d, m := 4, 100
	var cons []Constraint
	for i := 0; i < m; i++ {
		a := make([]float64, d)
		for k := range a {
			a[k] = r.NormFloat64()
		}
		cons = append(cons, Constraint{A: a, B: 1 + r.Float64()})
	}
	g := []float64{1, 1, 1, 1}
	lo := make([]float64, d)
	hi := []float64{1, 1, 1, 1}
	rng := rand.New(rand.NewSource(6))
	var ws Workspace
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.FeasibleOnHyperplane(g, 2, cons, lo, hi, 1e-7, rng)
	}
}
