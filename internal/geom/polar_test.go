package geom

import (
	"math"
	"math/rand"
	"testing"
)

func TestToPolar2D(t *testing.T) {
	cases := []struct {
		w     Vector
		wantR float64
		wantA float64
	}{
		{Vector{1, 0}, 1, 0},
		{Vector{0, 1}, 1, math.Pi / 2},
		{Vector{1, 1}, math.Sqrt2, math.Pi / 4},
		{Vector{3, 4}, 5, math.Atan2(4, 3)},
	}
	for _, c := range cases {
		r, a, err := ToPolar(c.w)
		if err != nil {
			t.Fatalf("ToPolar(%v): %v", c.w, err)
		}
		if !almostEq(r, c.wantR, 1e-12) || !almostEq(a[0], c.wantA, 1e-12) {
			t.Errorf("ToPolar(%v) = (%v,%v), want (%v,%v)", c.w, r, a[0], c.wantR, c.wantA)
		}
	}
}

func TestToPolarErrors(t *testing.T) {
	if _, _, err := ToPolar(Vector{0, 0}); err == nil {
		t.Error("expected error for zero vector")
	}
	if _, _, err := ToPolar(Vector{-1, 1}); err == nil {
		t.Error("expected error for negative coordinate")
	}
	if _, _, err := ToPolar(Vector{5}); err == nil {
		t.Error("expected error for 1-dimensional input")
	}
}

func TestToCartesianKnown3D(t *testing.T) {
	// θ1 = θ2 = 0 must give the x-axis; θ2 = π/2 gives the z-axis.
	v := Angles{0, 0}.ToCartesian(1)
	if !almostEq(v[0], 1, 1e-12) || !almostEq(v[1], 0, 1e-12) || !almostEq(v[2], 0, 1e-12) {
		t.Errorf("Angles{0,0} = %v, want x-axis", v)
	}
	v = Angles{0, math.Pi / 2}.ToCartesian(1)
	if !almostEq(v[2], 1, 1e-12) || !almostEq(v[0], 0, 1e-12) {
		t.Errorf("Angles{0,π/2} = %v, want z-axis", v)
	}
	v = Angles{math.Pi / 2, 0}.ToCartesian(2)
	if !almostEq(v[1], 2, 1e-12) {
		t.Errorf("Angles{π/2,0}·2 = %v, want y-axis·2", v)
	}
}

// Property: ToPolar and ToCartesian are mutually inverse on the non-negative
// orthant, for dimensions 2 through 7.
func TestPolarRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		d := 2 + r.Intn(6)
		w := randomPositiveVector(r, d)
		rad, a, err := ToPolar(w)
		if err != nil {
			t.Fatal(err)
		}
		if !a.InRange() {
			t.Fatalf("angles out of range: %v for %v", a, w)
		}
		back := a.ToCartesian(rad)
		for k := range w {
			if !almostEq(back[k], w[k], 1e-8*(1+rad)) {
				t.Fatalf("round trip failed: %v -> (%v,%v) -> %v", w, rad, a, back)
			}
		}
	}
}

// Property: round trip starting from angles.
func TestAnglesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for iter := 0; iter < 2000; iter++ {
		d := 2 + r.Intn(5)
		a := make(Angles, d-1)
		for k := range a {
			a[k] = r.Float64() * math.Pi / 2 * 0.999
		}
		w := a.ToCartesian(1)
		if !w.IsNonNegative() {
			t.Fatalf("ToCartesian left orthant: %v -> %v", a, w)
		}
		_, back, err := ToPolar(w)
		if err != nil {
			t.Fatal(err)
		}
		da, err := AngleDistance(a, back)
		if err != nil {
			t.Fatal(err)
		}
		if da > 1e-7 {
			t.Fatalf("angle round trip failed: %v -> %v (dist %v)", a, back, da)
		}
	}
}

// Property: AngleDistance agrees with the literal Eq. 10 implementation.
func TestEq10Equivalence(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for iter := 0; iter < 1000; iter++ {
		d := 2 + r.Intn(5)
		a := make(Angles, d-1)
		b := make(Angles, d-1)
		for k := range a {
			a[k] = r.Float64() * math.Pi / 2
			b[k] = r.Float64() * math.Pi / 2
		}
		d1, err1 := AngleDistance(a, b)
		d2, err2 := AngleDistanceEq10(a, b)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if !almostEq(d1, d2, 1e-8) {
			t.Fatalf("Eq10 mismatch for %v,%v: %v vs %v", a, b, d1, d2)
		}
	}
}

// Property: AngleDistance between angle vectors equals RayDistance between
// the corresponding weight vectors (the two views of function distance agree).
func TestAngleDistanceMatchesRayDistance(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for iter := 0; iter < 1000; iter++ {
		d := 2 + r.Intn(5)
		w1 := randomPositiveVector(r, d)
		w2 := randomPositiveVector(r, d)
		_, a1, _ := ToPolar(w1)
		_, a2, _ := ToPolar(w2)
		dr, _ := RayDistance(w1, w2)
		da, _ := AngleDistance(a1, a2)
		if !almostEq(dr, da, 1e-8) {
			t.Fatalf("distance views disagree: %v vs %v", dr, da)
		}
	}
}

func TestAngleDistanceMismatch(t *testing.T) {
	if _, err := AngleDistance(Angles{0}, Angles{0, 0}); err == nil {
		t.Error("expected dimension mismatch error")
	}
	if _, err := AngleDistanceEq10(Angles{0}, Angles{0, 0}); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

// CartesianBounds brackets every coordinate of every ray in the box, and a
// point box gives that point's coordinates bit for bit.
func TestCartesianBounds(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for iter := 0; iter < 200; iter++ {
		d := 2 + r.Intn(4)
		from, to := make(Angles, d-1), make(Angles, d-1)
		for k := range from {
			a, b := r.Float64()*math.Pi/2, r.Float64()*math.Pi/2
			if r.Intn(4) == 0 {
				a = 0
			}
			if r.Intn(4) == 0 {
				b = math.Pi / 2
			}
			from[k], to[k] = math.Min(a, b), math.Max(a, b)
		}
		lo, hi := NewVector(d), NewVector(d)
		CartesianBounds(from, to, lo, hi)
		for probe := 0; probe < 20; probe++ {
			theta := make(Angles, d-1)
			for k := range theta {
				theta[k] = from[k] + r.Float64()*(to[k]-from[k])
			}
			x := theta.ToCartesian(1)
			for k := range x {
				if x[k] < lo[k]-1e-15 || x[k] > hi[k]+1e-15 {
					t.Fatalf("box %v–%v, ray %v: x[%d]=%v outside [%v, %v]", from, to, theta, k, x[k], lo[k], hi[k])
				}
			}
			CartesianBounds(theta, theta, lo, hi)
			for k := range x {
				if lo[k] != x[k] || hi[k] != x[k] {
					t.Fatalf("point box %v: bounds %v–%v, want %v", theta, lo, hi, x)
				}
			}
			CartesianBounds(from, to, lo, hi)
		}
	}
}
