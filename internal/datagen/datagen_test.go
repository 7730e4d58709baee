package datagen

import (
	"math"
	"testing"
)

func TestCompasMarginals(t *testing.T) {
	ds, err := Compas(CompasN, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N() != CompasN || ds.D() != 7 {
		t.Fatalf("shape = %d×%d", ds.N(), ds.D())
	}
	check := func(attr, label string, want, tol float64) {
		t.Helper()
		props, err := ds.GroupProportions(attr)
		if err != nil {
			t.Fatal(err)
		}
		ta, _ := ds.TypeAttr(attr)
		for i, l := range ta.Labels {
			if l == label {
				if math.Abs(props[i]-want) > tol {
					t.Errorf("%s=%s proportion %v, want %v±%v", attr, label, props[i], want, tol)
				}
				return
			}
		}
		t.Fatalf("label %s not found in %s", label, attr)
	}
	check("race", "African-American", 0.50, 0.02)
	check("race", "Caucasian", 0.34, 0.02)
	check("sex", "male", 0.80, 0.02)
	check("age_binary", "le35", 0.60, 0.02)
	check("age_bucketized", "le30", 0.42, 0.02)
	check("age_bucketized", "31to50", 0.34, 0.02)
	check("age_bucketized", "gt50", 0.24, 0.02)
}

func TestCompasDeterministic(t *testing.T) {
	a, _ := Compas(100, 7)
	b, _ := Compas(100, 7)
	for i := 0; i < 100; i++ {
		for j := 0; j < a.D(); j++ {
			if a.Item(i)[j] != b.Item(i)[j] {
				t.Fatal("Compas not deterministic under fixed seed")
			}
		}
	}
	c, _ := Compas(100, 8)
	same := true
	for i := 0; i < 100 && same; i++ {
		for j := 0; j < a.D(); j++ {
			if a.Item(i)[j] != c.Item(i)[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical data")
	}
}

func TestCompasJuvMildlyAgeRelated(t *testing.T) {
	// The §6.2-b single-region layout depends on juv_other_count being
	// only MILDLY related to current age: younger individuals have
	// somewhat more juvenile counts, but ranking by juv alone must not
	// over-select the young group (a juvenile record describes the past,
	// so older individuals carry them too).
	ds, err := Compas(5000, 2)
	if err != nil {
		t.Fatal(err)
	}
	var youngSum, oldSum float64
	var youngN, oldN int
	for i := 0; i < ds.N(); i++ {
		age := ds.Item(i)[5]
		juv := ds.Item(i)[1]
		if age <= 30 {
			youngSum += juv
			youngN++
		} else if age > 40 {
			oldSum += juv
			oldN++
		}
	}
	youngMean := youngSum / float64(youngN)
	oldMean := oldSum / float64(oldN)
	if youngMean <= oldMean {
		t.Errorf("juv_other_count should lean young: young mean %v, old mean %v", youngMean, oldMean)
	}
	if youngMean > 2*oldMean {
		t.Errorf("juv_other_count age relation too strong (breaks §6.2-b): young %v vs old %v", youngMean, oldMean)
	}
}

func TestCompasPriorsDisparity(t *testing.T) {
	ds, err := Compas(5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := ds.TypeAttr("race")
	var aaSum, otherSum float64
	var aaN, otherN int
	for i := 0; i < ds.N(); i++ {
		priors := ds.Item(i)[6]
		if ta.Labels[ta.Values[i]] == "African-American" {
			aaSum += priors
			aaN++
		} else {
			otherSum += priors
			otherN++
		}
	}
	if aaSum/float64(aaN) <= otherSum/float64(otherN) {
		t.Error("priors_count disparity missing: generator would not reproduce the paper's bias scenario")
	}
}

func TestCompasNormalized(t *testing.T) {
	ds, err := CompasNormalized(500, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.N(); i++ {
		for j := 0; j < ds.D(); j++ {
			v := ds.Item(i)[j]
			if v < 0 || v > 1 {
				t.Fatalf("normalized value out of range: %v", v)
			}
		}
	}
}

func TestDOT(t *testing.T) {
	ds, err := DOT(20000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ds.D() != 3 {
		t.Fatalf("D = %d", ds.D())
	}
	ta, err := ds.TypeAttr("airline_name")
	if err != nil {
		t.Fatal(err)
	}
	if len(ta.Labels) != 14 {
		t.Fatalf("carriers = %d, want 14", len(ta.Labels))
	}
	props, _ := ds.GroupProportions("airline_name")
	// Big four shares roughly as configured.
	for i, l := range ta.Labels {
		if l == "WN" && math.Abs(props[i]-0.21) > 0.02 {
			t.Errorf("WN share %v", props[i])
		}
		if l == "DL" && math.Abs(props[i]-0.17) > 0.02 {
			t.Errorf("DL share %v", props[i])
		}
	}
}

func TestUniformAndBiased(t *testing.T) {
	ds, err := Uniform(2000, 2, 0.4, 9)
	if err != nil {
		t.Fatal(err)
	}
	props, _ := ds.GroupProportions("group")
	if math.Abs(props[1]-0.4) > 0.05 {
		t.Errorf("protected fraction %v, want 0.4", props[1])
	}
	biased, err := Biased(2000, 2, 0.4, 0.2, 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Protected group's attribute 1 must be depressed on average.
	ta, _ := biased.TypeAttr("group")
	var pSum, mSum float64
	var pN, mN int
	for i := 0; i < biased.N(); i++ {
		if ta.Values[i] == 1 {
			pSum += biased.Item(i)[1]
			pN++
		} else {
			mSum += biased.Item(i)[1]
			mN++
		}
	}
	if pSum/float64(pN) >= mSum/float64(mN)-0.1 {
		t.Errorf("bias gap missing: protected mean %v, majority mean %v", pSum/float64(pN), mSum/float64(mN))
	}
}

func TestCorrelatedAntiCorrelated(t *testing.T) {
	cor, err := Correlated(1000, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	anti, err := AntiCorrelated(1000, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	// Anti-correlated data has a much larger skyline than correlated data.
	// The skyline is the top-1 candidate set: items no other item dominates.
	cs := len(cor.TopKCandidates(1))
	as := len(anti.TopKCandidates(1))
	if as <= cs {
		t.Errorf("skylines: anti %d should exceed correlated %d", as, cs)
	}
}

func TestToyDatasets(t *testing.T) {
	if ds := Fig3(); ds.N() != 5 || ds.D() != 2 {
		t.Error("Fig3 shape wrong")
	}
	if ds := Fig7(); ds.N() != 4 || ds.D() != 3 {
		t.Error("Fig7 shape wrong")
	}
}

func TestPoissonExpoSanity(t *testing.T) {
	ds, _ := Compas(1000, 12)
	// Counts are non-negative integers; days are non-negative.
	for i := 0; i < ds.N(); i++ {
		it := ds.Item(i)
		if it[1] < 0 || it[1] != math.Trunc(it[1]) {
			t.Fatalf("juv_other_count not a count: %v", it[1])
		}
		if it[0] < 0 || it[3] < 0 || it[4] < it[3] {
			t.Fatalf("day attributes inconsistent: %v", it)
		}
	}
}
