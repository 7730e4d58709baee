package main

import (
	"bytes"
	"slices"
	"testing"
	"time"
)

func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 0, 9, false},
		{100, 0.9, 90, 10, true},
		{128, 0.9, 116, 12, true},
		{99, 0.9, 0, 9, false},
		{5, 0.5, 3, 2, true}, // a median needs nothing beyond it
	} {
		v, beyond, err := tail(seq(tc.n), tc.q)
		if (err == nil) != tc.ok || beyond != tc.beyond || (tc.ok && v != tc.want) {
			t.Errorf("tail(n=%d, q=%g) = %g, %d beyond, err %v; want %g, %d beyond, ok=%v",
				tc.n, tc.q, v, beyond, err, tc.want, tc.beyond, tc.ok)
		}
	}
}

func TestPercentileIsMedianOfParts(t *testing.T) {
	// Three parts of 100 samples; the middle one met a burst of slowness.
	var xs []float64
	for k := 0; k < 3; k++ {
		for i := 1; i <= 100; i++ {
			x := float64(i)
			if k == 1 {
				x += 1000
			}
			xs = append(xs, x)
		}
	}
	v, beyond, err := percentile(xs, 0.9, partsFor(len(xs), 0.9))
	if err != nil || v != 90 || beyond != 10 {
		t.Fatalf("p90 = %g, %d beyond, err %v; want 90, 10, nil", v, beyond, err)
	}
	// 99 samples per part leave 9 beyond each part's p90.
	if _, _, err := percentile(xs[:297], 0.9, 3); err == nil {
		t.Fatal("p90 of parts of 99 samples accepted")
	}
}

func TestPartsLeaveTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
		ok   bool
	}{
		{300, 0.9, 3, true},      // 100 per part, 10 beyond each
		{299, 0.9, 2, true},      // three parts would leave 99 in one
		{640, 0.9, 6, true},      // explore-md's batches
		{5600, 0.99, 5, true},    // 1120 per part, 11 beyond
		{5600, 0.95, 15, true},   // explore-md's singles: 373 per part, 18 beyond
		{240000, 0.99, 15, true}, // capped at maxParts
		{999, 0.99, 1, false},    // too few for any split: percentile refuses
	} {
		k := partsFor(tc.n, tc.q)
		if k != tc.want {
			t.Errorf("partsFor(%d, %g) = %d, want %d", tc.n, tc.q, k, tc.want)
			continue
		}
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i % 97)
		}
		_, beyond, err := percentile(xs, tc.q, k)
		if (err == nil) != tc.ok || (tc.ok && beyond < minBeyond) {
			t.Errorf("percentile(n=%d, q=%g, %d parts): %d beyond, err %v", tc.n, tc.q, k, beyond, err)
		}
	}
}

func TestSamplesCountFailuresAsMisses(t *testing.T) {
	s := newSamples("suggest", 4)
	s.add(time.Millisecond, true)
	s.add(time.Millisecond, false)
	if s.attempted != 2 || s.failed != 1 || s.lat[1] != failedLatency {
		t.Fatalf("attempted=%d failed=%d lat=%v", s.attempted, s.failed, s.lat)
	}
}

func TestLatenessFromDue(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name               string
		due, prevEnd, send time.Duration
		slop               time.Duration
	}{
		// The connection was idle when the op fell due: all of the
		// lateness (send - due) is the sender's own slop.
		{"idle", 10 * ms, 5 * ms, 11 * ms, 1 * ms},
		// The previous op ran past the due time: waiting for it is the
		// system's doing; only the delay after it ended is slop.
		{"queued", 10 * ms, 14 * ms, 14*ms + 200*time.Microsecond, 200 * time.Microsecond},
		// Sent the moment the connection freed up.
		{"back-to-back", 10 * ms, 12 * ms, 12 * ms, 0},
		// Sent early cannot happen, but must not read as negative slop.
		{"early", 10 * ms, 5 * ms, 9 * ms, 0},
	} {
		if got := slopOf(tc.due, tc.prevEnd, tc.send); got != tc.slop {
			t.Errorf("%s: slop %v, want %v", tc.name, got, tc.slop)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q2, q3 := quartiles(xs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
	if got := spread(xs); got != (8.25-2.75)/5.5 {
		t.Fatalf("spread = %v", got)
	}
}

// requestBytes renders every request a plan sends, in order.
func requestBytes(p *plan) []byte {
	var out []byte
	for _, s := range p.streams() {
		for i := range s {
			o := &s[i]
			switch o.kind {
			case opSuggest:
				out = appendSuggestBody(out, o.weights())
			case opBatch:
				out = append(out, p.batches[o.batch].body...)
			case opPatch:
				out = appendPatchBody(out, o)
			}
			out = append(out, o.node, o.designer, byte(o.after>>8), '\n')
		}
	}
	return out
}

func TestSameSeedSameOps(t *testing.T) {
	for _, w := range workloadNames {
		a, err := newPlan(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(w, 7, 1)
		c, _ := newPlan(w, 8, 1)
		if !bytes.Equal(requestBytes(a), requestBytes(b)) || digest(a.streams(), a.batches) != digest(b.streams(), b.batches) {
			t.Errorf("%s: seed 7 drew two different op sequences", w)
		}
		if bytes.Equal(requestBytes(a), requestBytes(c)) {
			t.Errorf("%s: seeds 7 and 8 drew the same op sequence", w)
		}
		for i := range a.datasets {
			if a.datasets[i].ds.Fingerprint() != c.datasets[i].ds.Fingerprint() {
				t.Errorf("%s: dataset %s differs between seeds", w, a.datasets[i].id)
			}
		}
	}
}

func TestSessionsRevisitAndBatch(t *testing.T) {
	g := newGen(1, 1)
	ops := g.session(0, 3, newBatch)
	revisits, singles := 0, 0
	for _, o := range ops {
		if o.kind == opSuggest {
			singles++
			if o.revisit {
				revisits++
			}
		}
	}
	if singles != 7 || revisits != 2 || ops[len(ops)-1].kind != opBatch {
		t.Fatalf("session: %d singles, %d revisits, last kind %v", singles, revisits, ops[len(ops)-1].kind)
	}
	b := g.batches[ops[len(ops)-1].batch]
	if len(b.flat) != batchSize*3 {
		t.Fatalf("batch holds %d values, want %d", len(b.flat), batchSize*3)
	}
	distinct := make(map[[3]float64]bool)
	for i := 0; i < batchSize; i++ {
		var k [3]float64
		copy(k[:], b.flat[i*3:i*3+3])
		distinct[k] = true
	}
	if want := int(batchSize * (1 - batchDupFrac)); len(distinct) != want {
		t.Fatalf("batch has %d distinct directions, want %d", len(distinct), want)
	}
}

func TestSelfTimesAddUpToTotal(t *testing.T) {
	us := time.Microsecond
	mk := func(op int32, ly layer, d time.Duration) span {
		return span{Op: op, layer: ly, kind: opSuggest, Start: 100 * us, End: 100*us + d}
	}
	spans := []span{
		// The measured run's own span of an op is not part of the split.
		mk(1, layerRun, 500*us),
		mk(1, layerHTTP, 60*us), mk(1, layerServer, 5*us), mk(1, layerDesigner, 1*us),
		mk(2, layerHTTP, 80*us), mk(2, layerServer, 10*us), mk(2, layerDesigner, 4*us),
		// An op some layer did not replay is left out rather than miscounted.
		mk(3, layerHTTP, 70*us),
		{Op: 4, layer: layerHTTP, kind: opBatch, End: 900 * us},
	}
	self, total := selfTimes(spans, opSuggest)
	if len(total) != 2 || len(self[layerRun]) != 0 {
		t.Fatalf("got %d complete ops and %d run-layer self times, want 2 and 0", len(total), len(self[layerRun]))
	}
	want := [nLayers][]time.Duration{layerHTTP: {55 * us, 70 * us}, layerServer: {4 * us, 6 * us}, layerDesigner: {1 * us, 4 * us}}
	for i := range total {
		var sum time.Duration
		for ly := layerHTTP; ly < nLayers; ly++ {
			if self[ly][i] != want[ly][i] {
				t.Errorf("op %d layer %s: self %v, want %v", i, layerNames[ly], self[ly][i], want[ly][i])
			}
			sum += self[ly][i]
		}
		if sum != total[i] {
			t.Errorf("op %d: layer self times sum to %v, total is %v", i, sum, total[i])
		}
	}
}

func TestInterleaveSpreadsClassesAndKeepsUnits(t *testing.T) {
	var units [][]op
	for u := 0; u < 12; u++ {
		units = append(units, []op{{kind: opSuggest, id: int32(2 * u)}, {kind: opBatch, id: int32(2*u + 1)}})
	}
	patches := []op{{kind: opPatch, id: 100}, {kind: opPatch, id: 101}, {kind: opPatch, id: 102}}
	out := interleave(units, patches)
	if len(out) != 27 {
		t.Fatalf("got %d ops, want 27", len(out))
	}
	var at []int
	next := int32(0)
	for i, o := range out {
		switch o.kind {
		case opPatch:
			if o.id != int32(100+len(at)) {
				t.Fatalf("patch %d out of order at %d", o.id, i)
			}
			at = append(at, i)
		case opSuggest:
			if o.id != next || out[i+1].id != next+1 {
				t.Fatalf("unit %d split or out of order at %d", next/2, i)
			}
			next += 2
		}
	}
	// 12 units and 3 extras: one extra after every 3 units.
	if want := []int{6, 13, 20}; !slices.Equal(at, want) {
		t.Fatalf("patches at %v, want %v", at, want)
	}
}
