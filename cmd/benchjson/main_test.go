package main

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	r, ok := parseLine("BenchmarkServeSuggest-8   \t11325680\t       107.1 ns/op\t       107.1 ns/query")
	if !ok {
		t.Fatal("line should parse")
	}
	if r.Name != "BenchmarkServeSuggest" {
		t.Errorf("name = %q (GOMAXPROCS suffix should strip)", r.Name)
	}
	if r.Iterations != 11325680 {
		t.Errorf("iterations = %d", r.Iterations)
	}
	if r.Metrics["ns/op"] != 107.1 || r.Metrics["ns/query"] != 107.1 {
		t.Errorf("metrics = %v", r.Metrics)
	}
	for _, line := range []string{
		"",
		"PASS",
		"ok  \tfairrank\t2.9s",
		"goos: linux",
		"BenchmarkBroken notanumber ns/op",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("line %q should not parse", line)
		}
	}
	// A no-suffix serial run parses too.
	if r, ok := parseLine("BenchmarkServeSuggestBatch \t35266\t34829 ns/op\t68.03 ns/query"); !ok || r.Name != "BenchmarkServeSuggestBatch" {
		t.Errorf("serial line: ok=%v r=%+v", ok, r)
	}
}

func res(name string, metrics map[string]float64) result {
	return result{Name: name, Iterations: 1, Metrics: metrics}
}

// The perf gate: time metrics may exceed the baseline by at most the allowed
// fraction; improvements and small drifts pass, bigger slowdowns fail, and
// benchmarks missing on either side never fail the gate.
func TestCompareResults(t *testing.T) {
	baseline := []result{
		res("BenchmarkServeSuggest", map[string]float64{"ns/op": 100, "ns/query": 100}),
		res("BenchmarkServeSuggestBatch", map[string]float64{"ns/op": 1000, "ns/query": 50}),
		res("BenchmarkRetired", map[string]float64{"ns/op": 10}),
	}
	// Within the 25% budget (and one improvement): passes.
	report, regressed := compareResults([]result{
		res("BenchmarkServeSuggest", map[string]float64{"ns/op": 120, "ns/query": 80}),
		res("BenchmarkServeSuggestBatch", map[string]float64{"ns/op": 1249, "ns/query": 62.4}),
		res("BenchmarkBrandNew", map[string]float64{"ns/op": 5}),
	}, baseline, 0.25)
	if regressed {
		t.Fatalf("within-budget run flagged as regression:\n%s", strings.Join(report, "\n"))
	}
	hasNew, hasMissing := false, false
	for _, line := range report {
		hasNew = hasNew || strings.HasPrefix(line, "NEW     BenchmarkBrandNew")
		hasMissing = hasMissing || strings.HasPrefix(line, "MISSING BenchmarkRetired")
	}
	if !hasNew || !hasMissing {
		t.Fatalf("report should note new and missing benchmarks:\n%s", strings.Join(report, "\n"))
	}
	// 26% over on a single metric: fails.
	report, regressed = compareResults([]result{
		res("BenchmarkServeSuggest", map[string]float64{"ns/op": 100, "ns/query": 126}),
	}, baseline, 0.25)
	if !regressed {
		t.Fatalf("26%% slowdown must fail the gate:\n%s", strings.Join(report, "\n"))
	}
	found := false
	for _, line := range report {
		found = found || strings.HasPrefix(line, "REGRESS BenchmarkServeSuggest ns/query")
	}
	if !found {
		t.Fatalf("report should name the regressed metric:\n%s", strings.Join(report, "\n"))
	}
	// Non-time metrics (allocations etc.) are not gated.
	_, regressed = compareResults([]result{
		res("BenchmarkServeSuggest", map[string]float64{"ns/op": 100, "allocs/op": 1e9}),
	}, []result{
		res("BenchmarkServeSuggest", map[string]float64{"ns/op": 100, "allocs/op": 1}),
	}, 0.25)
	if regressed {
		t.Fatal("allocs/op must not trip the latency gate")
	}
}

func TestCollectFilter(t *testing.T) {
	stream := strings.Join([]string{
		"goos: linux",
		"BenchmarkBatch2DSuggest-8 \t100\t107.1 ns/op\t107.1 ns/query",
		"BenchmarkServeSuggest-8 \t100\t107.1 ns/op\t107.1 ns/query",
		"BenchmarkBatchExactSuggestBatch \t10\t2868775 ns/op\t2868775 ns/query",
		"PASS",
	}, "\n")
	all, _, err := collect(strings.NewReader(stream), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("unfiltered results = %d, want 3", len(all))
	}
	batch, _, err := collect(strings.NewReader(stream), regexp.MustCompile("^BenchmarkBatch"))
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 2 || batch[0].Name != "BenchmarkBatch2DSuggest" || batch[1].Name != "BenchmarkBatchExactSuggestBatch" {
		t.Fatalf("filtered results = %+v", batch)
	}
}

// A `-count 3` stream folds into one result per benchmark holding each
// metric's median, and its header lines become the host.
func TestCollectFoldsRepeatsToMedians(t *testing.T) {
	stream := strings.Join([]string{
		"goos: linux",
		"goarch: amd64",
		"pkg: fairrank",
		"cpu: Example CPU @ 2.00GHz",
		"BenchmarkPatchRepair2D-2 \t100\t30 ns/op\t5 B/op",
		"BenchmarkPatchRebuild2D-2 \t10\t200 ns/op",
		"BenchmarkPatchRepair2D-2 \t90\t10 ns/op\t7 B/op",
		"BenchmarkPatchRepair2D-2 \t120\t20 ns/op\t6 B/op",
		"BenchmarkPatchRebuild2D-2 \t12\t100 ns/op",
		"PASS",
	}, "\n")
	got, host, err := collect(strings.NewReader(stream), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "BenchmarkPatchRepair2D" || got[1].Name != "BenchmarkPatchRebuild2D" {
		t.Fatalf("folded results = %+v, want one per name in first-seen order", got)
	}
	if m := got[0].Metrics; m["ns/op"] != 20 || m["B/op"] != 6 || got[0].Iterations != 100 {
		t.Errorf("odd count: %+v, want medians ns/op 20, B/op 6, iterations 100", got[0])
	}
	if m := got[1].Metrics; m["ns/op"] != 150 || got[1].Iterations != 11 {
		t.Errorf("even count: %+v, want the mean of the middle two", got[1])
	}
	want := map[string]string{"goos": "linux", "goarch": "amd64", "cpu": "Example CPU @ 2.00GHz"}
	if len(host) != len(want) {
		t.Fatalf("host = %v, want %v", host, want)
	}
	for k, v := range want {
		if host[k] != v {
			t.Errorf("host[%s] = %q, want %q", k, host[k], v)
		}
	}
}

// With -count 3, the gate compares medians: one slow repetition passes,
// two of three slow repetitions fail.
func TestCompareResultsMedianOfRepeats(t *testing.T) {
	baseline := []result{res("BenchmarkPatchRepair2D", map[string]float64{"ns/op": 100})}
	run := func(a, b, c float64) bool {
		stream := fmt.Sprintf("BenchmarkPatchRepair2D-2 10 %g ns/op\nBenchmarkPatchRepair2D-2 10 %g ns/op\nBenchmarkPatchRepair2D-2 10 %g ns/op\n", a, b, c)
		cur, _, err := collect(strings.NewReader(stream), nil)
		if err != nil {
			t.Fatal(err)
		}
		report, regressed := compareResults(cur, baseline, 0.25)
		if len(report) != 1 {
			t.Fatalf("repeats must gate once, got report:\n%s", strings.Join(report, "\n"))
		}
		return regressed
	}
	if run(100, 200, 105) {
		t.Error("one slow repetition of three must not fail the gate")
	}
	if !run(140, 100, 150) {
		t.Error("two slow repetitions of three must fail the gate")
	}
}
