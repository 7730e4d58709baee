// Command benchjson converts `go test -bench` output on stdin into a JSON
// document, so CI can archive benchmark series (e.g. BENCH_serve.json with
// the Suggest vs SuggestBatch ns/query trajectory, or BENCH_batch.json with
// the per-engine batch kernels) without external tooling.
//
// Usage:
//
//	go test -run '^$' -bench BenchmarkServe . | go run ./cmd/benchjson -o BENCH_serve.json
//	go test -run '^$' -bench . . | go run ./cmd/benchjson -filter '^BenchmarkBatch' -o BENCH_batch.json
//	go test -run '^$' -bench BenchmarkServe . | go run ./cmd/benchjson -compare BENCH_serve.json -max-regress 0.25
//
// Unparseable lines are ignored, so the raw `go test` stream can be piped in
// unfiltered; -filter keeps only benchmarks whose name matches the regexp,
// so one bench run can feed several archives. Repeated lines of one
// benchmark (a `-count` run) fold into one result holding the per-metric
// medians before anything is archived or compared. The stream's `goos:`,
// `goarch:` and `cpu:` header lines are archived as the document's host.
//
// With -compare, the parsed results are checked against a previously
// archived baseline: the CI perf-regression gate. For every benchmark
// present in both sets, each time metric (ns/op, ns/query — lower is
// better) must not exceed the baseline by more than -max-regress
// (fractional; 0.25 = 25% slower). Any regression prints a report and exits
// non-zero, failing the job. Benchmarks missing from either side are
// reported but do not fail, so filters and newly added benchmarks don't
// break the gate. The report names the baseline's host, which does not gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// result is one benchmark line: the name (GOMAXPROCS suffix stripped), the
// iteration count, and every reported metric (ns/op plus custom ones like
// ns/query).
type result struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	name := fields[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: name, Iterations: iters, Metrics: map[string]float64{}}
	// The remainder alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return result{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	return r, len(r.Metrics) > 0
}

// hostKeys are the `go test -bench` header lines that describe the machine.
var hostKeys = []string{"goos", "goarch", "cpu"}

// collect parses a `go test -bench` stream, keeping the benchmarks whose
// name matches keep (nil keeps everything), folded by name (see fold), and
// the host the stream's header lines describe.
func collect(in io.Reader, keep *regexp.Regexp) ([]result, map[string]string, error) {
	var results []result
	host := map[string]string{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if k, v, ok := strings.Cut(line, ":"); ok && slices.Contains(hostKeys, k) {
			host[k] = strings.TrimSpace(v)
			continue
		}
		if r, ok := parseLine(line); ok && (keep == nil || keep.MatchString(r.Name)) {
			results = append(results, r)
		}
	}
	return fold(results), host, sc.Err()
}

// fold merges the repeated lines of each benchmark into one result, in the
// order names first appear: the iteration count and every metric become the
// median over the repetitions that report it. One noisy repetition of a
// `-count 3` run then neither fails the gate nor lands in an archive.
func fold(results []result) []result {
	var names []string
	reps := map[string][]result{}
	for _, r := range results {
		if _, ok := reps[r.Name]; !ok {
			names = append(names, r.Name)
		}
		reps[r.Name] = append(reps[r.Name], r)
	}
	out := make([]result, 0, len(names))
	for _, name := range names {
		var iters []float64
		values := map[string][]float64{}
		for _, r := range reps[name] {
			iters = append(iters, float64(r.Iterations))
			for m, v := range r.Metrics {
				values[m] = append(values[m], v)
			}
		}
		f := result{Name: name, Iterations: int64(math.Round(median(iters))), Metrics: map[string]float64{}}
		for m, vs := range values {
			f.Metrics[m] = median(vs)
		}
		out = append(out, f)
	}
	return out
}

// median of a non-empty sample; the mean of the middle two for even sizes.
func median(v []float64) float64 {
	s := slices.Sorted(slices.Values(v))
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// hostLine renders a host map for the report.
func hostLine(host map[string]string) string {
	var parts []string
	for _, k := range hostKeys {
		if v, ok := host[k]; ok {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return "unknown"
	}
	return strings.Join(parts, " ")
}

// timeMetrics are the lower-is-better metrics the regression gate checks.
// Throughput-style metrics would need the opposite comparison, and B/op or
// allocs/op jitter with compiler versions; latency is what the archives
// track, so latency is what the gate enforces.
var timeMetrics = []string{"ns/op", "ns/query"}

// compareResults checks current against baseline: for each benchmark and
// time metric present in both, the current value may exceed the baseline by
// at most maxRegress (fractional). It returns a human-readable report and
// whether any benchmark regressed.
func compareResults(current, baseline []result, maxRegress float64) (report []string, regressed bool) {
	base := make(map[string]result, len(baseline))
	for _, r := range baseline {
		base[r.Name] = r
	}
	seen := make(map[string]bool, len(current))
	for _, cur := range current {
		seen[cur.Name] = true
		b, ok := base[cur.Name]
		if !ok {
			report = append(report, fmt.Sprintf("NEW     %s: not in baseline (will be gated once archived)", cur.Name))
			continue
		}
		for _, metric := range timeMetrics {
			cv, cok := cur.Metrics[metric]
			bv, bok := b.Metrics[metric]
			if !cok || !bok || bv <= 0 {
				continue
			}
			ratio := cv/bv - 1
			line := fmt.Sprintf("%s %s: %.4g → %.4g (%+.1f%%, limit +%.0f%%)",
				cur.Name, metric, bv, cv, 100*ratio, 100*maxRegress)
			if ratio > maxRegress {
				report = append(report, "REGRESS "+line)
				regressed = true
			} else {
				report = append(report, "ok      "+line)
			}
		}
	}
	for _, b := range baseline {
		if !seen[b.Name] {
			report = append(report, fmt.Sprintf("MISSING %s: in baseline but not in this run", b.Name))
		}
	}
	return report, regressed
}

// archive is the JSON document benchjson writes and -compare reads back.
type archive struct {
	Host       map[string]string `json:"host,omitempty"`
	Benchmarks []result          `json:"benchmarks"`
}

// loadBaseline reads a benchjson archive back in.
func loadBaseline(path string) (archive, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return archive{}, err
	}
	var doc archive
	if err := json.Unmarshal(raw, &doc); err != nil {
		return archive{}, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	return doc, nil
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	filter := flag.String("filter", "", "keep only benchmarks whose name matches this regexp")
	compare := flag.String("compare", "", "baseline benchjson file to gate against (exits 1 on regression)")
	maxRegress := flag.Float64("max-regress", 0.25, "with -compare: allowed fractional slowdown per time metric")
	flag.Parse()

	var keep *regexp.Regexp
	if *filter != "" {
		var err error
		if keep, err = regexp.Compile(*filter); err != nil {
			log.Fatalf("bad -filter: %v", err)
		}
	}
	results, host, err := collect(os.Stdin, keep)
	if err != nil {
		log.Fatal(err)
	}
	if *compare != "" {
		baseline, err := loadBaseline(*compare)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("host    baseline: %s; this run: %s\n", hostLine(baseline.Host), hostLine(host))
		report, regressed := compareResults(results, baseline.Benchmarks, *maxRegress)
		for _, line := range report {
			fmt.Println(line)
		}
		if regressed {
			log.Fatalf("perf-regression gate failed against %s", *compare)
		}
		log.Printf("perf-regression gate passed against %s (%d benchmark(s))", *compare, len(results))
		if *out == "" {
			return
		}
	}
	doc, err := json.MarshalIndent(archive{Host: host, Benchmarks: results}, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	doc = append(doc, '\n')
	if *out == "" {
		fmt.Print(string(doc))
		return
	}
	if err := os.WriteFile(*out, doc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d benchmark(s) to %s", len(results), *out)
}
