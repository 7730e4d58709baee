// Command perfbench is fairrank's end-to-end benchmark. It hosts fairrankd
// servers (fairrank.Server, configured as cmd/fairrankd configures them) in
// its own process, drives them over loopback HTTP with one of three seeded
// workloads, checks the answers against in-process designers built from the
// same inputs, and prints the end-to-end metrics. With --trace 1 it also
// replays the run's ops at the handler, Server and Designer layers and
// prints the per-layer metrics instead. Run it from the repository root
// through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload loop-2d --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 20   # two sets of ten runs per workload
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured phase, in seconds")
	trace := flag.Int("trace", 0, "1: replay the run at every layer and print per-layer metrics")
	steady := flag.Int("steady", 0, "run each workload this many times in each of two sets, with distinct seeds, and print the spread")
	flag.Parse()
	if err := checkRoot(); err != nil {
		fail(err)
	}
	if *steady > 0 {
		if err := runSteady(*steady, *seconds, *seed, *workload); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	out, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fail(err)
	}
	fmt.Println(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// checkRoot refuses to run anywhere but the root of a fairrank checkout: the
// benchmark measures that tree's code and writes only under its
// .bench_build directory.
func checkRoot() error {
	raw, err := os.ReadFile("go.mod")
	if err != nil || !strings.HasPrefix(string(raw), "module fairrank\n") {
		return fmt.Errorf("run from the root of the fairrank repository (no fairrank go.mod here)")
	}
	return nil
}

// run executes one workload and returns the result line.
func run(workload string, seed int64, seconds int, traced bool) (string, error) {
	say := func(format string, args ...any) { fmt.Printf("# "+format+"\n", args...) }
	say("perfbench workload=%s seed=%d seconds=%d trace=%v", workload, seed, seconds, traced)
	say("why: %s", workloadWhy[workload])
	say("host nproc=%d GOMAXPROCS=%d go=%s commit=%s tree=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit(), treeHash())
	p, err := newPlan(workload, seed, seconds)
	if err != nil {
		return "", err
	}
	t := time.Now()
	exp, err := buildExpected(p)
	if err != nil {
		return "", err
	}
	say("reference designers built and answered in %.2fs (outside every timed phase)", time.Since(t).Seconds())
	say("inputs: %d node(s), %d dataset(s), %d designer(s), ops digest %s", p.nodes, len(p.datasets), len(p.designers), digest(p.streams(), p.batches))
	for i, d := range p.designers {
		ds := p.datasets[d.dataset].ds
		say("designer %s: %s engine (%s), n=%d d=%d on node-%d", d.id, d.engine, d.spec.Config.Mode, ds.N(), ds.D(), p.owners[i])
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid())))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(work)

	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	r, res, err := runPlain(p, exp, work, spans)
	if err != nil {
		return "", err
	}
	for _, line := range res.report {
		say("%s", line)
	}
	for _, m := range res.metrics {
		say("e2e %s = %.4f %s", m.name, m.value, m.unit)
	}
	metrics := res.metrics
	if traced {
		layers, err := perLayer(p, r, spans, work)
		if err != nil {
			return "", err
		}
		for _, m := range layers {
			say("layer %s = %.4f %s", m.name, m.value, m.unit)
		}
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
		if err := spans.write(path); err != nil {
			return "", err
		}
		say("spans written to %s", path)
		metrics = layers
	}
	return resultLine(res, metrics)
}

func resultLine(res *result, metrics []metric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(metrics))
	for _, x := range metrics {
		if math.IsNaN(x.value) || math.IsInf(x.value, 0) {
			return "", fmt.Errorf("metric %s is %v", x.name, x.value)
		}
		m[x.name] = value{x.value, x.unit}
	}
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, m})
	return string(out), err
}

// commit is the VCS revision the binary was built from, when the build saw
// a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// treeHash fingerprints the Go sources under measurement, which identifies
// the code even where the checkout is not a git repository.
func treeHash() string {
	var paths []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil))[:12]
}
