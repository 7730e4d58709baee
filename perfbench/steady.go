package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the steadiness mode judges by.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type runLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// runSteady runs each workload n times in each of two sets, every run in its
// own process with its own seed, and judges the runs by the acceptance rule
// the benchmark is held to. Per metric it prints each set's median,
// quartiles and spread (interquartile distance over the median) and how far
// the second set's median moved from the first's. A metric passes when each
// set's spread stays within its bound and the second median is not worse
// than the first by more than the bound. setup_s is held to the second test
// only: its bound guards later changes against work moved into set-up,
// which the comparison of medians catches, and the rule exempts its spread.
// A spread above a third of the bound passes but is marked: that is the
// margin a steady metric keeps.
//
// The sets are interleaved (run i of set 1, then run i of set 2), as the
// runs of two commits are when a change is compared with its parent, so a
// slow drift of the machine's speed moves both sets alike instead of
// showing up as a shift between them.
func runSteady(n, seconds int, seed int64, only string) error {
	const sets = 2
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		var values [sets]map[string][]float64
		for set := range values {
			values[set] = make(map[string][]float64)
		}
		for i := 0; i < n; i++ {
			for set := 0; set < sets; set++ {
				s := seed + int64(set*n+i)
				line, err := runChild(self, w.Name, s, seconds)
				if err != nil {
					return err
				}
				if !line.Correct || line.Failed > 0 {
					ok = false
					fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", w.Name, s, line.Correct, line.Failed, line.Attempted)
				}
				for name, m := range line.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
				var vals []string
				for _, m := range spec.EndToEnd {
					vals = append(vals, fmt.Sprintf("%s=%.4g", m.Name, line.Metrics[m.Name].Value))
				}
				fmt.Printf("run %s set %d seed %d: %s\n", w.Name, set+1, s, strings.Join(vals, " "))
			}
		}
		fmt.Printf("== %s: %d runs per set, %d sets interleaved, %ds each\n", w.Name, n, sets, seconds)
		for _, m := range spec.EndToEnd {
			var cols []string
			pass, margin := true, true
			for set := range values {
				xs := values[set][m.Name]
				q1, q2, q3 := quartiles(xs)
				sp := spread(xs)
				cols = append(cols, fmt.Sprintf("set%d median %.4g q1 %.4g q3 %.4g spread %.3f", set+1, q2, q1, q3, sp))
				if m.Name != "setup_s" {
					pass = pass && sp <= m.Bound
					margin = margin && sp <= m.Bound/3
				}
			}
			a, b := median(values[0][m.Name]), median(values[1][m.Name])
			worse := (b - a) / math.Abs(a)
			if m.Better == "higher" {
				worse = -worse
			}
			cols = append(cols, fmt.Sprintf("second worse by %+.3f", worse))
			pass = pass && worse <= m.Bound
			verdict := "ok"
			switch {
			case !pass:
				verdict, ok = "FAIL", false
			case !margin:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("%-16s bound %.2f  %s  %s\n", m.Name, m.Bound, strings.Join(cols, "  "), verdict)
		}
	}
	if !ok {
		return fmt.Errorf("not steady within the bounds of BENCHMARK.json")
	}
	return nil
}

// runChild runs one workload in a child process and parses its last line.
func runChild(self, workload string, seed int64, seconds int) (runLine, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return runLine{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	last := lines[len(lines)-1]
	for _, l := range lines {
		if strings.HasPrefix(l, "# failure:") {
			fmt.Printf("%s seed %d %s\n", workload, seed, l)
		}
	}
	var line runLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return runLine{}, fmt.Errorf("%s seed %d: last line %q: %w", workload, seed, last, err)
	}
	return line, nil
}
