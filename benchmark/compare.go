package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// contract is the part of BENCHMARK.json that -compare needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints, per workload and end-to-end metric, the values of
// result files a and b, their relative difference and the metric's bound
// from the contract, and returns 1 if any pair on one of the contract's
// workloads differs by more than its bound (2 if the files cannot be
// compared). Other workloads are shown, marked, and decide nothing. Two sets of runs of one
// commit must pass it; for a parent-versus-change comparison the sign of
// the difference says which way the metric moved.
func compareFiles(w io.Writer, a, b, contractPath string) int {
	var fa, fb resultFile
	var c contract
	for path, v := range map[string]any{a: &fa, b: &fb, contractPath: &c} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: compare: %v\n", err)
			return 2
		}
	}
	gated := make(map[string]bool)
	for _, wl := range c.Workloads {
		gated[wl.Name] = true
	}
	rowsB := make(map[string]resultRow)
	for _, r := range fb.Workloads {
		rowsB[r.Workload] = r
	}
	fmt.Fprintf(w, "A: %s (seed %d, commit %s)\nB: %s (seed %d, commit %s)\n", a, fa.Env.Seed, fa.Env.Commit, b, fb.Env.Seed, fb.Env.Commit)
	fmt.Fprintf(w, "%-16s %-16s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	code := 0
	for _, ra := range fa.Workloads {
		rb, ok := rowsB[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from B\n", ra.Workload)
			code = 1
			continue
		}
		for _, m := range c.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			diff := 0.0
			if va != vb {
				diff = (vb - va) / math.Abs(va)
			}
			verdict := ""
			if math.Abs(diff) > m.Bound || math.IsNaN(diff) {
				if gated[ra.Workload] {
					verdict = "  DIFFERS"
					code = 1
				} else {
					verdict = "  differs (not a workload of the contract)"
				}
			}
			fmt.Fprintf(w, "%-16s %-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", ra.Workload, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-16s a run was not correct (A failed %d, B failed %d)\n", ra.Workload, ra.Failed, rb.Failed)
			code = 1
		}
	}
	return code
}
