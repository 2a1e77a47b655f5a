// Benchdiff is the CI performance-regression gate. It compares a fresh
// BENCH.json (written by modbench -bench) against the committed baseline
// row by row, by key, under each row's gate class
// (harness.CompareBenchDocs), and exits nonzero naming the offending
// rows:
//
//   - exact and ratio rows fail when ops/sec dropped — or fences/op,
//     flushes/op, copies/op or recovery_ns rose — by more than the
//     tolerance. The single-goroutine sweeps (the Table 2 suite on every
//     engine, group commit, transient, selective and recovery, and the
//     sequentially executed sharded sweep) are fully deterministic in
//     simulated time, so any drift is a real code-path change, not
//     measurement noise.
//   - floor rows (the contention sweep's cas rows, whose values depend on
//     how goroutines interleave) are held to absolute floors; nothing is
//     read from the baseline.
//   - info rows (server, mmap, concurrent, the async and parallel
//     variants) are reported and never compared.
//
// A baseline row missing from the current report fails. So does a gated
// row the baseline lacks: a new row carries no gate until the baseline
// is regenerated. Pass -allow-new to downgrade that failure to a warning
// (e.g. on the PR that introduces the row).
//
// Usage:
//
//	benchdiff [-baseline BENCH_baseline.json] [-current BENCH.json] [-tolerance 0.15] [-allow-new] [-exact-ordering]
//
// -exact-ordering additionally enforces the DESIGN.md §13 neutrality
// contract: the raw op, fence and flush counts of every exact row must
// be bit-identical to the baseline. Node checksums ride inside each
// FASE's existing flush+fence envelope, so any count drift — even inside
// the tolerance — is an ordering-path change that must be intentional
// (and re-baselined). go test ./internal/harness runs the same check
// (TestBaselineExactOrdering).
//
// After an intentional performance change, regenerate the baseline with
// the command CI builds its report with, pointed at the baseline,
//
//	go run ./cmd/modbench -scale small -backend mmap -bench BENCH_baseline.json
//
// and commit it alongside the change (modbench leaves informational rows
// out of a file of that name, so -backend does not change its contents).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/mod-ds/mod/internal/harness"
)

func main() {
	baseline := flag.String("baseline", harness.BaselineFile, "committed baseline report")
	current := flag.String("current", "BENCH.json", "freshly generated report")
	tolerance := flag.Float64("tolerance", 0.15, "allowed fractional regression before failing")
	allowNew := flag.Bool("allow-new", false, "warn instead of failing on rows missing from the baseline")
	exactOrdering := flag.Bool("exact-ordering", false,
		"require bit-identical op/fence/flush counts on exact rows (checksum neutrality gate)")
	flag.Parse()

	base, err := harness.ReadBenchDoc(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: baseline: %v\n", err)
		os.Exit(2)
	}
	cur, err := harness.ReadBenchDoc(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: current: %v\n", err)
		os.Exit(2)
	}
	if base.Scale != cur.Scale || base.Ops != cur.Ops {
		fmt.Fprintf(os.Stderr, "benchdiff: scale mismatch: baseline %s/%d ops vs current %s/%d ops\n",
			base.Scale, base.Ops, cur.Scale, cur.Ops)
		os.Exit(2)
	}

	regressions, fresh := harness.CompareBenchDocs(base, cur, *tolerance, *exactOrdering)
	if len(fresh) > 0 && *allowNew {
		fmt.Fprintf(os.Stderr, "benchdiff: warning: %d row(s) not in baseline (ungated until it is regenerated): %s\n",
			len(fresh), strings.Join(fresh, ", "))
		fresh = nil
	}
	gated := len(base.Gated().Rows)
	if len(regressions) == 0 && len(fresh) == 0 {
		fmt.Printf("benchdiff: OK — %d gated rows within %.0f%% of baseline\n", gated, *tolerance*100)
		return
	}
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d regression(s) vs %s:\n", len(regressions), *baseline)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		fmt.Fprintf(os.Stderr, "offending rows: %s\n", strings.Join(offendingRows(regressions), ", "))
	}
	if len(fresh) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d row(s) in current report but not in %s: %s\n",
			len(fresh), *baseline, strings.Join(fresh, ", "))
		fmt.Fprintln(os.Stderr, "new rows are ungated; regenerate the baseline or rerun with -allow-new")
	}
	os.Exit(1)
}

// offendingRows extracts the distinct row keys (the "workload/engine" or
// "sweep/bN" prefix of each regression message), preserving order.
func offendingRows(regressions []string) []string {
	var rows []string
	seen := map[string]bool{}
	for _, r := range regressions {
		row := r
		if i := strings.Index(r, ": "); i > 0 {
			row = r[:i]
		}
		if !seen[row] {
			seen[row] = true
			rows = append(rows, row)
		}
	}
	return rows
}
