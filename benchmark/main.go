// Command benchmark is the repository's benchmark: six workloads that
// drive the MOD stack through its two front doors — the embedded library
// (core.Open, handles, Composition commits, Batch) and the in-process
// RESP server (server.New over a PipeListener) — on both backends (the
// PM simulator and an mmap'd file), verify every result they time against
// a model, reopen a crash image of the store and verify that too, and
// print each metric by name with its unit. BENCHMARK.json at the
// repository root is its contract; README.md in this directory explains
// the workloads, the metrics and how to compare two commits.
//
//	go run ./benchmark -workload lib-map-write -seed 1 -seconds 8 -trace 0
//	go run ./benchmark -seed 1 -out a.json          (all six workloads)
//	go run ./benchmark -trace 1                     (per-layer metrics and span files)
//	go run ./benchmark -compare a.json b.json
//
// The last line of standard output is one JSON object per workload run:
// {"correct", "attempted", "failed", "metrics"}; with -trace 0 the metrics
// are the end-to-end ones, with -trace 1 the per-layer ones. The exit
// code is 0 only if every operation and every read-back was correct.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// nameList is a repeatable string flag.
type nameList []string

func (n *nameList) String() string     { return strings.Join(*n, ",") }
func (n *nameList) Set(s string) error { *n = append(*n, s); return nil }

func main() {
	var names nameList
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	flag.Var(&names, "workload", "workload to run (repeatable; default: all six)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run plus probes")
	seconds := flag.Float64("seconds", 8, "seconds of timed work per workload")
	dir := flag.String("dir", "", "directory for store files, on a disk-backed filesystem (default: benchmark/data)")
	out := flag.String("out", "", "also write the results, with an environment header, to this JSON file")
	compare := flag.String("compare", "", "compare this result file with the one given as argument and exit")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fatal(2, "usage: -compare A.json B.json")
		}
		os.Exit(compareFiles(os.Stdout, *compare, flag.Arg(0), "BENCHMARK.json"))
	}
	if flag.NArg() != 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if len(names) == 0 {
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, n := range names {
		if findWorkload(n) == nil {
			fatal(2, "unknown workload %q", n)
		}
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	e, header, cleanup, err := prepareEnv(*seed, *seconds, *trace == 1, *dir, slices.Contains(names, "lib-map-mmap"))
	if err != nil {
		fatal(2, "%v", err)
	}
	code := run(e, header, names, *out)
	cleanup()
	os.Exit(code)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}

// envHeader records where a result file was measured.
type envHeader struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	FS         string  `json:"fs"`
	Dir        string  `json:"dir"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// prepareEnv creates the run's scratch directory and describes the
// environment. With needDisk it refuses a memory filesystem.
func prepareEnv(seed int64, seconds float64, trace bool, dir string, needDisk bool) (*env, envHeader, func(), error) {
	var h envHeader
	outDir := filepath.Join(dir, "out")
	if dir == "" {
		if _, err := os.Stat("benchmark"); err != nil {
			return nil, h, nil, fmt.Errorf("no benchmark/ directory here: run from the repository root or pass -dir")
		}
		dir, outDir = filepath.Join("benchmark", "data"), filepath.Join("benchmark", "out")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, h, nil, err
	}
	fs, err := fsType(dir)
	if err != nil {
		return nil, h, nil, err
	}
	if needDisk {
		if err := refuseMemoryFS(dir, fs); err != nil {
			return nil, h, nil, err
		}
	}
	tmp, err := os.MkdirTemp(dir, "run-")
	if err != nil {
		return nil, h, nil, err
	}
	commit := "unknown"
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(b))
	}
	h = envHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		FS: fs, Dir: dir, Commit: commit, Seed: seed, Seconds: seconds, Trace: trace,
	}
	e := &env{seed: seed, seconds: seconds, trace: trace, dir: tmp, outDir: outDir}
	return e, h, func() { os.RemoveAll(tmp) }, nil
}

// metricOut is one metric in the result line and in -out files.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's one-line result of one workload.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// resultRow is one workload in a -out file.
type resultRow struct {
	Workload string `json:"workload"`
	resultLine
	Extra   map[string]metricOut `json:"extra,omitempty"`
	Samples map[string]int       `json:"samples,omitempty"` // latency samples behind each timing metric
	Notes   []string             `json:"notes,omitempty"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       envHeader   `json:"env"`
	Workloads []resultRow `json:"workloads"`
}

// row shapes a report for output: the end-to-end metrics of an untraced
// run or the per-layer metrics of a traced one, every one present.
func row(rep *report, trace bool) resultRow {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	r := resultRow{Workload: rep.workload, Samples: rep.samples, Notes: rep.notes}
	r.Correct, r.Attempted, r.Failed = rep.failed == 0, rep.attempted, rep.failed
	r.Metrics = make(map[string]metricOut, len(defs))
	for _, d := range defs {
		r.Metrics[d.name] = metricOut{Value: rep.values[d.name], Unit: d.unit}
	}
	if !trace {
		rep.set("fail_frac", float64(rep.failed)/float64(max(rep.attempted, 1)))
		r.Extra = make(map[string]metricOut, len(extras))
		for _, d := range extras {
			r.Extra[d.name] = metricOut{Value: rep.values[d.name], Unit: d.unit}
		}
	}
	return r
}

// printRow prints one workload's metrics by name with their units.
func printRow(r resultRow, trace bool) {
	fmt.Printf("== %s: attempted %d, failed %d\n", r.Workload, r.Attempted, r.Failed)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("  %-32s %16.6g %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
	for _, d := range extras {
		if m, ok := r.Extra[d.name]; ok {
			fmt.Printf("  %-32s %16.6g %s\n", d.name, m.Value, d.unit)
		}
	}
	for _, n := range r.Notes {
		fmt.Printf("  # %s\n", n)
	}
}

// exitCode is 1 if any workload had a failed or unverifiable operation.
func exitCode(rows []resultRow) int {
	for _, r := range rows {
		if !r.Correct {
			return 1
		}
	}
	return 0
}

// run runs the named workloads, prints them, and returns the exit code.
func run(e *env, header envHeader, names []string, out string) int {
	mode := "untraced"
	if e.trace {
		mode = "traced"
	}
	fmt.Printf("benchmark: seed %d, %.3g s per workload, %s; nproc %d, GOMAXPROCS %d, %s, data on %s (%s), commit %s\n",
		e.seed, e.seconds, mode, header.NProc, header.GOMAXPROCS, header.Go, header.Dir, header.FS, header.Commit)
	file := resultFile{Env: header}
	for _, n := range names {
		rep, err := findWorkload(n).run(e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
			return 2
		}
		r := row(rep, e.trace)
		printRow(r, e.trace)
		file.Workloads = append(file.Workloads, r)
	}
	code := exitCode(file.Workloads)
	if out != "" {
		buf, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: write %s: %v\n", out, err)
			return 2
		}
	}
	for _, r := range file.Workloads {
		line, err := json.Marshal(r.resultLine)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 2
		}
		fmt.Println(string(line))
	}
	return code
}
