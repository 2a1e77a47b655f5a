// Modbench regenerates the tables and figures of the MOD paper's
// evaluation (§6) from the simulated system, plus this repo's extension
// sweeps. Run it with -h for the usage and the experiment names, which
// are generated from the harness registry.
//
// Without -experiment it runs everything. -shards N restricts the
// sharded experiment's shard sweep to the single given count (the full
// sweep is S ∈ {1,2,4,8}).
//
// With -bench FILE, modbench instead runs every sweep of the registry
// once and writes their measurement rows — the same rows the tables
// render — as a machine-readable JSON report (key, ops, fences, flushes,
// elapsed ns per row), so the performance trajectory can be tracked
// across commits; cmd/benchdiff gates CI on it. -backend mmap adds the
// wall-clock mmapdev sweep (the same structures over a file-backed
// store). Informational rows (wall-clock or schedule-dependent: server,
// mmap, concurrent) are written to the report and never compared; when
// FILE is named BENCH_baseline.json they are left out, so the committed
// baseline holds gated rows only.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/mod-ds/mod/internal/harness"
)

// usage prints the command line and the experiment names, which come
// from the harness registry so the list cannot drift from what runs.
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(),
		"usage: modbench [-experiment name] [-scale default|full|small] [-ops N] [-shards N] [-csv dir] [-bench file] [-backend sim|mmap]\n\nexperiments: %s\n\n",
		strings.Join(harness.Experiments, ", "))
	flag.PrintDefaults()
}

func main() {
	flag.Usage = usage
	experiment := flag.String("experiment", "", "experiment to run (default: all)")
	scaleName := flag.String("scale", "default", "default | full (paper scale, minutes) | small")
	ops := flag.Int("ops", 0, "override operations per workload")
	shards := flag.Int("shards", 0, "restrict the sharded experiment's sweep to this shard count")
	csvDir := flag.String("csv", "", "also write each table as CSV into this directory")
	benchFile := flag.String("bench", "", "write a machine-readable BENCH.json to this path instead of rendering tables")
	backend := flag.String("backend", "sim", "sim | mmap (also run the wall-clock mmapdev sweep; its rows are informational, never gated)")
	flag.Parse()

	switch *backend {
	case "sim", "mmap":
		harness.BenchBackend = *backend
	default:
		fmt.Fprintf(os.Stderr, "modbench: unknown backend %q\n", *backend)
		os.Exit(2)
	}

	var scale harness.Scale
	switch *scaleName {
	case "default":
		scale = harness.DefaultScale()
	case "full":
		scale = harness.FullScale()
	case "small":
		scale = harness.SmallScale()
	default:
		fmt.Fprintf(os.Stderr, "modbench: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *ops > 0 {
		scale.Ops = *ops
		scale.VectorPreload = *ops
		scale.Table3N = *ops
	}
	if *shards > 0 {
		harness.ShardedShardCounts = []int{*shards}
		if *shards > 1 {
			harness.ShardedCrossShardCounts = []int{*shards}
		} else {
			harness.ShardedCrossShardCounts = nil
		}
	}

	if *benchFile != "" {
		if err := writeBench(*benchFile, *scaleName, scale); err != nil {
			fmt.Fprintf(os.Stderr, "modbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	emit := func(tab *harness.Table) error {
		tab.Render(os.Stdout)
		if *csvDir == "" {
			return nil
		}
		return writeCSV(*csvDir, tab)
	}
	var err error
	if *experiment == "" {
		err = harness.RunAll(scale, emit)
	} else {
		var tab *harness.Table
		if tab, err = harness.Run(*experiment, scale); err == nil {
			err = emit(tab)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "modbench: %v\n", err)
		os.Exit(1)
	}
}

func writeCSV(dir string, tab *harness.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tab.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	tab.CSV(f)
	return nil
}

func writeBench(path, scaleName string, scale harness.Scale) error {
	doc, err := harness.BuildBenchDoc(scaleName, scale)
	if err != nil {
		return err
	}
	total := len(doc.Rows)
	if filepath.Base(path) == harness.BaselineFile {
		doc = doc.Gated()
	}
	if err := harness.WriteBenchDoc(doc, path); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows", path, len(doc.Rows))
	if left := total - len(doc.Rows); left > 0 {
		fmt.Printf("; %d informational rows left out of the baseline", left)
	}
	fmt.Println(")")
	return nil
}
