package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/cachesim"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/workloads"
)

// Table1 prints the simulated machine model (paper Table 1 analogue).
func Table1() *Table {
	cfg := pmem.DefaultConfig(1)
	t := &Table{
		ID:     "table1",
		Title:  "Simulated machine configuration (paper Table 1)",
		Note:   "Substituted hardware: the device model uses the paper's own measured latencies and Amdahl fit.",
		Header: []string{"parameter", "value", "paper"},
	}
	t.AddRow("L1D cache", fmt.Sprintf("%d KB, %d-way, %d B lines", cachesim.SizeBytes>>10, cachesim.Ways, cachesim.LineSize), "32KB Dcache")
	t.AddRow("PM read latency (L1 miss)", fmt.Sprintf("%.0f ns", cfg.PMReadNs), "302 ns random 8B read")
	t.AddRow("clwb+sfence latency", fmt.Sprintf("%.0f ns", cfg.FlushLatencyNs), "353 ns (§3)")
	t.AddRow("flush parallel fraction", f2(cfg.FlushParallelFrac), "0.82 (Karp-Flatt fit, Fig. 4)")
	t.AddRow("flush concurrency cap", fmt.Sprintf("%d", cfg.FlushMaxConcurrency), "no gain beyond 32 (§3)")
	t.AddRow("clwb issue cost", fmt.Sprintf("%.0f ns", cfg.ClwbIssueNs), "commits instantly (Fig. 3)")
	return t
}

// Table2 prints the workload registry (paper Table 2 analogue).
func Table2() *Table {
	t := &Table{
		ID:     "table2",
		Title:  "Benchmarks (paper Table 2)",
		Header: []string{"benchmark", "description", "configuration"},
	}
	t.AddRow("map", "insert/lookup random keys in map", "8B key, 32B value")
	t.AddRow("set", "insert/lookup random keys in set", "8B key")
	t.AddRow("stack", "push/pop elements from top of stack", "8B elements")
	t.AddRow("queue", "enqueue/dequeue elements in queue", "8B elements")
	t.AddRow("vector", "update/read random indices in vector", "8B elements")
	t.AddRow("vec-swap", "swap two random elements in vector", "8B elements (canneal kernel)")
	t.AddRow("bfs", "BFS with recoverable queue on R-MAT graph", "Flickr scale: 0.82M nodes, 9.84M edges")
	t.AddRow("vacation", "travel reservations, four recoverable maps", "55% reservations, CommitSiblings")
	t.AddRow("memcached", "KV store over one recoverable map", "95% sets, 5% gets, 16B key, 512B value")
	return t
}

// Fig2 reports the fraction of execution time spent logging and flushing
// under PMDK v1.5 for every workload (paper Fig. 2).
func Fig2(scale Scale) (*Table, error) {
	workloads.SetVectorPreload(scale.VectorPreload)
	t := &Table{
		ID:     "fig2",
		Title:  "Fraction of execution time in flushing/logging, PMDK v1.5 (paper Fig. 2)",
		Note:   "Paper: ~64% flushing, ~9% logging on average.",
		Header: []string{"workload", "other", "flush", "log", "sim-ms"},
	}
	var flushSum, logSum float64
	for _, name := range workloads.Names {
		res, err := workloads.Run(name, workloads.EnginePMDK15, workloads.Config{Ops: scale.Ops})
		if err != nil {
			return nil, err
		}
		t.AddRow(name, pct(res.Frac("other_ns")), pct(res.FlushFrac()), pct(res.LogFrac()), ms(res.ElapsedNs))
		flushSum += res.FlushFrac()
		logSum += res.LogFrac()
	}
	n := float64(len(workloads.Names))
	t.AddRow("average", pct(1-flushSum/n-logSum/n), pct(flushSum/n), pct(logSum/n), "")
	return t, nil
}

// Fig4 reports average flush latency against flush concurrency, the
// Amdahl-model prediction, and the Karp-Flatt serial fraction implied by
// the observations (paper Fig. 4 and the §3 microbenchmark: 320 dirty
// lines, a fence every N clwbs).
func Fig4() *Table {
	t := &Table{
		ID:     "fig4",
		Title:  "Average PM flush latency vs concurrency (paper Fig. 4)",
		Note:   "Paper: 353 ns un-overlapped; 16 concurrent flushes ~75% faster; plateau past 32.",
		Header: []string{"concurrency", "observed-ns", "model-ns", "speedup", "karp-flatt-serial"},
	}
	const lines = 320
	var base float64
	for _, conc := range []int{1, 2, 4, 8, 16, 24, 32} {
		dev := pmem.New(pmem.DefaultConfig(lines*pmem.LineSize + 4096))
		for i := 0; i < lines; i++ {
			dev.WriteU64(pmem.Addr(i*pmem.LineSize), uint64(i))
		}
		start := dev.Clock()
		for i := 0; i < lines; i++ {
			dev.Clwb(pmem.Addr(i * pmem.LineSize))
			if (i+1)%conc == 0 {
				dev.Sfence()
			}
		}
		if lines%conc != 0 {
			dev.Sfence()
		}
		observed := (dev.Clock() - start) / lines
		model := dev.FenceStallNs(conc)/float64(conc) + dev.Config().ClwbIssueNs
		if conc == 1 {
			base = observed
			t.AddRow("1", f1(observed), f1(model), "1.00", "-")
			continue
		}
		speedup := base / observed
		// Karp-Flatt serial fraction: e = (1/ψ − 1/p) / (1 − 1/p).
		p := float64(conc)
		e := (1/speedup - 1/p) / (1 - 1/p)
		t.AddRow(fmt.Sprintf("%d", conc), f1(observed), f1(model), f2(speedup), f3(e))
	}
	return t
}

// fig9 reports execution time for every workload and engine, normalized
// to PMDK v1.5, with the other/flush/log breakdown (paper Fig. 9) and the
// flush and fence counts behind it. Its rows — the Table 2 suite run
// single-threaded on every engine — are the "workload/engine" rows of
// BENCH.json.
func fig9(scale Scale) (*Table, []workloads.Row, error) {
	workloads.SetVectorPreload(scale.VectorPreload)
	t := &Table{
		ID:    "fig9",
		Title: "Execution time by engine, normalized to PMDK v1.5 (paper Fig. 9)",
		Note: "Paper: MOD speeds up map/set/queue/stack by ~43%, applications by ~36%, " +
			"and slows vector/vec-swap down (tree vs flat array). Here a vector leaf is one cache line " +
			"(8 elements, not the evaluated tree's 32): MOD still flushes more lines than PMDK on both vector rows " +
			"under a third of the fences; with one-line 12-way interior nodes (heap layout v18) " +
			"MOD wins them at every scale, the paper's million elements too (DESIGN.md §2).",
		Header: []string{"workload", "engine", "sim-ms", "norm", "other", "flush", "log", "flushes", "fences"},
	}
	var rows []workloads.Row
	var geoMicro, geoApp float64
	var nMicro, nApp int
	for _, name := range workloads.Names {
		results := map[workloads.Engine]workloads.Row{}
		for _, engine := range workloads.Engines {
			res, err := workloads.Run(name, engine, workloads.Config{Ops: scale.Ops})
			if err != nil {
				return nil, nil, err
			}
			results[engine] = res.Row
			rows = append(rows, res.Row)
		}
		baseline := results[workloads.EnginePMDK15].ElapsedNs
		for _, engine := range workloads.Engines {
			res := results[engine]
			t.AddRow(name, engine.String(), ms(res.ElapsedNs), f2(res.ElapsedNs/baseline),
				pct(res.Frac("other_ns")), pct(res.Frac("flush_ns")), pct(res.Frac("log_ns")),
				fmt.Sprint(res.Flushes), fmt.Sprint(res.Fences))
		}
		speed := results[workloads.EngineMOD].ElapsedNs / baseline
		switch name {
		case "map", "set", "queue", "stack":
			geoMicro += speed
			nMicro++
		case "bfs", "vacation", "memcached":
			geoApp += speed
			nApp++
		}
	}
	if nMicro > 0 && nApp > 0 {
		t.Note += fmt.Sprintf(" Measured: MOD mean %.0f%% faster on pointer microbenchmarks, %.0f%% on applications.",
			100*(1-geoMicro/float64(nMicro)), 100*(1-geoApp/float64(nApp)))
	}
	return t, rows, nil
}

// Fig11 reports L1D miss ratios per workload for PMDK v1.5 and MOD
// (paper Fig. 11).
func Fig11(scale Scale) (*Table, error) {
	workloads.SetVectorPreload(scale.VectorPreload)
	t := &Table{
		ID:     "fig11",
		Title:  "L1D cache miss ratios (paper Fig. 11)",
		Note:   "Paper: MOD map/set/vector show 2.8-4.6x the misses of PMDK; stack/queue/bfs comparable.",
		Header: []string{"workload", "pmdk-v1.5", "mod", "mod/pmdk"},
	}
	for _, name := range workloads.Names {
		pm, err := workloads.Run(name, workloads.EnginePMDK15, workloads.Config{Ops: scale.Ops})
		if err != nil {
			return nil, err
		}
		mod, err := workloads.Run(name, workloads.EngineMOD, workloads.Config{Ops: scale.Ops})
		if err != nil {
			return nil, err
		}
		ratio := "-"
		if pm.Cache.MissRatio() > 0 {
			ratio = f2(mod.Cache.MissRatio() / pm.Cache.MissRatio())
		}
		t.AddRow(name, pct(pm.Cache.MissRatio()), pct(mod.Cache.MissRatio()), ratio)
	}
	return t, nil
}
