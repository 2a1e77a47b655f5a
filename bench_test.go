package mod_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6), plus per-workload benchmarks for the three
// engines. Times reported by testing.B are host wall-clock and mostly
// reflect simulator speed; the paper-relevant numbers are the simulated
// metrics attached via b.ReportMetric (sim-ns/op, fences/op, flushes/op)
// and the tables printed by cmd/modbench.
//
// Run everything:  go test -bench=. -benchmem .
// Full-scale run:  go run ./cmd/modbench -scale full

import (
	"io"
	"testing"

	"github.com/mod-ds/mod/internal/harness"
	"github.com/mod-ds/mod/internal/workloads"
)

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	scale := harness.SmallScale()
	for i := 0; i < b.N; i++ {
		tab, err := harness.Run(name, scale)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			tab.Render(io.Discard)
		}
	}
}

// BenchmarkTable1 regenerates the machine-model table.
func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2 regenerates the workload registry table.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig2 regenerates the PM-STM time-breakdown figure.
func BenchmarkFig2(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig4 regenerates the flush-latency-vs-concurrency figure.
func BenchmarkFig4(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig9 regenerates the cross-engine execution-time figure.
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10 regenerates the fences/flushes-per-operation figure.
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11 regenerates the L1D miss-ratio figure.
func BenchmarkFig11(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkTable3 regenerates the memory-doubling table.
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkSpaceOverhead regenerates the §6.5 shadow-space measurement.
func BenchmarkSpaceOverhead(b *testing.B) { benchExperiment(b, "spaceoverhead") }

// BenchmarkAblationFlushConcurrency sweeps the flush concurrency cap.
func BenchmarkAblationFlushConcurrency(b *testing.B) { benchExperiment(b, "ablation-conc") }

// BenchmarkAblationNaiveShadow compares structural sharing against naive
// whole-structure shadow paging.
func BenchmarkAblationNaiveShadow(b *testing.B) { benchExperiment(b, "ablation-naive") }

// BenchmarkConcurrent runs the reader-scaling sweep (snapshot readers
// against committing writers over sharded maps).
func BenchmarkConcurrent(b *testing.B) { benchExperiment(b, "concurrent") }

// benchWorkload runs one Table 2 workload on one engine, reporting the
// simulated per-operation cost and ordering behaviour.
func benchWorkload(b *testing.B, name string, engine workloads.Engine) {
	b.Helper()
	const ops = 2_000
	workloads.SetVectorPreload(ops)
	var last workloads.Result
	for i := 0; i < b.N; i++ {
		res, err := workloads.Run(name, engine, workloads.Config{Ops: ops, Seed: uint64(i) + 1})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.ElapsedNs/float64(last.Ops), "sim-ns/op")
	b.ReportMetric(last.FencesPerOp(), "fences/op")
	b.ReportMetric(last.FlushesPerOp(), "flushes/op")
	b.ReportMetric(last.FlushFrac(), "flush-frac")
}

// Per-workload benchmarks, MOD vs the PMDK v1.5 baseline (Fig. 9 slices).

func BenchmarkWorkloadMapMOD(b *testing.B)  { benchWorkload(b, "map", workloads.EngineMOD) }
func BenchmarkWorkloadMapPMDK(b *testing.B) { benchWorkload(b, "map", workloads.EnginePMDK15) }

func BenchmarkWorkloadSetMOD(b *testing.B)  { benchWorkload(b, "set", workloads.EngineMOD) }
func BenchmarkWorkloadSetPMDK(b *testing.B) { benchWorkload(b, "set", workloads.EnginePMDK15) }

func BenchmarkWorkloadQueueMOD(b *testing.B)  { benchWorkload(b, "queue", workloads.EngineMOD) }
func BenchmarkWorkloadQueuePMDK(b *testing.B) { benchWorkload(b, "queue", workloads.EnginePMDK15) }

func BenchmarkWorkloadStackMOD(b *testing.B)  { benchWorkload(b, "stack", workloads.EngineMOD) }
func BenchmarkWorkloadStackPMDK(b *testing.B) { benchWorkload(b, "stack", workloads.EnginePMDK15) }

func BenchmarkWorkloadVectorMOD(b *testing.B)  { benchWorkload(b, "vector", workloads.EngineMOD) }
func BenchmarkWorkloadVectorPMDK(b *testing.B) { benchWorkload(b, "vector", workloads.EnginePMDK15) }

func BenchmarkWorkloadVecSwapMOD(b *testing.B)  { benchWorkload(b, "vec-swap", workloads.EngineMOD) }
func BenchmarkWorkloadVecSwapPMDK(b *testing.B) { benchWorkload(b, "vec-swap", workloads.EnginePMDK15) }

func BenchmarkWorkloadBFSMOD(b *testing.B)  { benchWorkload(b, "bfs", workloads.EngineMOD) }
func BenchmarkWorkloadBFSPMDK(b *testing.B) { benchWorkload(b, "bfs", workloads.EnginePMDK15) }

func BenchmarkWorkloadVacationMOD(b *testing.B) { benchWorkload(b, "vacation", workloads.EngineMOD) }
func BenchmarkWorkloadVacationPMDK(b *testing.B) {
	benchWorkload(b, "vacation", workloads.EnginePMDK15)
}

func BenchmarkWorkloadMemcachedMOD(b *testing.B) {
	benchWorkload(b, "memcached", workloads.EngineMOD)
}
func BenchmarkWorkloadMemcachedPMDK(b *testing.B) {
	benchWorkload(b, "memcached", workloads.EnginePMDK15)
}
