package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// TransientOpsPerFASE is the ops-per-FASE sweep of the edit-context
// experiment (1 = full shadow cost per operation, the baseline).
var TransientOpsPerFASE = []int{1, 4, 16, 64, 256}

// TransientBenchConfig derives a deterministic transient workload size
// from a Scale.
func TransientBenchConfig(scale Scale, opsPerFASE int) workloads.TransientConfig {
	return workloads.TransientConfig{
		OpsPerFASE:    opsPerFASE,
		Ops:           scale.Ops,
		PreloadKeys:   max(scale.Ops/8, 64),
		VectorPreload: max(scale.Ops/4, 128),
		Seed:          0xed17,
	}
}

// transient measures copy elision and flush coalescing as the FASE size
// grows: inside one edit context the first operation on a root copies
// its path and every later operation mutates the owned shadow in place,
// so copies/op and flushes/op fall with ops-per-FASE while throughput
// climbs (DESIGN.md §8). These are the headline columns the BENCH.json
// regression gate holds.
func transient(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "transient",
		Title: "edit contexts: copy elision and flush coalescing vs ops-per-FASE (MOD engine)",
		Note:  "rows are deterministic and gated by cmd/benchdiff",
		Header: []string{"ops/FASE", "ops", "copies/op", "elided/op", "flushes/op",
			"saved/op", "fences/op", "ops/s", "speedup"},
	}
	var rows []workloads.Row
	for _, b := range TransientOpsPerFASE {
		res, err := workloads.RunTransient(TransientBenchConfig(scale, b))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, res)
		t.AddRow(
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%d", res.Ops),
			f2(res.PerOp("copies")),
			f2(res.PerOp("copies_elided")),
			f2(res.FlushesPerOp()),
			f2(res.PerOp("flushes_saved")),
			f3(res.FencesPerOp()),
			f1(res.OpsPerSec()),
			fmt.Sprintf("%.2fx", res.OpsPerSec()/rows[0].OpsPerSec()),
		)
	}
	return t, rows, nil
}
