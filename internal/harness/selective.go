package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// SelectiveStructures is the structure sweep of the selective-persistence
// experiment: the two navigation-heavy structures whose interior nodes
// dominate the flush bill.
var SelectiveStructures = []string{"map", "vector"}

// SelectiveOpsPerFASE is the ops-per-FASE sweep (1 = one commit per
// update; 64 is the batched point the acceptance gate reads).
var SelectiveOpsPerFASE = []int{1, 64}

// SelectiveBenchConfig derives a deterministic selective workload from a
// Scale. The preloads are deliberately large relative to the op budget:
// random updates over a deep trie rarely share interior nodes within a
// FASE, so the persist-all rows pay the full navigation flush bill that
// selective persistence elides. Recovery is measured on every run so the
// rebuild cost rides the same images the hot path produced.
func SelectiveBenchConfig(scale Scale, structure string, selective bool, opsPerFASE int) workloads.SelectiveConfig {
	preload := selectivePreload(scale.Ops)
	return workloads.SelectiveConfig{
		Structure:       structure,
		Selective:       selective,
		OpsPerFASE:      opsPerFASE,
		Ops:             scale.Ops,
		PreloadKeys:     preload,
		VectorPreload:   preload,
		MeasureRecovery: true,
		Seed:            0x5e1ec,
	}
}

// selectivePreload sizes the preloaded structure: about 20x the op budget
// (deep navigation, few repeated paths) capped at 32768 so bench runs
// stay fast, but never below 2x the budget so updates cannot touch a
// majority of the keyspace.
func selectivePreload(ops int) int {
	return max(ops*2, min(ops*20, 32768))
}

// selective measures the "Don't Persist All" split (DESIGN.md §10): the
// same updates-only hot path with navigation nodes persisted (cache off)
// vs volatile-clean (selective flavor, DRAM node cache on). Selective
// rows flush leaf bindings, one record cell per update and, at each
// checkpoint fold, the navigation nodes it seals. Whether that is fewer
// flushes depends on the batch. At small scale (BENCH_baseline.json,
// heap layout v18) 64 updates a FASE flush 5,836 lines against 8,518
// on the map and 4,681 against 5,011 on the vector; one update a FASE
// flushes more, 18,753 against 17,316 and 19,483 against 10,498. The
// simulated time of every selective row is longer than its persist-all
// row's. A further price is a recovery-time rebuild, reported in the
// last two columns and as the recovery/ rows. These are the headline
// columns the BENCH.json regression gate holds.
func selective(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "selective",
		Title: "selective persistence: DRAM navigation over minimal PM cores (MOD engine)",
		Note:  "rows are deterministic and gated by cmd/benchdiff",
		Header: []string{"struct", "mode", "ops/FASE", "ops", "flushes/op", "copies/op",
			"fences/op", "dram-reads/op", "ops/s", "recovery-ms", "rebuilt"},
	}
	var rows []workloads.Row
	for _, structure := range SelectiveStructures {
		for _, sel := range []bool{false, true} {
			for _, b := range SelectiveOpsPerFASE {
				res, rec, err := workloads.RunSelective(SelectiveBenchConfig(scale, structure, sel, b))
				if err != nil {
					return nil, nil, err
				}
				rows = append(rows, res, rec)
				mode := "persist-all"
				if sel {
					mode = "selective"
				}
				t.AddRow(
					structure,
					mode,
					fmt.Sprintf("%d", b),
					fmt.Sprintf("%d", res.Ops),
					f2(res.FlushesPerOp()),
					f2(res.PerOp("copies")),
					f3(res.FencesPerOp()),
					f2(res.PerOp("dram_reads")),
					f1(res.OpsPerSec()),
					ms(rec.Extra["recovery_ns"]),
					f0(rec.Extra["rebuilt_nodes"]),
				)
			}
		}
	}
	return t, rows, nil
}
