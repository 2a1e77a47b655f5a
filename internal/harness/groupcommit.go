package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// GroupCommitBatchSizes is the batch-size sweep of the group-commit
// experiment (1 = the unbatched one-fence-per-FASE baseline).
var GroupCommitBatchSizes = []int{1, 4, 16, 64, 256}

// GroupCommitShardCounts sweeps publication paths: 1 root exercises the
// single atomic-swap publish, 4 roots the multi-root batch record.
var GroupCommitShardCounts = []int{1, 4}

// GroupCommitBenchConfig derives a deterministic group-commit workload
// size from a Scale.
func GroupCommitBenchConfig(scale Scale, batchSize, shards int) workloads.GroupCommitConfig {
	return workloads.GroupCommitConfig{
		BatchSize:   batchSize,
		Shards:      shards,
		Ops:         scale.Ops,
		PreloadKeys: max(scale.Ops/16, 64),
		Seed:        0x6c0de,
	}
}

// groupCommit measures fences/op and throughput as the batch size grows:
// the whole point of group commit is that one flush+sfence epoch covers
// B operations, so fences/op falls as 1/B — on one root and through the
// batch record across roots alike — while throughput climbs. The final row repeats
// the largest batch through the async background committer with
// concurrent producers, for information.
func groupCommit(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "groupcommit",
		Title: "group commit: fence amortization vs batch size (MOD engine)",
		Note:  "sync rows are deterministic and gated by cmd/benchdiff; async row is informational",
		Header: []string{"batch", "shards", "mode", "ops", "batches", "fences/op", "flushes/op",
			"ops/s", "speedup"},
	}
	var rows []workloads.Row
	point := func(cfg workloads.GroupCommitConfig, mode string) error {
		res, err := workloads.RunGroupCommit(cfg)
		if err != nil {
			return err
		}
		rows = append(rows, res)
		speedup := fmt.Sprintf("%.2fx", res.OpsPerSec()/rows[0].OpsPerSec())
		if cfg.Async {
			rows[len(rows)-1].Gate = workloads.GateInfo
			speedup = "-"
		}
		t.AddRow(
			fmt.Sprintf("%d", cfg.BatchSize),
			fmt.Sprintf("%d", cfg.Shards),
			mode,
			fmt.Sprintf("%d", res.Ops),
			f0(res.Extra["batches"]),
			f3(res.FencesPerOp()),
			f2(res.FlushesPerOp()),
			f1(res.OpsPerSec()),
			speedup,
		)
		return nil
	}
	for _, shards := range GroupCommitShardCounts {
		for _, bsz := range GroupCommitBatchSizes {
			if err := point(GroupCommitBenchConfig(scale, bsz, shards), "sync"); err != nil {
				return nil, nil, err
			}
		}
	}
	cfg := GroupCommitBenchConfig(scale, GroupCommitBatchSizes[len(GroupCommitBatchSizes)-1], 4)
	cfg.Async = true
	cfg.Writers = 2
	if err := point(cfg, "async"); err != nil {
		return nil, nil, err
	}
	return t, rows, nil
}
