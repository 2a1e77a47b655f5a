package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// ShardedShardCounts sweeps the shard counts of the sharded experiment.
// cmd/modbench -shards overrides it to a single count.
var ShardedShardCounts = []int{1, 2, 4, 8}

// ShardedWriterCounts sweeps the writer counts: 1 shows per-writer cost
// is unchanged, 4 shows the aggregate scaling the sharding buys.
var ShardedWriterCounts = []int{1, 4}

// ShardedCrossShardCounts are the shard counts of the cross-shard
// (group over every changed shard) rows.
var ShardedCrossShardCounts = []int{2, 4}

// shardedCrossBatch is the batch size of the cross-shard rows.
const shardedCrossBatch = 16

// ShardedBenchConfig derives a deterministic sharded workload from a
// Scale.
func ShardedBenchConfig(scale Scale, shards, writers int) workloads.ShardedConfig {
	return workloads.ShardedConfig{
		Shards:      shards,
		Writers:     writers,
		Ops:         scale.Ops,
		PreloadKeys: max(scale.Ops/16, 64),
		Seed:        0x5aa4ded,
	}
}

// ShardedCrossBenchConfig derives the cross-shard variant.
func ShardedCrossBenchConfig(scale Scale, shards, writers int) workloads.ShardedConfig {
	cfg := ShardedBenchConfig(scale, shards, writers)
	cfg.BatchSize = shardedCrossBatch
	cfg.CrossShard = true
	return cfg
}

// sharded measures aggregate throughput and fence economy as the root
// namespace spreads over independent heap shards. The per-op rows pin
// the tentpole's two claims at once: fences/op stays exactly 1 at every
// shard count (single-shard operations keep their single ordering
// point), while aggregate ops/sec scales with shards because each shard
// is its own device region — no shared fence, no shared allocator, no
// shared commit mutex. The cross rows pay 2k fences per batch over k
// shards — each shard fences before the group's swaps and after them —
// the explicit price of cross-shard atomicity. A final
// parallel row reruns the widest point with real goroutines for
// information.
func sharded(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "sharded",
		Title: "sharded store: aggregate scaling vs shard count (MOD engine)",
		Note:  "elapsed = busiest shard region (critical path); per-op and cross rows are deterministic and gated by cmd/benchdiff; parallel row is informational",
		Header: []string{"shards", "writers", "mode", "ops", "fences/op", "flushes/op",
			"ops/s", "speedup"},
	}
	var rows []workloads.Row
	bases := map[int]float64{} // writers -> S=1 ops/sec
	point := func(cfg workloads.ShardedConfig, mode string) error {
		res, err := workloads.RunSharded(cfg)
		if err != nil {
			return err
		}
		if cfg.Parallel {
			res.Gate = workloads.GateInfo
		}
		rows = append(rows, res)
		speedup := "-" // per-op rows only, and no S=1 base in a restricted sweep (-shards N)
		if mode == "per-op" {
			if cfg.Shards == 1 {
				bases[cfg.Writers] = res.OpsPerSec()
			}
			if base, ok := bases[cfg.Writers]; ok {
				speedup = fmt.Sprintf("%.2fx", res.OpsPerSec()/base)
			}
		}
		t.AddRow(
			fmt.Sprintf("%d", cfg.Shards),
			fmt.Sprintf("%d", cfg.Writers),
			mode,
			fmt.Sprintf("%d", res.Ops),
			f3(res.FencesPerOp()),
			f2(res.FlushesPerOp()),
			f1(res.OpsPerSec()),
			speedup,
		)
		return nil
	}
	for _, writers := range ShardedWriterCounts {
		for _, shards := range ShardedShardCounts {
			if err := point(ShardedBenchConfig(scale, shards, writers), "per-op"); err != nil {
				return nil, nil, err
			}
		}
	}
	for _, shards := range ShardedCrossShardCounts {
		cfg := ShardedCrossBenchConfig(scale, shards, shards)
		if err := point(cfg, fmt.Sprintf("cross/b%d", cfg.BatchSize)); err != nil {
			return nil, nil, err
		}
	}
	widest := ShardedShardCounts[len(ShardedShardCounts)-1]
	cfg := ShardedBenchConfig(scale, widest, max(widest, 4))
	cfg.Parallel = true
	if err := point(cfg, "parallel"); err != nil {
		return nil, nil, err
	}
	return t, rows, nil
}
