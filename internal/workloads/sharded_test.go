package workloads

import "testing"

func TestRunShardedDeterministic(t *testing.T) {
	cfg := ShardedConfig{Shards: 2, Writers: 2, Ops: 300, PreloadKeys: 64}
	a, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.ElapsedNs != b.ElapsedNs || a.Fences != b.Fences || a.Flushes != b.Flushes {
		t.Fatalf("sharded workload nondeterministic: %+v vs %+v", a, b)
	}
}

// TestRunShardedFencesPerOp pins the headline invariant: sharding does
// not change the single-shard fence economy. One Basic update = one
// fence at every shard count.
func TestRunShardedFencesPerOp(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		res, err := RunSharded(ShardedConfig{Shards: shards, Writers: 4, Ops: 400, PreloadKeys: 64})
		if err != nil {
			t.Fatal(err)
		}
		if res.FencesPerOp() != 1.0 {
			t.Errorf("S=%d: fences/op = %v, want exactly 1", shards, res.FencesPerOp())
		}
	}
}

// TestRunShardedSpeedup checks the acceptance target: at 4 shards with
// 4 writers, aggregate throughput is at least 2x the single-shard run.
func TestRunShardedSpeedup(t *testing.T) {
	base, err := RunSharded(ShardedConfig{Shards: 1, Writers: 4, Ops: 1200, PreloadKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := RunSharded(ShardedConfig{Shards: 4, Writers: 4, Ops: 1200, PreloadKeys: 64})
	if err != nil {
		t.Fatal(err)
	}
	if speedup := wide.OpsPerSec() / base.OpsPerSec(); speedup < 2 {
		t.Errorf("S=4/W=4 speedup = %.2fx over S=1/W=4, want >= 2x", speedup)
	}
	// The op budget spreads over shards, so the critical path shrinks.
	if wide.ElapsedNs >= base.ElapsedNs {
		t.Errorf("elapsed did not shrink: S=1 %v ns vs S=4 %v ns", base.ElapsedNs, wide.ElapsedNs)
	}
}

// TestRunShardedCrossShard exercises the cross-shard group path end to
// end and checks its fence premium stays bounded (2k per batch).
func TestRunShardedCrossShard(t *testing.T) {
	res, err := RunSharded(ShardedConfig{
		Shards: 4, Writers: 4, Ops: 400, BatchSize: 16, CrossShard: true, PreloadKeys: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each 16-op batch spans 2 shards: 2*2 = 4 fences per 16 ops.
	if res.FencesPerOp() > 4.0/16.0+0.1 {
		t.Errorf("cross-shard fences/op = %v, want <= ~%v", res.FencesPerOp(), 4.0/16.0)
	}
	if res.Fences == 0 || res.OpsPerSec() <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

// TestRunShardedParallelMode smoke-tests the real-goroutine mode.
func TestRunShardedParallelMode(t *testing.T) {
	res, err := RunSharded(ShardedConfig{Shards: 2, Writers: 4, Ops: 200, Parallel: true, PreloadKeys: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 200 || res.OpsPerSec() <= 0 {
		t.Fatalf("degenerate parallel result: %+v", res)
	}
}
