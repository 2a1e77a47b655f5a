package workloads

import (
	"fmt"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Sharded throughput workload. A fixed budget of map updates is spread
// over W writers whose roots are placed round-robin on the S shards of a
// core.DB. Because each shard is its own pmem region with its
// own fence machinery, work on different shards is genuinely parallel;
// work on one shard serializes through its root commit mutexes exactly
// as a real deployment would.
//
// # Measurement model
//
// The benchmark-gated rows run the writers sequentially in host time
// but report the *parallel-semantics* elapsed time:
//
//	elapsed = max over regions of (that region's busy simulated ns)
//
// Within a shard, Basic updates on one root hold the root mutex for the
// whole FASE, so writers sharing a shard execute serially in any real
// schedule — summing their busy time per shard is faithful. Across
// shards nothing is shared, so the slowest shard bounds the run. This
// makes the metric fully deterministic (no goroutine interleaving
// touches it), which is what lets cmd/benchdiff gate the sharded rows;
// a Parallel mode with real goroutines exists for information and for
// exercising the concurrency machinery under -race.
//
// S=1 therefore reports the single-heap serialization the sharding
// tentpole removes, and S=4 with 4 writers shows the aggregate-ops/sec
// multiplier the ROADMAP's north star asks for — while fences/op stays
// exactly 1 at batch size 1, since a Basic update on a sharded store is
// the same one-fence FASE it always was.

// ShardedConfig parameterizes one sharded-store measurement.
type ShardedConfig struct {
	// Shards is the number of independent heap shards.
	Shards int
	// Writers is the number of logical writers; writer w's root is
	// placed on shard w mod Shards.
	Writers int
	// Ops is the total update budget across all writers.
	Ops int
	// BatchSize groups each writer's updates into group commits of this
	// size (<=1 = one Basic FASE per update).
	BatchSize int
	// CrossShard commits every batch as a cross-shard group: each
	// writer's batch updates its own root and the next shard's, so it is
	// staged on both shards and costs 2 fences per shard.
	// Requires BatchSize > 1 to be meaningful and Shards > 1 to actually
	// cross shards.
	CrossShard bool
	// PreloadKeys preloads each writer's map so updates hit a populated
	// trie.
	PreloadKeys int
	// Parallel runs the writers as real goroutines on forked handles
	// (nondeterministic; informational).
	Parallel bool
	// Seed drives the deterministic operation stream.
	Seed uint64
	// ArenaBytes sizes each shard region (0 = automatic).
	ArenaBytes int64
}

func (c *ShardedConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Writers <= 0 {
		c.Writers = c.Shards
	}
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.PreloadKeys <= 0 {
		c.PreloadKeys = 256
	}
	if c.Seed == 0 {
		c.Seed = 0x5aa4ded
	}
	if c.ArenaBytes == 0 {
		perShardOps := int64(c.Ops)/int64(c.Shards) + int64(c.PreloadKeys*c.Writers)
		c.ArenaBytes = perShardOps*2048 + (32 << 20)
	}
}

func shardedMapName(w int) string { return fmt.Sprintf("sh-w%02d", w) }

// RunSharded executes the sharded workload and returns its measurement:
// ElapsedNs is the critical path (the busiest region's busy time), Extra
// busy_ns the busy time summed over regions. The key's last segment is
// the commit discipline: perop, batch/bN, cross/bN, or parallel.
func RunSharded(cfg ShardedConfig) (Row, error) {
	cfg.defaults()
	devCfg := pmem.DefaultConfig(cfg.ArenaBytes)
	db, _, err := core.Open(devCfg, core.WithShards(cfg.Shards))
	if err != nil {
		return Row{}, err
	}
	defer db.Close()

	// Writer w's map lives on shard w%S by explicit placement, so the
	// op budget spreads evenly regardless of name hashes.
	maps := make([]*core.Map, cfg.Writers)
	r := rng{state: cfg.Seed}
	for w := range maps {
		m, err := db.Shard(w % cfg.Shards).Map(shardedMapName(w))
		if err != nil {
			return Row{}, err
		}
		for k := 0; k < cfg.PreloadKeys; k++ {
			m.Set([]byte(fmt.Sprintf("key-%06d", k)), []byte(fmt.Sprintf("val-%016x", r.next())))
		}
		maps[w] = m
	}
	db.Sync()

	regions := db.Regions()
	clockBase := make([]float64, regions.Len())
	for i := range clockBase {
		clockBase[i] = regions.Device(i).Clock()
	}
	statsBase := db.Stats()

	runWriter := func(h *core.DB, w int, m, next *core.Map) error {
		r := rng{state: cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1))}
		ops := cfg.Ops / cfg.Writers
		if w == 0 {
			ops += cfg.Ops % cfg.Writers
		}
		key := func() []byte { return []byte(fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys*2)))) }
		val := func() []byte { return []byte(fmt.Sprintf("val-%016x", r.next())) }
		switch {
		case cfg.BatchSize <= 1:
			for i := 0; i < ops; i++ {
				m.Set(key(), val())
			}
		case cfg.CrossShard:
			b := h.Batch()
			for i := 0; i < ops; i++ {
				if i%2 == 0 {
					b.MapSet(m, key(), val())
				} else {
					b.MapSet(next, key(), val())
				}
				if b.Len() >= cfg.BatchSize {
					b.Commit()
				}
			}
			b.Commit()
		default:
			b := h.Batch()
			for i := 0; i < ops; i++ {
				b.MapSet(m, key(), val())
				if b.Len() >= cfg.BatchSize {
					b.Commit()
				}
			}
			b.Commit()
		}
		return nil
	}

	if cfg.Parallel {
		errs := make(chan error, cfg.Writers)
		for w := 0; w < cfg.Writers; w++ {
			go func(w int) {
				h := db.Fork()
				m, err := h.Shard(w % cfg.Shards).Map(shardedMapName(w))
				if err != nil {
					errs <- err
					return
				}
				nw := (w + 1) % cfg.Writers
				next, err := h.Shard(nw % cfg.Shards).Map(shardedMapName(nw))
				if err != nil {
					errs <- err
					return
				}
				errs <- runWriter(h, w, m, next)
			}(w)
		}
		for w := 0; w < cfg.Writers; w++ {
			if err := <-errs; err != nil {
				return Row{}, err
			}
		}
	} else {
		for w := 0; w < cfg.Writers; w++ {
			next := maps[(w+1)%cfg.Writers]
			if err := runWriter(db, w, maps[w], next); err != nil {
				return Row{}, err
			}
		}
	}

	var elapsed, busy float64
	for i := 0; i < regions.Len(); i++ {
		d := regions.Device(i).Clock() - clockBase[i]
		busy += d
		elapsed = max(elapsed, d)
	}
	mode := "perop"
	switch {
	case cfg.Parallel:
		mode = "parallel"
	case cfg.CrossShard:
		mode = fmt.Sprintf("cross/b%d", cfg.BatchSize)
	case cfg.BatchSize > 1:
		mode = fmt.Sprintf("batch/b%d", cfg.BatchSize)
	}
	res := NewRow(fmt.Sprintf("sharded/s%d/w%d/%s", cfg.Shards, cfg.Writers, mode),
		cfg.Ops, db.Stats().Sub(statsBase), elapsed)
	res.Extra["busy_ns"] = busy
	db.Sync()
	return res, nil
}
