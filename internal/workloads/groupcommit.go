package workloads

import (
	"fmt"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Group-commit throughput workload. A fixed budget of map updates is
// committed through core.Batch at a swept batch size, so the cost of the
// ordering point is amortized: fences/op falls as 1/B whether a batch
// stays on one root or spreads across several (DESIGN.md §7). The
// sweep is the repo's main evidence that batching multiplies MOD's
// fewer-fences advantage; BENCH.json carries its fences/op and ops/sec
// so CI can hold the line.
//
// The synchronous mode is single-goroutine and fully deterministic —
// simulated time depends only on the operation stream — which is what
// lets cmd/benchdiff compare its numbers exactly across commits. The
// async mode drives the background committer from concurrent producers
// and is reported for information only.

// GroupCommitConfig parameterizes one group-commit measurement.
type GroupCommitConfig struct {
	// BatchSize is the number of updates coalesced per commit (1 = a
	// fence per operation, the unbatched baseline).
	BatchSize int
	// Ops is the total number of committed updates.
	Ops int
	// Shards is the number of map roots the updates round-robin over.
	// 1 keeps every batch on the single-root publish path; more shards
	// exercise the multi-root batch record.
	Shards int
	// PreloadKeys preloads each shard so updates hit a populated trie.
	PreloadKeys int
	// Async submits batches from Writers goroutines through the
	// background committer instead of committing inline.
	Async bool
	// Writers is the producer goroutine count in async mode (default 2).
	Writers int
	// Seed drives the deterministic operation stream.
	Seed uint64
	// ArenaBytes sizes the device (0 = automatic).
	ArenaBytes int64
}

func (c *GroupCommitConfig) defaults() {
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.PreloadKeys <= 0 {
		c.PreloadKeys = 256
	}
	if c.Writers <= 0 {
		c.Writers = 2
	}
	if c.Seed == 0 {
		c.Seed = 0x6c0de
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = int64(c.Ops)*2048 + int64(c.Shards*c.PreloadKeys)*512 + (64 << 20)
	}
}

func gcShardName(i int) string { return fmt.Sprintf("gc-shard-%02d", i) }

// RunGroupCommit executes the group-commit workload and returns its
// measurement: ElapsedNs is the committing goroutine's critical path
// (aggregate busy time in async mode, which is conservative), Extra
// batches the group commits executed.
func RunGroupCommit(cfg GroupCommitConfig) (Row, error) {
	cfg.defaults()
	db, _, err := core.Open(pmem.DefaultConfig(cfg.ArenaBytes))
	if err != nil {
		return Row{}, err
	}
	defer db.Close()
	store := db.Store()
	dev := store.Device()

	shards := make([]*core.Map, cfg.Shards)
	r := rng{state: cfg.Seed}
	for s := range shards {
		m, err := store.Map(gcShardName(s))
		if err != nil {
			return Row{}, err
		}
		for k := 0; k < cfg.PreloadKeys; k++ {
			m.Set([]byte(fmt.Sprintf("key-%06d", k)), []byte(fmt.Sprintf("val-%016x", r.next())))
		}
		shards[s] = m
	}
	store.Sync()
	statsBase := dev.Stats()
	nsBase := dev.LocalNs()
	busyBase := dev.Clock()

	if cfg.Async {
		if err := runGroupCommitAsync(store, shards, cfg); err != nil {
			return Row{}, err
		}
	} else {
		b := store.NewBatch()
		for i := 0; i < cfg.Ops; i++ {
			m := shards[i%cfg.Shards]
			key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys*2)))
			val := fmt.Sprintf("val-%016x", r.next())
			b.MapSet(m, []byte(key), []byte(val))
			if b.Len() >= cfg.BatchSize {
				b.Commit()
			}
		}
		b.Commit()
	}

	key := fmt.Sprintf("groupcommit/b%d/s%d", cfg.BatchSize, cfg.Shards)
	elapsed := dev.LocalNs() - nsBase
	if cfg.Async {
		key += "/async"
		elapsed = dev.Clock() - busyBase
	}
	d := dev.Stats().Sub(statsBase)
	res := NewRow(key, cfg.Ops, d, elapsed)
	res.Extra["batches"] = float64(d.Batches)
	store.Sync()
	return res, nil
}

// runGroupCommitAsync splits the op budget over producer goroutines that
// submit batches to the background committer, keeping a small pipeline
// of unresolved tickets each.
func runGroupCommitAsync(store *core.Store, shards []*core.Map, cfg GroupCommitConfig) error {
	store.StartGroupCommitter(cfg.BatchSize * cfg.Writers)
	defer store.StopGroupCommitter()
	errs := make(chan error, cfg.Writers)
	for w := 0; w < cfg.Writers; w++ {
		go func(w int) {
			h := store.Fork()
			maps := make([]*core.Map, len(shards))
			for s := range shards {
				m, err := h.Map(gcShardName(s))
				if err != nil {
					errs <- err
					return
				}
				maps[s] = m
			}
			r := rng{state: cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1))}
			ops := cfg.Ops / cfg.Writers
			if w == 0 {
				ops += cfg.Ops % cfg.Writers
			}
			const pipeline = 4
			var tickets []*core.Ticket
			b := h.NewBatch()
			for i := 0; i < ops; i++ {
				m := maps[i%len(maps)]
				key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys*2)))
				val := fmt.Sprintf("val-%016x", r.next())
				b.MapSet(m, []byte(key), []byte(val))
				if b.Len() >= cfg.BatchSize {
					tickets = append(tickets, b.CommitAsync())
					if len(tickets) > pipeline {
						tickets[0].Wait()
						tickets = tickets[1:]
					}
				}
			}
			if b.Len() > 0 {
				tickets = append(tickets, b.CommitAsync())
			}
			for _, t := range tickets {
				t.Wait()
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < cfg.Writers; w++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}
