// Crashtest fuzzes crash consistency: it runs a MOD workload, injects a
// power failure at a random point under the most adversarial cache-
// eviction policy, recovers, and validates that the store contains
// exactly the committed prefix of operations and no leaks (§5.2, §5.3).
//
// Each round runs in three flavors: the classic interrupted-FASE round
// (shadows built, commit never reached), a group-commit round that
// injects the failure at a pseudorandom PM-write inside a multi-root
// Batch.Commit, and a sharded round that injects it inside a
// cross-shard Batch — while shadows build on the shard regions,
// between the shard manifest's intent and commit-point fences, or
// mid-way through the per-shard redo swaps — and checks the batch
// recovers all-or-nothing across every shard.
//
// Recovered state is verified in full against a model (every key, every
// value, queue order included), and any mismatch is fatal: the process
// reports the failing round and exits nonzero immediately.
//
// Usage:
//
//	crashtest [-runs N] [-ops N] [-seed S] [-shards N] [-mode all|fase|batch|shard] [-v]
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

func main() {
	runs := flag.Int("runs", 50, "number of crash-inject-recover rounds")
	ops := flag.Int("ops", 200, "committed operations before the interrupted one")
	seed := flag.Uint64("seed", 1, "base random seed")
	shards := flag.Int("shards", 4, "shard count for -mode shard rounds")
	mode := flag.String("mode", "all", "all | fase (interrupted FASE) | batch (mid-batch injection) | shard (mid-manifest injection)")
	verbose := flag.Bool("v", false, "log each round")
	flag.Parse()

	doFASE := *mode == "all" || *mode == "fase"
	doBatch := *mode == "all" || *mode == "batch"
	doShard := *mode == "all" || *mode == "shard"
	if !doFASE && !doBatch && !doShard {
		fmt.Fprintf(os.Stderr, "crashtest: unknown mode %q\n", *mode)
		os.Exit(2)
	}

	// Any mismatch is fatal: report and exit nonzero on the first
	// failing round rather than accumulating a count that a reporting
	// bug could fail to act on.
	fatal := func(kind string, round int, err error) {
		if err == nil {
			return
		}
		fmt.Fprintf(os.Stderr, "crashtest: %s round %d FAILED: %v\n", kind, round, err)
		os.Exit(1)
	}
	for round := 0; round < *runs; round++ {
		s := *seed + uint64(round)
		if doFASE {
			fatal("fase", round, faseRound(s, *ops, *verbose))
		}
		if doBatch {
			fatal("batch", round, batchRound(s, *ops, *verbose))
		}
		if doShard {
			fatal("shard", round, shardRound(s, *ops, *shards, *verbose))
		}
	}
	fmt.Printf("crashtest: %d rounds ok\n", *runs)
}

func key(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func faseRound(seed uint64, ops int, verbose bool) error {
	cfg := pmem.DefaultConfig(128 << 20)
	cfg.TrackDurable = true
	db, _, err := core.Open(cfg)
	if err != nil {
		return err
	}
	dev, store := db.Store().Device(), db.Store()
	m, err := store.Map("fuzz")
	if err != nil {
		return err
	}
	q, err := store.Queue("fuzz-q")
	if err != nil {
		return err
	}

	committed := int(seed % uint64(ops))
	wantMap := make(map[string]string, committed)
	var wantQueue []uint64
	for i := 0; i < committed; i++ {
		m.Set(key(i), key(i*3))
		q.Enqueue(uint64(i))
		wantMap[string(key(i))] = string(key(i * 3))
		wantQueue = append(wantQueue, uint64(i))
	}
	store.Sync()

	// Interrupted FASE: shadows built and flushed, commit never reached.
	m.PureSet(key(999_999), []byte("never committed"))
	q.PureEnqueue(888_888)

	img := dev.CrashImage(pmem.CrashEvictRandom, seed)
	db2, info, err := core.Open(pmem.DefaultConfig(128<<20), core.WithExistingImages([][]byte{img}))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	rs := info.Stats
	store2 := db2.Store()
	m2, err := store2.Map("fuzz")
	if err != nil {
		return err
	}
	q2, err := store2.Queue("fuzz-q")
	if err != nil {
		return err
	}
	if err := verifyMap(m2, wantMap); err != nil {
		return err
	}
	if err := verifyQueue(q2, wantQueue); err != nil {
		return err
	}
	// The store must stay fully usable after recovery.
	m2.Set(key(424242), []byte("post-recovery"))
	if _, ok := m2.Get(key(424242)); !ok {
		return fmt.Errorf("store unusable after recovery")
	}
	if verbose {
		fmt.Printf("fase round seed=%d: committed=%d leaked-blocks=%d leaked-bytes=%d ok\n",
			seed, committed, rs.LeakedBlocks, rs.LeakedBytes)
	}
	return nil
}

// batchRound commits a prefix of group commits, then injects a power
// failure a pseudorandom number of PM writes into one final multi-root
// batch and verifies all-or-nothing recovery against the full model.
func batchRound(seed uint64, ops int, verbose bool) error {
	cfg := pmem.DefaultConfig(128 << 20)
	cfg.TrackDurable = true
	db, _, err := core.Open(cfg)
	if err != nil {
		return err
	}
	dev, store := db.Store().Device(), db.Store()
	m, err := store.Map("fuzz")
	if err != nil {
		return err
	}
	q, err := store.Queue("fuzz-q")
	if err != nil {
		return err
	}

	const batchLen = 4
	committed := int(seed % uint64(ops))
	wantMap := make(map[string]string, committed)
	var wantQueue []uint64
	for i := 0; i < committed; i += batchLen {
		b := store.NewBatch()
		for j := i; j < i+batchLen && j < committed; j++ {
			b.MapSet(m, key(j), key(j*3))
			b.QueueEnqueue(q, uint64(j))
			wantMap[string(key(j))] = string(key(j * 3))
			wantQueue = append(wantQueue, uint64(j))
		}
		b.Commit()
	}
	store.Sync()

	// The interrupted batch: 8 map updates and 4 enqueues across two
	// roots, with the crash landing anywhere from the first shadow write
	// to just past the final root swap.
	tr := pmem.NewCrashCountdown(dev, 1+int(seed*31%400), pmem.CrashEvictRandom, seed)
	dev.SetTracer(tr)
	b := store.NewBatch()
	wantMapFull := make(map[string]string, len(wantMap)+2*batchLen)
	for k, v := range wantMap {
		wantMapFull[k] = v
	}
	wantQueueFull := append([]uint64{}, wantQueue...)
	for j := 0; j < batchLen; j++ {
		b.MapSet(m, key(700_000+j), key(j))
		b.MapSet(m, key(800_000+j), key(j*5))
		b.QueueEnqueue(q, uint64(900_000+j))
		wantMapFull[string(key(700_000+j))] = string(key(j))
		wantMapFull[string(key(800_000+j))] = string(key(j * 5))
		wantQueueFull = append(wantQueueFull, uint64(900_000+j))
	}
	b.Commit()
	dev.SetTracer(nil)
	img := tr.Image()
	if img == nil {
		img = dev.CrashImage(pmem.CrashEvictRandom, seed)
	}

	db2, info, err := core.Open(pmem.DefaultConfig(128<<20), core.WithExistingImages([][]byte{img}))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	rs := info.Stats
	store2 := db2.Store()
	m2, err := store2.Map("fuzz")
	if err != nil {
		return err
	}
	q2, err := store2.Queue("fuzz-q")
	if err != nil {
		return err
	}

	// The batch is in or out as a whole: the recovered contents must
	// match the pre-batch model or the post-batch model exactly, with
	// map and queue agreeing on which.
	_, batchInMap := m2.Get(key(700_000))
	if batchInMap {
		if err := verifyMap(m2, wantMapFull); err != nil {
			return fmt.Errorf("batch committed but %w", err)
		}
		if err := verifyQueue(q2, wantQueueFull); err != nil {
			return fmt.Errorf("batch torn across roots: in map but %w", err)
		}
	} else {
		if err := verifyMap(m2, wantMap); err != nil {
			return fmt.Errorf("batch discarded but %w", err)
		}
		if err := verifyQueue(q2, wantQueue); err != nil {
			return fmt.Errorf("batch torn across roots: not in map but %w", err)
		}
	}
	// The recovered store must keep committing batches.
	nb := store2.NewBatch()
	nb.MapSet(m2, key(424242), []byte("post-recovery"))
	nb.QueueEnqueue(q2, 424242)
	nb.Commit()
	if _, ok := m2.Get(key(424242)); !ok {
		return fmt.Errorf("store unusable after batch recovery")
	}
	if verbose {
		fmt.Printf("batch round seed=%d: committed=%d batch-recovered=%v leaked-blocks=%d ok\n",
			seed, committed, batchInMap, rs.LeakedBlocks)
	}
	return nil
}

// shardRound commits a prefix of cross-shard batches on a sharded
// store, then injects a power failure a pseudorandom number of PM
// writes into one final cross-shard batch — anywhere from the first
// shadow write, through the shard manifest's intent and commit-point
// windows, to mid-way through the per-shard redo swaps — and verifies
// the batch recovers on every shard or on none, with all committed
// contents intact.
func shardRound(seed uint64, ops, shards int, verbose bool) error {
	if shards < 2 {
		return fmt.Errorf("shard rounds need at least 2 shards, got %d", shards)
	}
	cfg := pmem.DefaultConfig(32 << 20)
	cfg.TrackDurable = true
	db, _, err := core.Open(cfg, core.WithShards(shards))
	if err != nil {
		return err
	}
	maps := make([]*core.Map, shards)
	wantMaps := make([]map[string]string, shards)
	for i := range maps {
		m, err := db.Shard(i).Map(fmt.Sprintf("fuzz-%d", i))
		if err != nil {
			return err
		}
		maps[i] = m
		wantMaps[i] = make(map[string]string)
	}

	committed := int(seed % uint64(ops))
	const batchLen = 2 // ops per shard per batch
	for i := 0; i < committed; i += batchLen * shards {
		b := db.Batch()
		for si := 0; si < shards; si++ {
			for j := 0; j < batchLen; j++ {
				k, v := key(i+si*batchLen+j), key((i+si*batchLen+j)*3)
				b.MapSet(maps[si], k, v)
				wantMaps[si][string(k)] = string(v)
			}
		}
		b.Commit()
	}
	db.Sync()

	// The interrupted cross-shard batch: two updates per shard.
	tr := pmem.NewMultiCrashCountdown(db.Regions().Devices(), 1+int(seed*31%600), pmem.CrashEvictRandom, seed)
	tr.Install()
	b := db.Batch()
	wantMapsFull := make([]map[string]string, shards)
	for si := range wantMapsFull {
		wantMapsFull[si] = make(map[string]string, len(wantMaps[si])+2)
		for k, v := range wantMaps[si] {
			wantMapsFull[si][k] = v
		}
		for j := 0; j < 2; j++ {
			k, v := key(700_000+si*10+j), key(si*100+j)
			b.MapSet(maps[si], k, v)
			wantMapsFull[si][string(k)] = string(v)
		}
	}
	b.Commit()
	tr.Uninstall()
	imgs := tr.Images()
	if imgs == nil {
		imgs = db.CrashImages(pmem.CrashEvictRandom, seed)
	}

	db2, info, err := core.Open(cfg, core.WithExistingImages(imgs))
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	maps2 := make([]*core.Map, shards)
	inShard := make([]bool, shards)
	for si := range maps2 {
		m, err := db2.Shard(si).Map(fmt.Sprintf("fuzz-%d", si))
		if err != nil {
			return err
		}
		maps2[si] = m
		_, inShard[si] = m.Get(key(700_000 + si*10))
	}
	for si := 1; si < shards; si++ {
		if inShard[si] != inShard[0] {
			return fmt.Errorf("batch torn across shards: %v", inShard)
		}
	}
	for si := range maps2 {
		want := wantMaps[si]
		if inShard[0] {
			want = wantMapsFull[si]
		}
		if err := verifyMap(maps2[si], want); err != nil {
			return fmt.Errorf("shard %d (batch recovered=%v): %w", si, inShard[0], err)
		}
	}
	// The recovered store must keep committing cross-shard batches.
	nb := db2.Batch()
	for si, m := range maps2 {
		nb.MapSet(m, key(424242+si), []byte("post-recovery"))
	}
	nb.Commit()
	for si, m := range maps2 {
		if _, ok := m.Get(key(424242 + si)); !ok {
			return fmt.Errorf("store unusable after manifest recovery (shard %d)", si)
		}
	}
	if verbose {
		fmt.Printf("shard round seed=%d: shards=%d committed=%d batch-recovered=%v manifest-replayed=%v leaked-blocks=%d ok\n",
			seed, shards, committed, inShard[0], info.ManifestReplayed, info.Stats.LeakedBlocks)
	}
	return nil
}
