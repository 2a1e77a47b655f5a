package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Sharding (DESIGN.md §9). A single MOD heap serializes three things
// through one arena: allocation (the bump pointer and free lists),
// commit ordering (every FASE's fence drains one device-wide inflight
// set), and recovery (one reachability scan). A DB with S > 1 partitions
// the root namespace across S fully independent stores — each with its
// own pmem.Device region, its own heap, open-run table, epoch reclaimer,
// stage table, and commit queue — so unrelated
// FASEs on different shards never share a fence, never contend on an
// allocator lock, and recover in parallel.
//
// Root names route to shards by hash (ShardFor); a handle bound through
// the DB is an ordinary single-store handle on its shard, so
// single-shard operations cost exactly what they cost on one heap: a
// Basic update is one FASE with one fence, a single-shard batch commits
// through its shard's 1-fence publication (a root swap, or a staged
// group for several roots). This file holds what exists only because
// there can be more than one heap: formatting and attaching a region
// set, and rolling forward the groups that span shards. Publishing them
// is the same publish every locked commit takes (batch.go).
//
// # Cross-shard atomicity: one group over every shard's stage table
//
// S shards take S regions, each heap's superblock naming its place
// {shard, S}, and their heaps share one group counter, so a group word
// names one publication across the DB. A Batch whose updates change roots
// on k >= 2 shards publishes them as one group of r roots, r counted
// across all k shards (Batch.commit, publish):
//
//	stage    each changed shard, in ascending order, is prepared (shadow
//	         chains built and sealed under its root locks) and stages
//	         its changed roots under the one group word (alloc's
//	         StageGroup), with no digest;
//	fence    each changed shard fences: every shadow and every member
//	         slot is durable before any swap is issued;
//	swap     every root cell is swapped;
//	fence    each changed shard fences again (publish's fenceAfter),
//	         so the batch is durable when the commit returns.
//
// 2k fences, and nothing serializes cross-shard commits on disjoint
// shards. A recovering Open gathers, before any shard recovers, the
// groups each shard holds fewer members of than their size: one of whose
// swaps landed on any shard had all its first-round fences completed, so
// every other member is rolled forward (alloc's ReplaySwap) and the
// touched shards fenced. A group none of whose swaps landed is left to
// each shard's recovery, which discards it: its members carry no digest
// and no shard holds all r. A crash anywhere recovers every swap of the
// batch or none of them.

// formatRegions formats one fresh store per shard region, each heap
// stamped with its place in the set and numbering its groups from shard
// 0's counter.
func formatRegions(devs []pmem.Backend) []*Store {
	stores := make([]*Store, len(devs))
	for i, d := range devs {
		stores[i] = storeOn(d, alloc.FormatShard(d, i, len(devs)), i)
		stores[i].heap.ShareGroups(stores[0].heap)
	}
	return stores
}

// guardRegion runs one region's share of an attach and converts any
// failure — a panic from recovery walking a truncated or scrambled
// image into out-of-range addresses, malformed block headers, or dead
// lines, or a clean recovery error on such an image — into a
// *CorruptionError naming the region's shard index, so a damaged region
// fails the Open with a typed error instead of crashing the process. It
// must run on the goroutine doing the work: a recover cannot see another
// goroutine's panic. The original cause stays reachable through
// errors.Is/As.
func guardRegion(region int, step func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				err = fmt.Errorf("%v", r)
			}
		}
		if err != nil {
			err = &CorruptionError{Shard: region, Slot: -1, Err: fmt.Errorf("attach: %w", err)}
		}
	}()
	return step()
}

// attachRegions recovers the store already present on a region set —
// crash images on the simulator, mmap'd files on mmapdev. It attaches
// every shard's heap, refusing a region whose identity is not its place
// in the set, rolls the groups spanning shards forward all-or-nothing,
// then recovers the shards in parallel, each on the goroutine guarding
// it — staged groups and reachability scan, verification (eager when
// asked, else lazy on-read checks are armed), selective rebuild — so
// total recovery time is the slowest shard's, not the sum, degraded opens
// included. A single heap is the same pipeline with one shard, no
// cross-shard groups and no goroutine. Damage is reported per shard;
// unsalvaged roots are quarantined on their shard's store.
func attachRegions(devs []pmem.Backend, vc verifyConfig) ([]*Store, RecoveryInfo, error) {
	shards := len(devs)
	info := RecoveryInfo{Recovered: true, PerShard: make([]alloc.RecoveryStats, shards)}

	// Phase 0: attach each shard's heap.
	stores := make([]*Store, shards)
	for i, d := range devs {
		if err := guardRegion(i, func() (err error) {
			stores[i], err = attachStore(d, i)
			return err
		}); err != nil {
			return nil, info, err
		}
		if got, of := stores[i].heap.Shard(); got != i || of != shards {
			return nil, info, fmt.Errorf("core: region %d holds shard %d of %d, not %d of %d: %w", i, got, of, i, shards, ErrShardCount)
		}
		stores[i].heap.ShareGroups(stores[0].heap)
	}

	// Phase 1: roll the groups spanning shards forward before any
	// reachability scan, so every shard's recovery traces the final roots.
	moved := make([]int, shards)
	if shards > 1 {
		if err := rollCrossForward(stores, moved); err != nil {
			return nil, info, err
		}
	}

	// Phase 2: every shard under its own guard, in parallel — shard 0 on
	// the calling goroutine, one goroutine more per further shard, so a
	// single heap recovers with no handoff to another goroutine (whose
	// thread and fresh stack would make the open's wall time vary).
	errs := make([]error, shards)
	damage := make([][]DamagedRoot, shards)
	recoverShard := func(i int) {
		errs[i] = guardRegion(i, func() (err error) {
			info.PerShard[i], damage[i], err = stores[i].recoverHeap(vc)
			return err
		})
	}
	var wg sync.WaitGroup
	for i := 1; i < shards; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recoverShard(i)
		}()
	}
	recoverShard(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, info, err
		}
	}
	for i := range info.PerShard {
		info.PerShard[i].StagedRoots += moved[i]
		rs := info.PerShard[i]
		info.Stats.LiveBlocks += rs.LiveBlocks
		info.Stats.LiveBytes += rs.LiveBytes
		info.Stats.LeakedBlocks += rs.LeakedBlocks
		info.Stats.LeakedBytes += rs.LeakedBytes
		info.Stats.Roots += rs.Roots
		info.Stats.StagedRoots += rs.StagedRoots
		info.Damaged = append(info.Damaged, damage[i]...)
	}

	// Quarantine what verification could not salvage.
	for _, d := range info.Damaged {
		if !d.Salvaged {
			stores[d.Shard].quarantine(d.Slot, d.Err)
		}
	}
	return stores, info, nil
}

// crossMember is one member of a group spanning shards: a stage slot on
// a shard.
type crossMember struct {
	shard int
	alloc.StagedSwap
}

// crossGroups gathers every group some shard holds fewer members of than
// its size (alloc's PartialGroups) from all the shards, in staging order.
func crossGroups(stores []*Store) ([][]crossMember, error) {
	byWord := make(map[uint64][]crossMember)
	for i, s := range stores {
		if err := guardRegion(i, func() error {
			for g, ms := range s.heap.PartialGroups() {
				for _, m := range ms {
					byWord[g] = append(byWord[g], crossMember{i, m})
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	var groups [][]crossMember
	for _, g := range slices.Sorted(maps.Keys(byWord)) {
		groups = append(groups, byWord[g])
	}
	return groups, nil
}

// landed reports whether one of a group's swaps has reached its cell.
func landed(g []crossMember) bool {
	return slices.ContainsFunc(g, func(m crossMember) bool { return m.Landed })
}

// rollCrossForward writes, for every group spanning shards one of whose
// swaps landed, every other member's final into its cell, counting the
// cells it wrote per shard in moved, then fences each shard it wrote:
// recovery runs on the rolled-forward cells, and a crash before the fence
// rolls forward again.
func rollCrossForward(stores []*Store, moved []int) error {
	groups, err := crossGroups(stores)
	if err != nil {
		return err
	}
	for _, g := range groups {
		if !landed(g) {
			continue
		}
		for _, m := range g {
			if err := guardRegion(m.shard, func() error {
				if stores[m.shard].heap.ReplaySwap(m.Slot, m.Final) {
					moved[m.shard]++
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	for i, n := range moved {
		if n > 0 {
			stores[i].dev.Sfence()
		}
	}
	return nil
}
