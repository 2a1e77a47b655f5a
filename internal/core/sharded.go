package core

import (
	"fmt"
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
// through its shard's 1-fence path (a root swap, or a staged group for
// several roots). This file holds what exists only because there can be
// more than one heap: formatting and attaching a region set, and the
// manifest.
//
// # Cross-shard atomicity: the shard manifest
//
// A Batch whose updates span shards cannot ride any one shard's stage
// table — each orders only its own device. Instead the store
// commits through a two-phase checksummed manifest in a small dedicated
// metadata region (present only when S > 1):
//
//	phase 0  apply: each involved shard prepares its updates (shadow
//	         chains built and sealed under its root locks) and fences,
//	         so every shadow is durable; nothing is published.
//	phase 1  intent: the manifest body — (shard, root cell, new
//	         version) triples plus a checksum binding them to this
//	         commit's sequence number — is written and fenced, then the
//	         status word is set to the sequence number and fenced. That
//	         8-byte status write is the batch's atomic commit point.
//	phase 2  per-shard redo: each shard's root cells are overwritten
//	         (idempotent 8-byte swaps) and fenced.
//	phase 3  mark durable: the status word is marked retired and
//	         fenced. The retired write is issued only after the redo
//	         fences, so it can never become durable while a swap is
//	         not; it is fenced eagerly because no later single-shard
//	         commit ever fences the metadata region, and a manifest
//	         left committed-but-retired could otherwise be replayed
//	         after its roots had durably moved on, rolling them back.
//
// A recovering Open replays a committed manifest before any shard's
// reachability scan: a crash before the commit point recovers none of
// the batch (the shadows are swept as leaks), a crash at or after it
// recovers all of it. A cross-shard commit touching k shards costs
// 2k+3 fences — the uncommon, explicitly cross-shard case; everything
// else keeps its single ordering point.

// shardMagic identifies the metadata region of a sharded store.
const shardMagic = 0x4d4f442d53484152 // "MOD-SHAR"

// The manifest is a redo record (redo.go) at manifestBase in the
// metadata region, its entries leading with a shard word.
const (
	metaRegionBytes = 4096
	manifestBase    = pmem.Addr(64)
)

// MaxManifestEntries bounds how many root cells one cross-shard batch
// can change, by the capacity of the metadata region.
const MaxManifestEntries = (metaRegionBytes - int(manifestBase) - redoHdrSize) / 24

// manifest returns the shard manifest held in the metadata region.
func manifest(meta pmem.Backend) redoRecord {
	return redoRecord{dev: meta, base: manifestBase, max: MaxManifestEntries}
}

// metaConfig derives the metadata region's device configuration.
func metaConfig(cfg pmem.Config) pmem.Config {
	cfg.Size = metaRegionBytes
	cfg.Tracer = nil
	return cfg
}

// formatRegions formats one fresh store per shard region and, when there
// is a metadata region, stamps it (fenced) with the magic and shard
// count.
func formatRegions(devs []pmem.Backend, meta pmem.Backend) []*Store {
	stores := make([]*Store, len(devs))
	for i, d := range devs {
		stores[i] = newStore(d)
		stores[i].sh.shard = i
	}
	if meta != nil {
		meta.WriteU64(0, shardMagic)
		meta.WriteU64(8, uint64(len(devs)))
		meta.FlushRange(0, 16)
		meta.Sfence()
	}
	return stores
}

// guardRegion runs one region's share of an attach and converts any
// failure — a panic from recovery walking a truncated or scrambled
// image into out-of-range addresses, malformed block headers, or dead
// lines, or a clean recovery error on such an image — into a
// *CorruptionError naming the region (a shard index, or the shard count
// for the metadata region), so a damaged region fails the Open with a
// typed error instead of crashing the process. It must run on the
// goroutine doing the work: a recover cannot see another goroutine's
// panic. The original cause stays reachable through errors.Is/As.
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
// crash images on the simulator, mmap'd files on mmapdev. It replays a
// committed cross-shard manifest all-or-nothing, then recovers the
// shards in parallel, each on the goroutine guarding it — staged groups
// and reachability scan, verification (eager when asked, else lazy
// on-read checks are armed), selective rebuild — so total recovery time
// is the slowest shard's, not the sum, degraded opens included. A single
// heap is the same pipeline with one shard, no manifest phase and no
// goroutine. Damage is reported per shard; unsalvaged roots are
// quarantined on their shard's store.
func attachRegions(devs []pmem.Backend, meta pmem.Backend, vc verifyConfig) ([]*Store, RecoveryInfo, error) {
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
	}

	// Phase 1: replay a committed manifest before any reachability scan,
	// so every shard's recovery traces the post-batch roots. The redo
	// writes are idempotent 8-byte swaps; they are fenced per shard
	// before the status clears, so a second crash replays again.
	var (
		mseq  uint64
		dirty bool
	)
	if meta != nil {
		if err := guardRegion(shards, func() error {
			if got := meta.ReadU64(0); got != shardMagic {
				return fmt.Errorf("core: bad shard metadata magic %#x", got)
			}
			if got := meta.ReadU64(8); got != uint64(shards) {
				return fmt.Errorf("core: store has %d shards, got %d shard regions", got, shards)
			}
			var entries []redoEntry
			mseq, entries, dirty = manifest(meta).read()
			touched := make(map[int]bool)
			for _, e := range entries {
				if e.shard < 0 || e.shard >= shards {
					return fmt.Errorf("core: manifest entry names shard %d of %d", e.shard, shards)
				}
				slot, ok := alloc.RootSlotOfCell(e.cell)
				if !ok {
					return fmt.Errorf("core: manifest entry names %#x, not a root cell: %w", uint64(e.cell), ErrCorrupted)
				}
				stores[e.shard].heap.ReplaySwap(slot, e.word)
				touched[e.shard] = true
			}
			for i := range touched {
				devs[i].Sfence()
			}
			info.ManifestReplayed = len(entries) > 0
			return nil
		}); err != nil {
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
	for i, rs := range info.PerShard {
		info.Stats.LiveBlocks += rs.LiveBlocks
		info.Stats.LiveBytes += rs.LiveBytes
		info.Stats.LeakedBlocks += rs.LeakedBlocks
		info.Stats.LeakedBytes += rs.LeakedBytes
		info.Stats.Roots += rs.Roots
		info.Stats.VolatileBlocks += rs.VolatileBlocks
		info.Stats.StagedRoots += rs.StagedRoots
		info.Damaged = append(info.Damaged, damage[i]...)
	}

	// Phase 3: quarantine what verification could not salvage and
	// retire the manifest.
	for _, d := range info.Damaged {
		if !d.Salvaged {
			stores[d.Shard].quarantine(d.Slot, d.Err)
		}
	}
	if dirty {
		if err := guardRegion(shards, func() error {
			manifest(meta).retire(mseq)
			meta.Sfence()
			return nil
		}); err != nil {
			return nil, info, err
		}
	}
	return stores, info, nil
}

// commitCross is the cross-shard group-commit step: per holds each
// shard's ops in submission order, at least two shards non-empty. Shards
// are prepared in ascending index order (and each shard locks its roots
// in ascending slot order), so overlapping cross-shard commits cannot
// deadlock; the manifest lock then serializes publication.
func (db *DB) commitCross(per [][]batchOp) {
	// Phase 0: apply on every involved shard. Each prepare holds its
	// shard's root locks until finish, and seals its edit so all shadow
	// lines are inflight on the shard's device.
	var (
		order []int
		preps []*preparedBatch
	)
	for si, ops := range per {
		if len(ops) > 0 {
			order = append(order, si)
			preps = append(preps, db.shards[si].prepareBatch(ops, 0))
		}
	}
	var entries []redoEntry
	changed := make([]bool, len(order))
	for i, p := range preps {
		for _, c := range p.changed {
			entries = append(entries, redoEntry{
				shard: order[i],
				cell:  p.s.heap.RootCellAddr(c.slot),
				word:  p.s.heap.NextCellWord(c.slot, c.final),
			})
		}
		changed[i] = len(p.changed) > 0
	}
	if len(entries) > MaxManifestEntries {
		panic(fmt.Sprintf("core: cross-shard batch changes %d roots (max %d)", len(entries), MaxManifestEntries))
	}

	single := -1
	for i := range preps {
		if changed[i] {
			if single >= 0 {
				single = -2 // two or more shards changed
				break
			}
			single = i
		}
	}
	switch {
	case single == -1:
		// No root changed anywhere: nothing to publish or order.
	case single >= 0:
		// Only one shard actually changed: its local publication paths
		// are already all-or-nothing, skip the manifest.
		preps[single].publishLocal()
	default:
		// Shadow durability: one fence per changed shard, before the
		// commit point can be written. Selective structures due for a
		// checkpoint prepare it first (crown flushes ride the shard's
		// fence) and clear their crown durable behind it — program order
		// puts every clear fence before the manifest's commit point, so
		// a replayed swap can never publish a structure whose navigation
		// recovery would zero.
		for i, p := range preps {
			if changed[i] {
				var crown []pmem.Addr
				for _, c := range p.changed {
					crown = append(crown, p.s.maybeCheckpoint(c.final)...)
				}
				p.s.heap.Fence()
				p.s.clearCrown(crown)
			}
		}
		meta, rec := db.meta, manifest(db.meta)
		db.sh.mu.Lock()
		db.sh.seq++ // serialized by the manifest lock; 0 marks a never-used manifest
		seq := db.sh.seq
		rec.stage(seq, entries)
		// Intent fence: the body — and any previous manifest's
		// retirement — is durable while the status is still idle, so a
		// crash here recovers none of the batch.
		meta.Sfence()
		rec.commit(seq)
		meta.Sfence() // the status write is the batch's atomic commit point
		// Per-shard redo: overwrite the root cells, fencing each shard so
		// every swap is durable before the manifest retires.
		for i, p := range preps {
			if !changed[i] {
				continue
			}
			p.s.commitBegin()
			for _, c := range p.changed {
				p.s.heap.SetRoot(c.slot, c.final)
			}
			p.s.commitEnd()
			p.s.heap.Fence()
		}
		// Mark durable: idle status issued only now, after the redo
		// fences, so it can never become durable while a swap is not —
		// and fenced immediately. The metadata region is fenced by no
		// ordinary commit: deferring this
		// fence would let a crash resurrect the manifest after touched
		// roots had durably moved on, and the replay would roll them back.
		rec.retire(seq)
		meta.Sfence()
		db.sh.mu.Unlock()
	}

	for _, p := range preps {
		p.finish()
	}
}
