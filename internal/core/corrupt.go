package core

import (
	"fmt"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Corruption-resilient open and degraded-mode serving (DESIGN.md §13).
// Power-loss recovery (§5.3) trusts the durable image byte for byte;
// media faults — bit flips, torn internal stores, unreadable lines —
// break that trust. This file is the store-level response:
//
//   - WithVerify walks every root eagerly at open (verify-before-
//     descend, alloc.VerifyRoot) and quarantines the damaged ones: the
//     store opens degraded, healthy roots serve normally, and binds to a
//     quarantined root return ErrCorrupted instead of the open crashing
//     or silently serving garbage.
//   - WithSalvage additionally tries to repair before quarantining.
//     Selective roots (DESIGN.md §10) carry their own redundancy — a
//     verified checkpoint plus a record chain — so salvage replays the
//     chain when it verifies, or rolls back to the checkpoint (dropping
//     the records, a bounded, reported data loss) when it does not.
//   - Without WithVerify, a recovered store arms lazy verification
//     (alloc.ArmLazyVerify): the first post-recovery read of each
//     checksummed node re-verifies it, raising a typed CorruptionPanic
//     the serving layer converts into an error reply.
//   - Scrub re-verifies a live store's roots with bounded pacing, for
//     background media scrubbing between opens.

// CorruptionError wraps ErrCorrupted with the coordinates of the
// damage: the shard (0 on a single-heap store) and root slot it was
// found under, and the detailed cause (usually an *alloc.BlockError).
// Test with errors.Is(err, ErrCorrupted).
type CorruptionError struct {
	Shard int // region index: a shard, or the shard count for the metadata region
	Slot  int // root slot, or -1 when the damage is not root-specific
	Err   error
}

func (e *CorruptionError) Error() string {
	if e.Slot < 0 {
		return fmt.Sprintf("corrupted store (shard %d): %v", e.Shard, e.Err)
	}
	return fmt.Sprintf("corrupted root (shard %d, slot %d): %v", e.Shard, e.Slot, e.Err)
}

func (e *CorruptionError) Unwrap() []error { return []error{ErrCorrupted, e.Err} }

// DamagedRoot reports one root that failed verification at open (or
// during a Scrub). A salvaged root serves normally afterwards — at the
// cost of DroppedOps record operations if salvage had to roll back to
// the checkpoint — while an unsalvaged one is quarantined: binds to it
// return ErrCorrupted until the store is repaired offline.
type DamagedRoot struct {
	Shard int
	Slot  int
	Err   error // the *CorruptionError found by verification
	// Salvaged is true when a rollback or replay produced a verifying
	// version that was re-published; the root is NOT quarantined.
	Salvaged bool
	// DroppedOps counts record-chain operations lost by a
	// checkpoint rollback (zero when the chain replayed cleanly).
	DroppedOps uint64
}

// verifyConfig selects the open-time integrity work.
type verifyConfig struct {
	verify  bool
	salvage bool
}

// verifyHeap verifies every claimed root of a recovered heap, after the
// reachability scan and before selective navigation is rebuilt (replay
// must not run over a record chain that no longer verifies). Damaged
// selective roots are salvaged when asked; everything else lands in the
// skip set so rebuildSelectiveRoots and the caller's quarantine step
// leave it alone. The damaged version itself is intentionally leaked —
// releasing it would cascade reference counts through blocks whose
// contents can no longer be trusted.
func verifyHeap(heap *alloc.Heap, shard int, salvage bool) (damaged []DamagedRoot, skip map[int]bool) {
	skip = make(map[int]bool)
	for slot := 0; slot < alloc.RootSlots; slot++ {
		verr := heap.VerifyRoot(slot)
		if verr == nil {
			continue
		}
		d := DamagedRoot{Shard: shard, Slot: slot, Err: &CorruptionError{Shard: shard, Slot: slot, Err: verr}}
		root := heap.Root(slot)
		// Salvage only when the root header itself verifies (so its tag
		// and selective extension are trustworthy) and the structure is
		// selective: its checkpoint + record chain are the redundancy a
		// rollback needs. Plain structures have a single copy — nothing
		// to rebuild from.
		if salvage && heap.VerifyBlock(root) == nil && funcds.IsSelective(heap, root) {
			if newHdr, _, dropped, serr := funcds.SalvageSelective(heap, root); serr == nil {
				heap.Fence()
				heap.SetRoot(slot, newHdr)
				heap.Fence()
				if heap.VerifyRoot(slot) == nil {
					d.Salvaged, d.DroppedOps = true, dropped
					skip[slot] = true // already rebuilt; no replay needed
					damaged = append(damaged, d)
					continue
				}
			}
		}
		skip[slot] = true
		damaged = append(damaged, d)
	}
	return damaged, skip
}

// verifyBindLazy funnels a root's header block through the lazy
// post-recovery check at bind time. Structure headers are read through
// raw field loads, not the verified node-read funnels, so without this
// hook header damage on a lazily opened store would go unchecked. The
// steady state (no tainted blocks) is one atomic load; damage is
// quarantined and surfaces as an ErrCorrupted bind error.
func (s *Store) verifyBindLazy(name string, slot int, root pmem.Addr) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cp, ok := r.(*alloc.CorruptionPanic)
			if !ok {
				panic(r)
			}
			cerr := &CorruptionError{Shard: s.sh.shard, Slot: slot, Err: cp}
			s.quarantine(slot, cerr)
			err = fmt.Errorf("core: binding %q: %w", name, cerr)
		}
	}()
	s.heap.VerifyOnRead(root)
	return nil
}

// quarantine marks a root slot damaged: binds return ErrCorrupted until
// the store is repaired and reopened.
func (s *Store) quarantine(slot int, err error) {
	s.sh.quarMu.Lock()
	if s.sh.quar == nil {
		s.sh.quar = make(map[int]error)
	}
	if _, dup := s.sh.quar[slot]; !dup {
		s.sh.quar[slot] = err
		s.sh.quarCount.Add(1)
	}
	s.sh.quarMu.Unlock()
}

// quarantineErr returns the corruption error quarantining slot, or nil.
// The healthy-store fast path is one atomic load.
func (s *Store) quarantineErr(slot int) error {
	if s.sh.quarCount.Load() == 0 {
		return nil
	}
	s.sh.quarMu.Lock()
	defer s.sh.quarMu.Unlock()
	return s.sh.quar[slot]
}

// Quarantined returns a copy of the quarantined slots and their
// corruption errors (empty for a healthy store).
func (s *Store) Quarantined() map[int]error {
	out := make(map[int]error)
	if s.sh.quarCount.Load() == 0 {
		return out
	}
	s.sh.quarMu.Lock()
	defer s.sh.quarMu.Unlock()
	for slot, err := range s.sh.quar {
		out[slot] = err
	}
	return out
}

// scrubStore re-verifies every claimed root of one live store,
// quarantining new damage. The reclamation epoch is pinned around each
// root's walk so a concurrent commit cannot recycle the version under
// the verifier; pace sleeps between roots bound the scrub's read
// amplification against foreground traffic.
func scrubStore(s *Store, pace time.Duration) []DamagedRoot {
	var damaged []DamagedRoot
	first := true
	for slot := 0; slot < alloc.RootSlots; slot++ {
		if s.heap.Root(slot) == pmem.Nil {
			continue
		}
		if !first && pace > 0 {
			time.Sleep(pace)
		}
		first = false
		g := s.heap.Enter()
		verr := s.heap.VerifyRoot(slot)
		g.Exit()
		if verr == nil {
			continue
		}
		cerr := &CorruptionError{Shard: s.sh.shard, Slot: slot, Err: verr}
		s.quarantine(slot, cerr)
		damaged = append(damaged, DamagedRoot{Shard: s.sh.shard, Slot: slot, Err: cerr})
	}
	return damaged
}

// Scrub re-verifies every claimed root across all shards with bounded
// pacing (pace sleep between roots; 0 scrubs flat out), quarantining
// any damage found and returning it. Healthy stores return nil. Safe to
// run in the background against a serving store: each root's walk pins
// the reclamation epoch, and already-quarantined roots simply fail
// verification again without double-reporting to the quarantine set.
func (db *DB) Scrub(pace time.Duration) []DamagedRoot {
	var damaged []DamagedRoot
	for _, s := range db.shards {
		damaged = append(damaged, scrubStore(s, pace)...)
	}
	return damaged
}
