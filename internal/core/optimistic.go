package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Two-tier commit path for Basic-interface updates (DESIGN.md §12).
//
// Tier 1 — optimistic CAS publication. A writer snapshots the committed
// root pointer without locking, builds its shadow version in its own
// edit run, fences, and publishes with an 8-byte compare-and-swap on the
// root cell. Writers on one root build their shadows in parallel; only
// the CAS itself serializes. A loser retires its shadow chain through
// the existing EBR and retries.
//
// Tier 2 — flat combining. A writer that keeps losing the CAS (or that
// finds a round in flight) enrolls its pending operation in the store's
// commit queue (batch.go), the one CommitAsync uses. Whoever leads the
// queue — this writer, if it is idle — commits the queued ops as one
// round (Store.round): every op on a root applied on one shared edit
// context against one base version, published with a single flush+sfence
// epoch — contention amortizes fences (fences/op = 1/B for a B-op round)
// instead of queueing them.
//
// Safety against the lock-based commit paths — every publication through
// publish (batch.go): CommitSingle, CommitSiblings and parent-bound
// updates, CommitUnrelated, a Batch on one shard or several, queue
// rounds, binds: those hold the root's mutex from base-version read to
// publication, and the CAS here briefly takes the same mutex, so a CAS
// can never land between a locked path's read and its SetRoot.
//
// Reclamation: a winner releases the version it replaced with
// Heap.ReleaseDeferred — the decrement-and-cascade runs only after the
// EBR grace period, because a concurrent optimistic builder may have
// based its shadow on that version and still be retaining children out
// of it. Losing shadow chains were never published and are released
// eagerly.

// rootOp applies one deferred Basic-interface update against a root's
// then-current version inside the given edit context, returning the new
// version's address (cur itself for a no-op). It must be replayable: a
// CAS retry applies it again against a fresh base, and a commit-queue
// round once more after that; only the final application's captured
// results survive. Each update is one constructor in handles.go, which
// the Basic method and its Batch twin (batchOp.apply) share.
type rootOp func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr

// addrVersion adapts a bare version address to the Version interface for
// the locked commit path.
type addrVersion pmem.Addr

func (a addrVersion) Addr() pmem.Addr { return pmem.Addr(a) }

// casAttempts is K, the number of optimistic publication attempts before
// a writer enrolls in the store's commit queue. Failed pre-checks (root
// moved, or a round in flight, before the fence was paid) count as
// attempts.
const casAttempts = 2

// commitCounters tracks which tier commits take, for the fence-accounting
// tests and the contention sweep's BENCH columns.
type commitCounters struct {
	fastWins      atomic.Uint64 // optimistic CAS publications
	fastAborts    atomic.Uint64 // pre-fence aborts: root moved, or a round in flight, before the fence was paid
	fastLosses    atomic.Uint64 // post-fence CAS failures
	combines      atomic.Uint64 // queue rounds that carried enrolled Basic updates
	combinedOps   atomic.Uint64 // enrolled Basic updates those rounds published
	lockedCommits atomic.Uint64 // parent-bound Basic commits
}

// CommitStats is a snapshot of the two-tier commit path's counters.
type CommitStats struct {
	// FastWins counts updates published by a first- or second-try CAS.
	FastWins uint64
	// FastAborts counts optimistic attempts abandoned before paying the
	// commit fence because the root had already moved or a commit-queue
	// round was in flight.
	FastAborts uint64
	// FastLosses counts optimistic attempts that paid the commit fence
	// and then lost the CAS.
	FastLosses uint64
	// Combines counts commit-queue rounds that carried enrolled Basic
	// updates (flat combining).
	Combines uint64
	// CombineRetries is always zero: a queue round holds its roots'
	// commit mutexes from base read to publication, so it cannot lose to
	// a lock-path commit. The field stays because benchmark/srv.go names
	// it.
	CombineRetries uint64
	// CombinedOps counts enrolled Basic updates published by queue
	// rounds; CombinedOps/Combines is the achieved fence amortization.
	CombinedOps uint64
	// LockedCommits counts parent-bound Basic updates, which commit under
	// the parent's root mutex.
	LockedCommits uint64
}

// CommitStats returns a snapshot of the commit-tier counters, shared by
// all handles of the store.
func (s *Store) CommitStats() CommitStats {
	c := &s.sh.cstats
	return CommitStats{
		FastWins:      c.fastWins.Load(),
		FastAborts:    c.fastAborts.Load(),
		FastLosses:    c.fastLosses.Load(),
		Combines:      c.combines.Load(),
		CombinedOps:   c.combinedOps.Load(),
		LockedCommits: c.lockedCommits.Load(),
	}
}

// update routes one Basic-interface operation through the two-tier
// commit path: optimistic CAS publication, then flat combining on the
// store's commit queue, where the op returns once a round has published
// it. A round in flight is joined instead of fought. Parent-bound
// structures keep the serialized locked path.
func (s *Store) update(ds Datastructure, apply rootOp) {
	loc := ds.base().loc
	if loc.parent != nil {
		s.updateParentBound(ds, apply)
		return
	}
	for i := 0; i < casAttempts && !s.sh.queue.leading.Load(); i++ {
		if s.tryOptimistic(loc.slot, ds, apply) {
			return
		}
	}
	t := s.submit([]batchOp{{ds: ds, apply: apply}}, subBasic)
	t.Wait()
	if err := t.Err(); err != nil {
		// The round panicked applying this op: raise it here, where the
		// CAS tier would have, the damaged node's own panic included.
		var ce *CorruptionError
		if errors.As(err, &ce) {
			panic(ce.Err)
		}
		panic(err)
	}
}

// updateParentBound is the locked tier: lock the parent's root, reload
// the field's committed version, apply, commit a parent shadow as a
// one-update CommitSiblings, which publishes through publish. Sibling
// fields share one committed pointer, so a per-field CAS would race the
// parent shadow build.
func (s *Store) updateParentBound(ds Datastructure, apply rootOp) {
	h := ds.base()
	loc := h.loc
	mu := &s.sh.rootMu[loc.parent.slot]
	mu.Lock()
	defer mu.Unlock()
	loc.parent.refreshLocked()
	cur := loc.parent.fieldAddr(loc.slot)
	h.adopt(cur)
	s.BeginFASE()
	ed := s.heap.BeginEdit()
	final := apply(s, ed, cur)
	ed.Seal()
	if final != cur {
		if err := s.commitSiblingsLocked(loc.parent, []Update{{DS: ds, Shadows: []Version{addrVersion(final)}}}); err != nil {
			panic(fmt.Sprintf("core: update of %q under parent %q found a stale base with the parent's root locked and its block just reloaded (commit bookkeeping bug, not a caller race): %v", ds.Name(), loc.parent.Name(), err))
		}
		s.sh.cstats.lockedCommits.Add(1)
	}
	s.EndFASE()
}

// publishRoot is the ordering point of an optimistic one-root
// publication (paper §4.1, Fig. 8b): one fence makes every outstanding
// shadow flush durable, then an 8-byte compare-and-swap against old on
// the root cell publishes final. A selective structure whose record
// chain has grown past the checkpoint threshold folds the chain into a
// fresh checkpoint here, ahead of the same fence (DESIGN.md §10). The CAS is taken under the root's commit mutex for
// the 8 bytes only — shadow builds stay lock-free — so it can never land
// inside a locked path's read-to-publish window (publish, batch.go).
// Reports whether final was published; retiring old (or a losing final)
// is the caller's.
func (s *Store) publishRoot(slot int, old, final pmem.Addr) bool {
	s.maybeCheckpoint(final)
	s.commitBegin()
	s.heap.Fence() // the FASE's single ordering point; reclaims retired blocks
	mu := &s.sh.rootMu[slot]
	mu.Lock()
	won := s.heap.CasRoot(slot, old, final)
	mu.Unlock()
	s.commitEnd()
	return won
}

// tryOptimistic is one tier-1 attempt: build the shadow against an
// unlocked snapshot of the root, fence, CAS-publish. Returns false if
// the attempt lost (shadow retired, caller retries or enrolls). The
// epoch pin brackets the whole attempt, so the base version — even once
// superseded and release-deferred by a winner — cannot be cascaded or
// recycled while this builder still retains children out of it.
func (s *Store) tryOptimistic(slot int, ds Datastructure, apply rootOp) bool {
	g := s.heap.Enter()
	defer g.Exit()
	old := s.heap.Root(slot)
	s.BeginFASE()
	ed := s.heap.BeginEdit()
	final := apply(s, ed, old)
	ed.Seal()
	if final == old {
		s.EndFASE()
		ds.base().adopt(old)
		return true // no-op update: nothing to publish, no fence
	}
	if s.heap.Root(slot) != old || s.sh.queue.leading.Load() {
		// The root already moved, so the CAS is doomed, or a queue round
		// is in flight and likely to move it: abort before paying the
		// fence. Keeping doomed fences off the device is what holds
		// fences/op at W>1 near the W=1 level.
		s.EndFASE()
		s.heap.Release(final)
		s.sh.cstats.fastAborts.Add(1)
		return false
	}
	won := s.publishRoot(slot, old, final)
	s.EndFASE()
	if !won {
		s.heap.Release(final) // never published: eager retire is safe
		s.sh.cstats.fastLosses.Add(1)
		return false
	}
	s.sh.cstats.fastWins.Add(1)
	s.heap.ReleaseDeferred(old)
	ds.base().adopt(final)
	return true
}
