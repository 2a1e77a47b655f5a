package core

import (
	"fmt"
	"runtime"
	"sync"
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
// sees a combiner already active) enrolls its pending operation in the
// root's combining queue. One writer elects itself combiner, drains the
// queue and commits the drained ops as a one-root batch (commitBatch):
// every op applied on one shared edit context against one base version,
// published with a single flush+sfence epoch — contention amortizes
// fences (fences/op = 1/B for a B-op combine) instead of queueing them.
//
// Safety against the lock-based commit paths (Commit*, Batch, combining
// rounds, binds, sharded manifests): those hold the root's mutex from
// base-version read to publication, and the CAS here briefly takes the
// same mutex, so a CAS can never land between a locked path's read and
// its SetRoot.
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
// CAS retry applies it again against a fresh base, and a combiner once
// more after that; only the final application's captured results
// survive. Each update is one constructor in handles.go, which the Basic
// method and its Batch twin (batchOp.apply) share.
type rootOp func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr

// addrVersion adapts a bare version address to the Version interface for
// the locked commit path.
type addrVersion pmem.Addr

func (a addrVersion) Addr() pmem.Addr { return pmem.Addr(a) }

// casAttempts is K, the number of optimistic publication attempts before
// a writer enrolls in the root's flat-combining queue. Failed pre-checks
// (root moved before the fence was paid) count as attempts.
const casAttempts = 2

// fcRoot is one root's flat-combining state. An enrolled operation is a
// one-op submission whose ticket resolves once a combiner has applied and
// published it.
type fcRoot struct {
	mu        sync.Mutex
	pending   []submission
	combining atomic.Bool
	busyUntil float64 // combiner sim-time watermark; guarded by combining ownership
}

// commitCounters tracks which tier commits take, for the fence-accounting
// tests and the contention sweep's BENCH columns.
type commitCounters struct {
	fastWins      atomic.Uint64 // optimistic CAS publications
	fastAborts    atomic.Uint64 // pre-fence aborts: root moved before the fence was paid
	fastLosses    atomic.Uint64 // post-fence CAS failures
	combines      atomic.Uint64 // combining rounds that published (or merged to a no-op)
	combinedOps   atomic.Uint64 // operations drained by combiners
	lockedCommits atomic.Uint64 // parent-bound Basic commits
}

// CommitStats is a snapshot of the two-tier commit path's counters.
type CommitStats struct {
	// FastWins counts updates published by a first- or second-try CAS.
	FastWins uint64
	// FastAborts counts optimistic attempts abandoned before paying the
	// commit fence because the root had already moved.
	FastAborts uint64
	// FastLosses counts optimistic attempts that paid the commit fence
	// and then lost the CAS.
	FastLosses uint64
	// Combines counts flat-combining rounds that committed.
	Combines uint64
	// CombineRetries is always zero: a combining round holds the root's
	// commit mutex from base read to publication, so it cannot lose to a
	// lock-path commit. The field stays because benchmark/srv.go names it.
	CombineRetries uint64
	// CombinedOps counts operations drained and applied by combiners;
	// CombinedOps/Combines is the achieved fence amortization.
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
// commit path: optimistic CAS publication, then flat-combining fallback.
// Parent-bound structures keep the serialized locked path.
func (s *Store) update(ds Datastructure, apply rootOp) {
	loc := ds.base().loc
	if loc.parent != nil {
		s.updateParentBound(ds, apply)
		return
	}
	fc := &s.sh.fc[loc.slot]
	for i := 0; i < casAttempts; i++ {
		if fc.combining.Load() {
			break // a combiner is active: join it instead of fighting the CAS
		}
		if s.tryOptimistic(loc.slot, ds, apply) {
			return
		}
	}
	s.enroll(fc, ds, apply)
}

// updateParentBound is the locked tier: lock the parent's root, reload
// the field's committed version, apply, commit a parent shadow. Sibling
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

// publishRoot is the single ordering point of a one-root publication
// (paper §4.1, Fig. 8b): one fence makes every outstanding shadow flush
// durable, then an 8-byte atomic write to the root cell publishes final.
// A selective structure whose record chain has grown past the checkpoint
// threshold folds the chain into a fresh checkpoint here, adding a second
// fence for that rare commit (DESIGN.md §10).
//
// A caller holding the root's commit mutex since it read old passes
// cas=false and always wins. An optimistic builder passes cas=true: the
// write becomes a compare-and-swap against old, taken under the mutex for
// the 8 bytes only — shadow builds stay lock-free — so neither tier can
// publish inside the other's read-to-publish window. It also loses when a
// multi-root record naming the root is still live with no fence covering
// it (retireCovered). Reports whether final was published; retiring old
// (or a losing final) is the caller's.
func (s *Store) publishRoot(slot int, old, final pmem.Addr, cas bool) bool {
	crown := s.maybeCheckpoint(final)
	s.commitBegin()
	s.heap.Fence() // the FASE's single ordering point; reclaims retired blocks
	s.clearCrown(crown)
	won := true
	if cas {
		mu := &s.sh.rootMu[slot]
		mu.Lock()
		won = s.retireCovered(slot) && s.heap.CasRoot(slot, old, final)
		mu.Unlock()
	} else {
		s.retireCovered(-1)
		s.heap.SetRoot(slot, final)
	}
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
	if s.heap.Root(slot) != old {
		// The root already moved: the CAS is doomed, so abort before
		// paying the fence. Keeping doomed fences off the device is what
		// holds fences/op at W>1 to the W=1 level.
		s.EndFASE()
		s.heap.Release(final)
		s.sh.cstats.fastAborts.Add(1)
		return false
	}
	won := s.publishRoot(slot, old, final, true)
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

// enroll is tier 2: queue the op on the root's flat-combining list, then
// either become the combiner or wait for one to apply the op.
func (s *Store) enroll(fc *fcRoot, ds Datastructure, apply rootOp) {
	t := &Ticket{done: make(chan struct{})}
	fc.mu.Lock()
	fc.pending = append(fc.pending, submission{ops: []batchOp{{ds: ds, apply: apply}}, ticket: t})
	fc.mu.Unlock()
	for {
		if t.Done() {
			return
		}
		if fc.combining.CompareAndSwap(false, true) {
			s.combine(fc)
			fc.combining.Store(false)
			if t.Done() {
				return
			}
			continue // enqueued after the drain cut: combine again
		}
		runtime.Gosched()
	}
}

// combine drains the pending queue and commits every drained op as one
// batch on the root — the same fence amortization as a Batch, earned from
// contention instead of from the caller batching explicitly, and the same
// publication: commitBatch holds the root's commit mutex from base read to
// SetRoot, so a racing lock-path commit waits for the round (and the round
// for it) instead of costing it a fence. Exactly one goroutine runs combine
// per root at a time (the combining flag).
//
// Simulated clocks are per-goroutine and a Go mutex wait costs no
// simulated nanoseconds, so back-to-back rounds run by different handles
// would otherwise overlap in simulated time: the combiner advances its
// clock to the watermark the previous round left and records its own exit
// time.
func (s *Store) combine(fc *fcRoot) {
	fc.mu.Lock()
	subs := fc.pending
	fc.pending = nil
	fc.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	if now := s.dev.LocalNs(); now < fc.busyUntil {
		s.dev.ChargeCompute(fc.busyUntil - now)
	}
	ops := make([]batchOp, 0, len(subs))
	for _, sub := range subs {
		ops = append(ops, sub.ops...)
	}
	s.commitBatch(ops)
	fc.busyUntil = s.dev.LocalNs() // at or past the old watermark by now
	s.sh.cstats.combines.Add(1)
	s.sh.cstats.combinedOps.Add(uint64(len(ops)))
	for _, sub := range subs {
		close(sub.ticket.done)
	}
}
