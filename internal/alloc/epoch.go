package alloc

import (
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/pmem"
)

// Epoch-based reclamation. MOD's commit step makes every committed
// version immutable, so readers can traverse a version without locks —
// provided the allocator does not recycle its nodes mid-traversal. The
// fence-drained quarantine of the single-threaded design guaranteed
// durability ordering but not reader safety; this file adds the classic
// three-epoch EBR scheme (Fraser; as in crossbeam and the lock-free
// durable sets of Zuriel et al.) on top of it.
//
// Protocol. A global epoch E advances only when every pinned reader has
// observed the current value. Readers pin the epoch (Heap.Enter) before
// loading any root pointer and unpin when done (EpochGuard.Exit). A block
// whose reference count reaches zero is retired, tagged with the current
// epoch and the device fence sequence. It is freed only when
//
//	retire.epoch + 2 <= E    (no reader pinned before the unlink remains)
//	retire.fence < fenceSeq  (a fence made the orphaning root swap durable)
//
// The two-epoch grace period is the standard argument: a reader holding a
// pointer into the block pinned an epoch <= retire.epoch + 1, and E cannot
// advance past retire.epoch + 2 while any such reader is still pinned.
//
// With no readers pinned — every single-threaded workload — reclaim
// advances E freely and the scheme degenerates to the original quarantine:
// Release then Fence frees the block immediately.

// retiredBlock is one zero-reference block awaiting reclamation. A
// deferred release uses only addr and epoch.
type retiredBlock struct {
	addr   pmem.Addr
	epoch  uint64 // global epoch at retirement
	fence  uint64 // device FenceSeq at retirement
	stride uint32 // from the header the cascade parsed; see widenRetired
}

// pinSlot is a registered reader announcement cell. Slots live for the
// heap's lifetime and are recycled through an explicit free list, so the
// slot set — which tryAdvanceLocked scans on every reclaim — stays
// bounded by peak Enter concurrency, not by how many guards were ever
// taken. (A sync.Pool is the obvious alternative, but it sheds entries
// under memory pressure and deliberately under the race detector, and
// every shed entry would grow the scan set for the heap's lifetime.)
// An idle slot (pin 0) never blocks epoch advancement.
type pinSlot struct {
	pin atomic.Uint64 // epoch + 1; 0 = inactive
}

// EpochGuard pins the reclamation epoch for one reader. Obtain with
// Heap.Enter, release with Exit. While pinned, no block unlinked after
// the pin can be recycled, so pointers loaded from committed versions
// stay valid.
//
// A guard is one-shot: Exit releases the underlying slot back to the
// free list and further Exits are no-ops, so double-Close of a snapshot
// (or of copies of one snapshot) is harmless and cannot unpin another
// reader that has since reused the slot.
type EpochGuard struct {
	slot *pinSlot
	eb   *ebrState
	done atomic.Bool
}

// Exit unpins the guard. Exit is idempotent; using the guard's snapshot
// after Exit is a bug.
func (g *EpochGuard) Exit() {
	if g == nil || g.done.Swap(true) {
		return
	}
	g.slot.pin.Store(0)
	g.eb.slotsMu.Lock()
	g.eb.freeSlots = append(g.eb.freeSlots, g.slot)
	g.eb.slotsMu.Unlock()
}

// ebrState is the shared epoch machinery of a heap.
type ebrState struct {
	epoch atomic.Uint64

	slotsMu   sync.Mutex
	slots     []*pinSlot // all slots ever created; pinned or idle
	freeSlots []*pinSlot // idle slots ready for reuse (LIFO)

	mu       sync.Mutex
	retired  []retiredBlock
	deferred []retiredBlock // releases postponed until their epoch grace passes
	ready    []retiredBlock // processDeferred's batch storage; nil while a batch is being cascaded
}

// Enter pins the current epoch and returns the guard. The pin is
// re-validated against the global epoch so a concurrent advance cannot
// leave the guard announcing a stale epoch unobserved by writers.
func (h *Heap) Enter() *EpochGuard {
	eb := &h.sh.ebr
	eb.slotsMu.Lock()
	var slot *pinSlot
	if n := len(eb.freeSlots); n > 0 {
		slot = eb.freeSlots[n-1]
		eb.freeSlots = eb.freeSlots[:n-1]
	} else {
		slot = &pinSlot{}
		eb.slots = append(eb.slots, slot)
	}
	eb.slotsMu.Unlock()
	for {
		e := eb.epoch.Load()
		slot.pin.Store(e + 1)
		if eb.epoch.Load() == e {
			return &EpochGuard{slot: slot, eb: eb}
		}
	}
}

// retireBatch queues zero-reference blocks for reclamation. A cascade is
// published in one batch, after all its walks completed (see
// Heap.retireCascade).
func (eb *ebrState) retireBatch(dead []deadBlock, fence uint64) {
	e := eb.epoch.Load()
	eb.mu.Lock()
	for _, d := range dead {
		eb.retired = append(eb.retired, retiredBlock{addr: d.addr, epoch: e, fence: fence, stride: d.stride})
	}
	eb.mu.Unlock()
}

// widenRetired records that the retired block at addr now spans stride
// bytes. Edit.Seal absorbs a run tail too small to carry a header into
// the run's last block; when that block was released inside its own FASE
// it is already here, under the stride it had when its cascade ran, and
// must reach the free lists under the one its header now carries.
func (eb *ebrState) widenRetired(addr pmem.Addr, stride uint32) {
	eb.mu.Lock()
	for i := range eb.retired {
		if eb.retired[i].addr == addr {
			eb.retired[i].stride = stride
		}
	}
	eb.mu.Unlock()
}

// deferRelease enqueues a publication-side release (a superseded root
// version replaced by a CAS or lock commit) to be decremented and
// cascaded only after the epoch grace period. Deferring the *decrement*
// — not just the free — is what protects lock-free builders: a writer
// that pinned the epoch and based its shadow on this version may still
// Retain children out of it, and an eager cascade could retire a child
// an instant before that Retain resurrects it. No fence stamp is kept:
// the eventual cascade stamps its blocks with the fence sequence at
// cascade time, which is at or past the enqueue-time sequence and so
// already covers the orphaning commit's durability point.
func (eb *ebrState) deferRelease(addr pmem.Addr) {
	e := eb.epoch.Load()
	eb.mu.Lock()
	eb.deferred = append(eb.deferred, retiredBlock{addr: addr, epoch: e})
	eb.mu.Unlock()
}

// processDeferred cascades deferred releases whose epoch grace period
// has passed — at most budget of them — feeding the resulting dead
// blocks into the retired list stamped with the fence sequence observed
// at cascade time. Stamping now rather than at enqueue is deliberate:
// the enqueue-time stamp is long past by the time the grace period ends,
// so the same reclaim round that ran the cascade would free the blocks
// and allow reuse before any further fence — durably safe (the orphaning
// commit's covering fence has executed), but it would break the
// free→fence→alloc ordering the trace checker's I4 invariant audits,
// because cascade-time Free events land after the round's fence event.
// The cascade-time stamp defers the free to the next fence, keeping
// reuse auditable at the cost of one extra fence of quarantine. The
// budget keeps reclamation incremental: cascades cost simulated PM reads
// charged to the calling handle, and after a stretch of pinned epochs
// the queue can hold thousands of entries — cascading them all inside
// one caller's fence would lump the whole backlog's cost onto one
// goroutine's critical path. Entries beyond the budget stay queued for
// later fences (or an exhaustive Drain). Returns the number of entries
// cascaded and whether entries remain that are waiting only on further
// epoch advancement (budget-kept ready entries do not count: advancing
// the epoch would not help them).
func (eb *ebrState) processDeferred(h *Heap, budget int) (used int, epochWaiting bool) {
	e := eb.epoch.Load()
	eb.mu.Lock()
	ready := eb.ready[:0]
	kept := eb.deferred[:0]
	for _, d := range eb.deferred {
		if d.epoch+2 <= e && len(ready) < budget {
			ready = append(ready, d)
		} else {
			kept = append(kept, d)
			if d.epoch+2 > e {
				epochWaiting = true
			}
		}
	}
	eb.deferred = kept
	if len(ready) == 0 {
		eb.mu.Unlock()
		return 0, epochWaiting
	}
	eb.ready = nil // ours until handed back below
	eb.mu.Unlock()
	fence := h.dev.FenceSeq()
	c := h.takeCascade()
	for _, d := range ready {
		if !h.decRef(d.addr, "release") {
			continue
		}
		c.dead = c.dead[:0]
		c.collect(d.addr)
		eb.retireBatch(c.dead, fence)
	}
	h.putCascade(c)
	eb.mu.Lock()
	eb.ready = ready
	eb.mu.Unlock()
	return len(ready), epochWaiting
}

// pendingCount returns the number of retired-but-not-freed blocks,
// including deferred releases not yet cascaded.
func (eb *ebrState) pendingCount() int {
	eb.mu.Lock()
	defer eb.mu.Unlock()
	return len(eb.retired) + len(eb.deferred)
}

// tryAdvanceLocked bumps the global epoch if every pinned reader has
// observed the current one. Caller holds eb.mu.
func (eb *ebrState) tryAdvanceLocked() bool {
	e := eb.epoch.Load()
	eb.slotsMu.Lock()
	for _, s := range eb.slots {
		if p := s.pin.Load(); p != 0 && p != e+1 {
			eb.slotsMu.Unlock()
			return false
		}
	}
	eb.slotsMu.Unlock()
	eb.epoch.Store(e + 1)
	return true
}

// reclaim frees every retired block that is both fence-covered and past
// its epoch grace period, advancing the epoch as far as pinned readers
// allow (with no pinned readers the loop advances freely, degenerating to
// the original quarantine-at-fence behavior). deferBudget bounds how many
// deferred releases this call may cascade (see processDeferred); the free
// pass itself is never bounded — eager cascades were already walked and
// charged at Release time, so freeing is cheap bookkeeping.
func (eb *ebrState) reclaim(h *Heap, deferBudget int) {
	fenceNow := h.dev.FenceSeq()
	for {
		// Deferred releases first: a cascade run this round lands its
		// blocks on the retired list in time for this round's free pass
		// or — with no pinned readers — an epoch advance and the next.
		used, epochBlocked := eb.processDeferred(h, deferBudget)
		deferBudget -= used
		eb.mu.Lock()
		e := eb.epoch.Load()
		kept := eb.retired[:0]
		for _, r := range eb.retired {
			if r.fence < fenceNow && r.epoch+2 <= e {
				h.freeBlock(r)
				continue
			}
			if r.fence < fenceNow {
				epochBlocked = true // waiting only on the epoch grace period
			}
			kept = append(kept, r)
		}
		eb.retired = kept
		advanced := epochBlocked && eb.tryAdvanceLocked()
		eb.mu.Unlock()
		if !advanced || deferBudget <= 0 {
			return
		}
	}
}
