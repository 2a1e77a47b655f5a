// Package core implements MOD — Minimally Ordered Durable datastructures —
// the primary contribution of Haria, Hill & Swift (ASPLOS 2020). It layers
// failure atomicity on the purely functional datastructures of package
// funcds using Functional Shadowing (§4.1): every update builds a durable
// shadow with unordered, overlapped flushes, and a Commit step with a
// single ordering point atomically swaps an 8-byte persistent pointer from
// the original version to the shadow.
//
// Two interfaces are exposed, following §4.3:
//
//   - The Basic interface: handles (Map, Set, Vector, Stack, Queue) whose
//     update methods look mutable and are each a self-contained FASE with
//     one fence.
//
//   - The Composition interface: Pure* methods return shadow versions
//     without committing; CommitSingle, CommitSiblings, and
//     CommitUnrelated (§5.1, Fig. 8) atomically install one or more
//     shadows with one fence each. Several unrelated roots publish as
//     one group staged in the heap's stage table (batch.go, alloc's
//     StageGroup) — one fence, the same path a multi-root Batch takes —
//     where the paper's Fig. 8d runs an undo-logged pointer transaction.
//
// Recovery (§5.3) decides the staged groups from their own slots and the
// root cells they name, then runs a reachability pass over the heap from
// the named roots: interrupted-FASE allocations are swept, reference
// counts rebuilt.
//
// # Concurrency
//
// A Store value is a handle onto shared store state; Fork derives a
// handle with its own simulated clock for a worker goroutine. Committed
// versions are immutable, which makes concurrency natural:
//
//   - Basic-interface writers publish optimistically (optimistic.go): an
//     update snapshots the committed root pointer without locking, builds
//     its shadow in its own edit run, fences, and CAS-publishes the root.
//     A writer that keeps losing the CAS enrolls in the store's commit
//     queue, the one CommitAsync uses; whichever writer leads it commits
//     all queued ops as one batch: one edit per root, one fence. Updates
//     remain
//     linearizable across handles and goroutines, and same-root writers
//     scale instead of queueing on a mutex. Composition-interface users
//     must keep a single logical writer per root between Pure* and
//     Commit*; the commit step returns ErrConcurrentWriter if it detects
//     a stale base version. Lock-based paths (Commit*, Batch, queue
//     rounds, binds) serialize on per-root mutexes from base read to
//     publication, which the optimistic publication CAS also briefly
//     takes, so the two tiers interleave safely.
//
//   - A publication has one ordering point, written twice: an
//     optimistic publication of one root fences, then CASes the root
//     cell (publishRoot); every locked one — CommitSingle,
//     CommitSiblings and every parent-bound update, CommitUnrelated, a
//     Batch on one shard or several, a queue round, a root's or a
//     field's first bind — stages its roots if it must, fences, then
//     writes the cells (publish, batch.go).
//
//   - Readers never take root mutexes. Snapshot() pins a reclamation
//     epoch (alloc/epoch.go), atomically reads the root pointer, and
//     returns an immutable version that remains valid — never reclaimed,
//     never torn — until Close, regardless of concurrent commits.
//
// Version publication itself is the 8-byte root-pointer store of the
// paper's commit step, atomic for readers and for crashes alike.
package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/trace"
)

// storeShared is the state common to all handles of one store: one commit
// mutex per root slot, the commit queue (batch.go), the commit-path
// counters (optimistic.go), and the closed flag every handle observes.
type storeShared struct {
	shard  int // index among the DB's shards; labels corruption reports
	rootMu [alloc.RootSlots]sync.Mutex
	queue  commitQueue
	cstats commitCounters
	closed atomic.Bool

	// Quarantined root slots (corrupt.go): damage found by open-time
	// verification or a Scrub. quarCount's atomic load keeps the
	// healthy-store bind path lock-free.
	quarMu    sync.Mutex
	quar      map[int]error
	quarCount atomic.Int32

	// The store's flavor (DESIGN.md §10), fixed when Open returns: a
	// selective store creates its new roots selectively persisted and
	// serves navigation nodes from the DRAM node cache. Every store
	// folds the record chain of each selective root it hosts once it
	// reaches checkpointEvery records.
	selective       bool
	checkpointEvery uint64
}

// defaultCheckpointEvery is the record-chain length that triggers a
// checkpoint fold unless WithSelective sets another. The crown a fold
// seals is bounded by the live navigation-node count, so the amortized
// cost per update is roughly treeLines/checkpointEvery: the interval must
// be large relative to the structure's interior for selective
// persistence to keep its flush advantage, and small enough to bound
// recovery replay (the chain is replayed oldest-first on open).
const defaultCheckpointEvery = 32768

// newShared returns the shared state of a new handle family for shard
// number shard of its DB.
func newShared(shard int) *storeShared {
	sh := &storeShared{shard: shard, checkpointEvery: defaultCheckpointEvery}
	sh.queue.maxOps = DefaultCommitterMaxOps
	return sh
}

// Store is a handle onto a persistent heap hosting MOD datastructures,
// located across process lifetimes by named roots. Derive one handle per
// goroutine with Fork; handles share all store state but carry their own
// simulated clock.
type Store struct {
	dev  pmem.Backend
	heap *alloc.Heap
	sh   *storeShared
}

// newStore formats dev as a single heap and returns an empty store.
// Callers outside the package go through Open, which formats one store
// per shard region.
func newStore(dev pmem.Backend) *Store { return storeOn(dev, alloc.Format(dev), 0) }

// storeOn returns a store handle over heap on dev, shard number shard of
// its DB.
func storeOn(dev pmem.Backend, heap *alloc.Heap, shard int) *Store {
	registerWalkers(heap)
	return &Store{dev: dev, heap: heap, sh: newShared(shard)}
}

// attachStore opens the heap on dev. The returned handle is not usable
// until recoverHeap has decided the heap's staged groups and rebuilt its
// volatile state; Open rolls groups spanning shards forward between the
// two. shard is the store's index among the DB's shards.
func attachStore(dev pmem.Backend, shard int) (*Store, error) {
	heap, err := alloc.Open(dev)
	if err != nil {
		return nil, err
	}
	return storeOn(dev, heap, shard), nil
}

// recoverHeap is the expensive half of attaching a store (recovery per
// §5.3): the heap's staged groups are decided — rolled forward, applied
// or discarded whole — around the reachability scan that rolls the heap
// back to its roots and garbage-collects unreachable blocks, then the
// corruption-resilience phases (corrupt.go) — verification runs after
// the scan and before selective navigation is rebuilt, so replay never
// runs over a record chain that no longer verifies; without eager
// verification the heap arms lazy on-read checks instead.
func (s *Store) recoverHeap(vc verifyConfig) (alloc.RecoveryStats, []DamagedRoot, error) {
	start := s.dev.LocalNs()
	rs, err := s.heap.Recover()
	if err != nil {
		return rs, nil, err
	}
	var (
		damaged []DamagedRoot
		skip    map[int]bool
	)
	if vc.verify {
		damaged, skip = verifyHeap(s.heap, s.sh.shard, vc.salvage)
	}
	replayed, err := rebuildSelectiveRoots(s.heap, skip)
	if err != nil {
		return rs, damaged, err
	}
	if !vc.verify {
		s.heap.ArmLazyVerify()
	}
	s.dev.NoteRecovery(replayed, s.dev.LocalNs()-start)
	return rs, damaged, nil
}

func registerWalkers(heap *alloc.Heap) {
	funcds.RegisterWalkers(heap)
	heap.RegisterWalker(funcds.TagParent, walkParent)
}

// Fork returns a new handle onto the same store whose device and heap
// handles carry a fresh per-goroutine clock. Handles bound through the
// forked store account their simulated time to that goroutine.
func (s *Store) Fork() *Store {
	h := s.heap.Fork()
	return &Store{dev: h.Device(), heap: h, sh: s.sh}
}

// Device returns this handle's underlying persistent memory device handle.
func (s *Store) Device() pmem.Backend { return s.dev }

// Heap returns this handle's persistent allocator handle.
func (s *Store) Heap() *alloc.Heap { return s.heap }

// Stats returns the device counters accumulated so far.
func (s *Store) Stats() pmem.Stats { return s.dev.Stats() }

// Closed reports whether Close has been called on any handle of this
// store.
func (s *Store) Closed() bool { return s.sh.closed.Load() }

// Close makes everything committed so far durable and shuts the store
// down: it drains the commit queue, then a final fence covers the last
// publication, and every subsequent bind returns ErrStoreClosed while
// CommitAsync resolves its ticket with ErrStoreClosed instead of hanging.
// Close is idempotent — second and later calls (from any handle) return
// nil without re-running shutdown — and safe on a store whose open
// failed partway.
func (s *Store) Close() error {
	if s == nil || !s.sh.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Marking closed first refuses new CommitAsync submissions; the
	// barrier is published once every batch accepted before is.
	s.submit(nil, subBarrier).Wait()
	s.heap.Fence()
	return nil
}

// CheckerConfig returns the trace-checker configuration for this store:
// the allocator superblock and the stage table are updated in place by
// design and are exempt from the out-of-place invariant.
func (s *Store) CheckerConfig() trace.CheckerConfig {
	return trace.CheckerConfig{
		ExemptRanges: [][2]pmem.Addr{
			alloc.SuperblockRange(),
			s.heap.StageTableRange(),
		},
		AllowUnflushedTail: true,
	}
}

// Sync orders every outstanding flush — including the most recent
// commit's root-pointer write, whose durability is otherwise guaranteed
// only by the next FASE's fence — and reclaims every retired block no
// pinned reader can reach. It first drains the commit queue of every
// batch submitted before the call, so Sync remains the single
// "everything so far is durable" point. Call it before planned shutdown
// or when an operation must be durable on return. On a closed store Sync
// is a no-op: Close already fenced everything.
func (s *Store) Sync() {
	if s == nil || s.sh.closed.Load() {
		return
	}
	s.submit(nil, subBarrier).Wait()
	s.heap.Fence()
	// Fence reclaims deferred releases incrementally; Sync is the
	// "everything reclaimable is reclaimed" point, so drain the rest.
	s.heap.Drain()
}

// resolveForRead reads a location's current committed version pointer
// without locks, for snapshotting. The caller must have pinned the
// reclamation epoch first so the version cannot be recycled between the
// pointer load and the traversal.
func (s *Store) resolveForRead(loc location) pmem.Addr {
	if loc.parent != nil {
		paddr := s.heap.Root(loc.parent.slot)
		return pmem.Addr(s.dev.ReadU64(paddr + 8 + pmem.Addr(loc.slot*8)))
	}
	return s.heap.Root(loc.slot)
}

// BeginFASE marks the start of a failure-atomic section for trace-based
// verification (§5.4). The Basic interface brackets its operations
// automatically; Composition-interface users bracket manually or use FASE.
func (s *Store) BeginFASE() {
	if t := s.dev.Tracer(); t != nil {
		t.FASEBegin()
	}
}

// EndFASE marks the end of a failure-atomic section.
func (s *Store) EndFASE() {
	if t := s.dev.Tracer(); t != nil {
		t.FASEEnd()
	}
}

// FASE runs fn bracketed as one failure-atomic section.
func (s *Store) FASE(fn func()) {
	s.BeginFASE()
	fn()
	s.EndFASE()
}

func (s *Store) commitBegin() {
	if t := s.dev.Tracer(); t != nil {
		t.CommitBegin()
	}
}

func (s *Store) commitEnd() {
	if t := s.dev.Tracer(); t != nil {
		t.CommitEnd()
	}
}

// Version is one shadow version of a MOD datastructure, produced by the
// Pure* update operations.
type Version interface {
	// Addr returns the persistent address of the version's header (a
	// plain map's or set's root node).
	Addr() pmem.Addr
}

// Datastructure is a MOD handle that can be the target of a Commit: one
// of the five handle types, each of which embeds handle.
type Datastructure interface {
	// Name returns the root or field name the handle is bound to.
	Name() string
	base() *handle
}

// location identifies where a datastructure's current-version pointer
// lives: a named root slot, or a field of a parent object.
type location struct {
	parent *Parent
	slot   int // root slot index, or parent field index
}

// checkCurrent returns ErrConcurrentWriter (wrapped with context) if the
// committed pointer in PM does not match the version a commit is about
// to replace — the signature of two logical writers racing on one root
// without coordination (the Composition interface requires one writer
// per root between Pure* and Commit*).
func (s *Store) checkCurrent(slot int, old pmem.Addr, what string) error {
	if cur := s.heap.Root(slot); cur != old {
		return fmt.Errorf("core: %s: base version %#x is stale (committed is %#x); one writer per root required between Pure* and Commit*: %w", what, uint64(old), uint64(cur), ErrConcurrentWriter)
	}
	return nil
}

// makeSelective gives the store the selective flavor (DESIGN.md §10):
// root binders create selectively persisted structures from now on, the
// heap's DRAM node cache is on, and record chains fold once they reach
// every records (every <= 0 keeps defaultCheckpointEvery). Open calls it
// before the store serves anything; roots that already exist keep their
// flavor.
func (s *Store) makeSelective(every int) {
	s.sh.selective = true
	if every > 0 {
		s.sh.checkpointEvery = uint64(every)
	}
	s.heap.EnableNodeCache()
}

// maybeCheckpoint folds a selective structure's record chain into a fresh
// checkpoint when it has grown to the store's interval, and reports
// whether it folded. It runs before the commit bracket: the sealed crown
// and the checkpoint clone are ordinary shadow work, made durable by the
// commit fence ahead of the swap (DESIGN.md §10). A non-selective final
// costs one tag read.
func (s *Store) maybeCheckpoint(final pmem.Addr) bool {
	if final == pmem.Nil || !funcds.NeedsCheckpoint(s.heap, final, s.sh.checkpointEvery) {
		return false
	}
	funcds.PrepareCheckpoint(s.heap, final)
	return true
}

// rebuildSelectiveRoots reconstructs the DRAM-resident navigation of every
// selective structure root after a crash: each root's record chain is
// replayed on top of its durable checkpoint (funcds.RebuildSelective) and
// the rebuilt header republished. The swap is fenced on both sides so the
// old header retires only once the replacement is durably published; its
// navigation words, which recovery neither followed nor counted, are
// dropped first. Slots in skip — quarantined or already salvaged by
// verifyHeap — are left untouched. Returns the number of record
// operations replayed.
func rebuildSelectiveRoots(heap *alloc.Heap, skip map[int]bool) (uint64, error) {
	var total uint64
	for slot := 0; slot < alloc.RootSlots; slot++ {
		if skip[slot] {
			continue
		}
		root := heap.Root(slot)
		if !funcds.IsSelective(heap, root) {
			continue
		}
		newHdr, replayed, err := funcds.RebuildSelective(heap, root)
		if err != nil {
			return total, fmt.Errorf("core: rebuilding selective root (slot %d): %w", slot, err)
		}
		total += uint64(replayed)
		heap.Fence()
		heap.SetRoot(slot, newHdr)
		heap.Fence()
		funcds.DropNavigation(heap, root)
		heap.Release(root)
	}
	return total, nil
}

// CommitSingle atomically replaces ds's current version with the last
// shadow in the chain, reclaiming the original and all intermediate
// shadows (Fig. 7a/b, Fig. 8b): a root-bound structure commits as a
// one-update CommitUnrelated, a parent-bound one as a one-update
// CommitSiblings. Returns ErrConcurrentWriter (and publishes nothing) if
// ds's base version is no longer the committed one — two uncoordinated
// writers raced on the root; the caller should rebuild from Current and
// retry.
func (s *Store) CommitSingle(ds Datastructure, shadows ...Version) error {
	if len(shadows) == 0 {
		return nil
	}
	u := Update{DS: ds, Shadows: shadows}
	if p := ds.base().loc.parent; p != nil {
		return s.CommitSiblings(p, u)
	}
	return s.CommitUnrelated(u)
}

// intermediates appends the distinct non-final shadows of a chain to dst,
// in chain order. Under an edit context successive operations mutate one
// owned version in place, so the chain repeats a single address: dedupe,
// and never list the published final version.
func intermediates(dst []pmem.Addr, shadows []Version) []pmem.Addr {
	final := shadows[len(shadows)-1].Addr()
	first := len(dst)
	for _, sh := range shadows[:len(shadows)-1] {
		if a := sh.Addr(); a != final && !slices.Contains(dst[first:], a) {
			dst = append(dst, a)
		}
	}
	return dst
}

// Update pairs a datastructure with the shadow chain to install, for
// CommitSiblings and CommitUnrelated.
type Update struct {
	DS      Datastructure
	Shadows []Version
}

func (u Update) final() pmem.Addr { return u.Shadows[len(u.Shadows)-1].Addr() }

// adopt notes each update's intermediate shadows for finish to retire
// and points its handle at its final version.
func (p *preparedBatch) adopt(updates []Update) {
	for _, u := range updates {
		p.releases = intermediates(p.releases, u.Shadows)
		u.DS.base().adopt(u.final())
	}
}

// CommitSiblings atomically installs updates to datastructures that are
// fields of one parent object (Fig. 8c): a shadow of the parent pointing
// at the new versions is built and flushed, and it publishes as a
// one-root commit through publish (batch.go): one fence orders
// everything, then the parent's root pointer is swapped. Reclaiming the
// old parent cascades to the replaced versions. Updates whose final is
// the field's current version change nothing; when none changes a
// field, nothing is published or fenced. Returns ErrConcurrentWriter
// (and publishes nothing) if the parent moved under the caller.
func (s *Store) CommitSiblings(p *Parent, updates ...Update) error {
	if len(updates) == 0 {
		return nil
	}
	mu := &s.sh.rootMu[p.slot]
	mu.Lock()
	defer mu.Unlock()
	return s.commitSiblingsLocked(p, updates)
}

func (s *Store) commitSiblingsLocked(p *Parent, updates []Update) error {
	newFields := make([]pmem.Addr, len(p.fields))
	changed := make([]bool, len(p.fields))
	for i := range p.fields {
		newFields[i] = p.fieldAddr(i)
	}
	for _, u := range updates {
		loc := u.DS.base().loc
		if loc.parent != p {
			panic("core: CommitSiblings update does not belong to this parent")
		}
		if len(u.Shadows) == 0 {
			panic("core: CommitSiblings update with no shadows")
		}
		if f := u.final(); f != newFields[loc.slot] {
			newFields[loc.slot] = f
			changed[loc.slot] = true
		}
	}
	oldParent := p.Addr()
	if err := s.checkCurrent(p.slot, oldParent, "CommitSiblings"); err != nil {
		return err
	}
	b := &preparedBatch{s: s}
	if slices.Contains(changed, true) {
		// Build and flush the parent shadow; unchanged fields gain a parent.
		shadow := newParentBlock(s.heap, newFields)
		for i, f := range newFields {
			if !changed[i] && f != pmem.Nil {
				s.heap.Retain(f)
			}
		}
		b.changed = []rootChange{{slot: p.slot, old: oldParent, final: shadow}}
		p.adopt(shadow)
	}
	b.adopt(updates)
	publish([]*preparedBatch{b})
	b.finish()
	return nil
}

// CommitUnrelated atomically installs updates to multiple unrelated
// root-bound datastructures (Fig. 8d). The paper swaps the root pointers
// in a very short undo-logged transaction; here the shadow chains become
// a prepared batch and publish exactly as a Batch over the same roots
// does (batch.go): one root is a fence and a swap, several are staged as
// one group ahead of the fence — one fence however many roots. An update
// whose final is the committed version changes nothing, and a commit
// that changes no root publishes nothing. Like every Composition commit
// it is published on return and durable at the store's next fence (Sync
// forces one); a crash before that fence keeps all of its swaps or none.
// The commit locks every target root (in slot order, so overlapping
// multi-root commits cannot deadlock). Returns ErrConcurrentWriter (and
// publishes nothing) if any update's base version is stale. Naming a
// root twice, a parent-bound structure, or an update without shadows is
// a caller bug and panics before anything is locked or fenced.
func (s *Store) CommitUnrelated(updates ...Update) error {
	if len(updates) == 0 {
		return nil
	}
	p := &preparedBatch{s: s}
	var named uint64 // the root slots named so far, a bitmask
	for _, u := range updates {
		loc := u.DS.base().loc
		if loc.parent != nil {
			panic("core: CommitUnrelated requires root-bound datastructures")
		}
		if len(u.Shadows) == 0 {
			panic("core: CommitUnrelated update with no shadows")
		}
		if named&(1<<loc.slot) != 0 {
			panic(fmt.Sprintf("core: CommitUnrelated names root %q twice; chain its shadows in one Update", u.DS.Name()))
		}
		named |= 1 << loc.slot
		p.locked = append(p.locked, loc.slot)
	}
	sort.Ints(p.locked)
	for _, slot := range p.locked {
		s.sh.rootMu[slot].Lock()
	}
	for _, u := range updates {
		h := u.DS.base()
		slot, old := h.loc.slot, h.currentAddr()
		if err := s.checkCurrent(slot, old, "CommitUnrelated"); err != nil {
			p.unlock()
			return err
		}
		if final := u.final(); final != old {
			p.changed = append(p.changed, rootChange{slot: slot, old: old, final: final})
		}
	}
	p.adopt(updates)
	publish([]*preparedBatch{p})
	p.finish()
	return nil
}
