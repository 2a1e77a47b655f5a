package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Group commit (DESIGN.md §7). A Batch coalesces many shadow updates —
// across datastructures, across roots, and (through the commit queue)
// across goroutines — into a single flush+sfence epoch. Every
// operation in the batch builds its shadow with unordered overlapped
// flushes; one shared fence then makes the whole epoch durable and the
// new versions are published together, so the per-FASE ordering point of
// the Basic interface is amortized over the batch:
//
//	fences/op = 1/B         (however many roots the batch touches)
//
// against 1 fence per operation unbatched.
//
// Batched operations are applied at commit time against the then-current
// committed versions, under the root commit mutexes, so batches from
// concurrent goroutines interleave linearizably with each other and with
// Basic-interface updates. Operations do not return values; use the
// Basic interface when an update's result is needed immediately.
//
// # Crash atomicity
//
// A batch is all-or-nothing. When one root changed, publication is the
// usual 8-byte atomic pointer swap. When several changed, the store
// stages a roll-forward redo record — the (cell, new version) pairs, a
// checksum and a live status — in one of its two record slots, makes it
// durable with the shadows under the commit's one fence, and only then
// overwrites the root cells. Every cell holds its old version until that
// fence completes, so a recovering Open rolls a live record forward
// exactly when one of its cells already holds its new version and
// discards it otherwise: a crash anywhere recovers every root swap or
// none of them, and a discarded batch's shadows are swept as leaks. Like
// a one-root swap, the cell writes become durable under the store's next
// fence.
//
// # Async durability
//
// Commit applies and publishes the batch synchronously. CommitAsync
// submits it to the store's commit queue, which coalesces submissions
// from any number of goroutines into shared fence epochs on whichever
// submitter leads it, and returns a Ticket; Ticket.Wait blocks until the
// batch's publication is fence-covered, i.e. fully durable. A batch on
// one root is durable at its own round's fence: the round stages the
// root's publication in the heap's stage table ahead of that fence
// (alloc's StageRoot), and recovery applies a staged publication whose
// blocks re-verify. A batch spanning roots publishes through the batch
// record after the fence, so its ticket is owed: the leader's next
// fencing round resolves it, or the one fence the leader pays before it
// steps down.

// batchLogRoot names the root slot anchoring the store's batch record:
// two redo-record slots (redo.go), through which every multi-root commit
// on one heap — Batch and CommitUnrelated alike — publishes.
const batchLogRoot = "__mod_batchlog"

// MaxBatchRoots is the most distinct roots one batch commit can change,
// bounded by the capacity of a batch-record slot.
const MaxBatchRoots = 62

const (
	recSlotSize  = redoHdrSize + MaxBatchRoots*16
	batchRecSize = 2 * recSlotSize
)

// recSlot returns this handle's view of batch-record slot i (0 or 1).
// Commit seq stages into slot seq&1, so it never overwrites commit seq-1,
// the one record whose swaps may still await a fence.
func (s *Store) recSlot(i int) redoRecord {
	return redoRecord{dev: s.dev, base: s.batchRec + pmem.Addr(i*recSlotSize), max: MaxBatchRoots}
}

// liveRecord is the volatile state of a batch-record slot whose durable
// status may still read live: the commit's sequence number (0 = none)
// and tag, the FenceSeq read after its last cell flush — any fence that
// passes tag has made every swap of the record durable.
type liveRecord struct {
	seq, tag uint64
}

// retireCovered is the retirement step of every ordering point. Called
// after the caller's fence and before its root write, it marks retired
// each live record whose swaps a fence has covered (tag < FenceSeq, the
// allocator's quarantine rule). A live record never rolls back a later
// publication of one of its roots, whether or not a fence covers it:
// replay skips a cell whose publication counter has passed the record's
// word (SwapLanded). Retirement frees the slot for reuse and keeps a
// record from outliving a wrap of that counter.
func (s *Store) retireCovered() {
	if s.sh.liveRecs.Load() == 0 {
		return
	}
	s.sh.recMu.Lock()
	defer s.sh.recMu.Unlock()
	s.retireCoveredLocked()
}

func (s *Store) retireCoveredLocked() {
	fenced := s.dev.FenceSeq()
	for i := range s.sh.live {
		if l := &s.sh.live[i]; l.seq != 0 && l.tag < fenced {
			s.recSlot(i).retire(l.seq)
			*l = liveRecord{}
			s.sh.liveRecs.Add(-1)
		}
	}
}

// replayRecord decides the batch record's live slots on the crash image
// and retires them (DESIGN.md §7). A live slot whose checksum validates
// is rolled forward if at least one of its swaps has landed — a root cell
// it names holds the word the swap wrote, or a later publication's: a
// commit writes no cell before its one fence, which makes the shadows and
// the record durable — and discarded otherwise. Rolling forward rewrites
// only the cells whose swap has not landed: a cell a later publication
// has already moved past keeps it (that publication may be a staged one,
// acknowledged at its own fence while the record's retirement still
// awaited the next). Every slot is decided before any cell is written;
// roll-forwards are idempotent 8-byte writes applied in sequence order,
// so the newer record wins a root both name. Runs before the reachability
// scan so recovery traces the post-commit roots, and numbers the store's
// next commits past every sequence number found, so a slot's old body can
// never validate under a new status.
func (s *Store) replayRecord() error {
	type swap struct {
		slot int
		word uint64
	}
	type decided struct {
		slot  int
		seq   uint64
		swaps []swap // nil: discard
	}
	var live []decided
	for i := range s.sh.live {
		seq, entries, isLive := s.recSlot(i).read()
		if seq >= redoRetired>>1 { // no store commits 2^62 times; numbering on would reach the flag bit
			return fmt.Errorf("core: batch-record slot %d holds sequence number %#x: %w", i, seq, ErrCorrupted)
		}
		s.sh.batchSeq = max(s.sh.batchSeq, seq)
		if !isLive {
			continue
		}
		forward := false
		var swaps []swap
		for _, e := range entries {
			slot, ok := alloc.RootSlotOfCell(e.cell)
			if !ok {
				return fmt.Errorf("core: batch-record slot %d names %#x, not a root cell: %w", i, uint64(e.cell), ErrCorrupted)
			}
			forward = forward || s.heap.SwapLanded(slot, e.word)
			swaps = append(swaps, swap{slot, e.word})
		}
		if !forward {
			swaps = nil
		}
		live = append(live, decided{slot: i, seq: seq, swaps: swaps})
	}
	if len(live) == 0 {
		return nil
	}
	sort.Slice(live, func(a, b int) bool { return live[a].seq < live[b].seq })
	wrote := false
	for _, d := range live {
		for _, w := range d.swaps {
			wrote = s.heap.ReplaySwap(w.slot, w.word) || wrote
		}
	}
	if wrote {
		s.dev.Sfence() // rolled-forward cells durable before the records retire
	}
	for _, d := range live {
		s.recSlot(d.slot).retire(d.seq)
	}
	s.dev.Sfence()
	return nil
}

// batchOp is one deferred update: applied at commit time against the
// root's then-current version inside the batch's shared edit context,
// returning the new version's address. Operations after the first on a
// root mutate the edit-owned shadow in place, so apply commonly returns
// cur itself.
type batchOp struct {
	ds    Datastructure
	apply rootOp
}

// Batch accumulates updates for one group commit, across any number of
// roots and — built by DB.Batch — any number of shards. Ops are kept in
// submission order and routed by their handle's owning store at commit:
// a batch confined to one shard commits through that shard's 1-fence
// path (a root swap, or the batch record for several roots), and one
// spanning shards commits atomically through the shard manifest
// (sharded.go). A Batch
// is not safe for concurrent use; goroutines build their own batches and
// the commit layer interleaves them. Commit (or CommitAsync) consumes
// the batch, leaving it empty for reuse.
type Batch struct {
	shards []*Store // the stores an op may land on
	db     *DB      // the manifest path; nil for a Store.NewBatch batch
	ops    []batchOp
	shard  int // the one shard every queued op landed on, or -1 once they span
}

// NewBatch returns an empty batch confined to this store handle.
func (s *Store) NewBatch() *Batch { return &Batch{shards: []*Store{s}} }

// Len returns the number of operations accumulated.
func (b *Batch) Len() int { return len(b.ops) }

// shardOf resolves the index of the store owning a datastructure.
func (b *Batch) shardOf(ds Datastructure) int {
	sh := ds.base().st.sh
	for i, s := range b.shards {
		if s.sh == sh {
			return i
		}
	}
	panic(fmt.Sprintf("core: datastructure %q does not belong to this sharded store", ds.Name()))
}

// addOp queues one deferred update of ds.
func (b *Batch) addOp(ds Datastructure, apply rootOp) {
	if ds.base().loc.parent != nil {
		panic(fmt.Sprintf("core: batched update of parent-bound %q (batches require root-bound datastructures; use CommitSiblings)", ds.Name()))
	}
	if si := b.shardOf(ds); len(b.ops) == 0 {
		b.shard = si
	} else if si != b.shard {
		b.shard = -1
	}
	b.ops = append(b.ops, batchOp{ds: ds, apply: apply})
}

// take empties the batch, returning its ops and the shard they all
// landed on (-1 when they span shards; an empty batch counts as shard
// 0's).
func (b *Batch) take() ([]batchOp, int) {
	ops, shard := b.ops, b.shard
	b.ops, b.shard = nil, 0
	return ops, shard
}

// split partitions ops by owning shard, keeping submission order.
func (b *Batch) split(ops []batchOp) [][]batchOp {
	per := make([][]batchOp, len(b.shards))
	for _, op := range ops {
		si := b.shardOf(op.ds)
		per[si] = append(per[si], op)
	}
	return per
}

// The batched updates are the Basic interface's rootOps (handles.go)
// with their results discarded; keys and values are copied, so the
// caller may reuse its buffers immediately.

// MapSet queues binding key to val in m.
func (b *Batch) MapSet(m *Map, key, val []byte) {
	b.addOp(m, mapSet(slices.Clone(key), slices.Clone(val), nil))
}

// MapDelete queues removing key from m.
func (b *Batch) MapDelete(m *Map, key []byte) { b.addOp(m, mapDelete(slices.Clone(key), nil)) }

// SetInsert queues adding key to st.
func (b *Batch) SetInsert(st *Set, key []byte) { b.addOp(st, setInsert(slices.Clone(key), nil)) }

// SetDelete queues removing key from st.
func (b *Batch) SetDelete(st *Set, key []byte) { b.addOp(st, setDelete(slices.Clone(key), nil)) }

// VectorPush queues appending val to v.
func (b *Batch) VectorPush(v *Vector, val uint64) { b.addOp(v, vectorPush(val)) }

// VectorUpdate queues replacing element i of v with val.
func (b *Batch) VectorUpdate(v *Vector, i uint64, val uint64) { b.addOp(v, vectorUpdate(i, val)) }

// StackPush queues pushing val onto st.
func (b *Batch) StackPush(st *Stack, val uint64) { b.addOp(st, stackPush(val)) }

// StackPop queues removing the top element of st (no-op on empty).
func (b *Batch) StackPop(st *Stack) { b.addOp(st, stackPop(nil)) }

// QueueEnqueue queues appending val at the tail of q.
func (b *Batch) QueueEnqueue(q *Queue, val uint64) { b.addOp(q, queueEnqueue(val)) }

// QueueDequeue queues removing the head element of q (no-op on empty).
func (b *Batch) QueueDequeue(q *Queue) { b.addOp(q, queueDequeue(nil)) }

// Commit applies every queued operation and publishes the results under
// one shared fence epoch, leaving the batch empty. Like a Basic-interface
// FASE, the final root-pointer swap's durability rides on the next fence
// (Sync forces it); the batch is nonetheless crash-atomic — recovery sees
// all of it or none of it, on every shard it touched.
func (b *Batch) Commit() {
	ops, shard := b.take()
	if shard >= 0 {
		b.shards[shard].commitBatch(ops)
		return
	}
	b.db.commitCross(b.split(ops))
}

// CommitAsync publishes the batch and returns a ticket that resolves
// when it is durable. A batch confined to one shard joins that shard's
// commit queue, coalescing with other goroutines' submissions into shared
// fence epochs: if nobody leads the queue the caller does, and returns
// once its batch and everything queued behind it are durable; otherwise
// the leader publishes it and resolves the ticket. A cross-shard batch
// publishes synchronously through the shard manifest and the ticket
// resolves on return. On a closed store the batch is dropped and the
// ticket resolves immediately with ErrStoreClosed.
func (b *Batch) CommitAsync() *Ticket {
	ops, shard := b.take()
	if shard >= 0 {
		return b.shards[shard].submit(ops, subAsync)
	}
	if b.db.sh.closed.Load() {
		return resolvedTicket(ErrStoreClosed)
	}
	per := b.split(ops)
	b.db.commitCross(per)
	// The manifest path fences each involved shard after its redo swaps,
	// but a batch that collapsed to one shard's local publication leaves
	// its final swap riding the next fence — fence each involved shard
	// so the ticket's durability contract holds in every case.
	for si, ops := range per {
		if len(ops) > 0 {
			b.shards[si].heap.Fence()
		}
	}
	return resolvedTicket(nil)
}

// rootChange records one root's pending publication: the committed
// version a batch applied against and the final shadow to install, and,
// for a root a commit-queue round stages, the blocks that shadow adds.
type rootChange struct {
	slot       int
	old, final pmem.Addr
	fresh      []pmem.Addr
}

// preparedBatch is an applied-but-unpublished multi-root commit on one
// store: root commit mutexes held, shadow chains built and durable-ready,
// publication pending. prepareBatch builds one from a Batch's deferred
// ops, CommitUnrelated (store.go) from the caller's own shadow chains.
// The single-shard commit path publishes locally (publishLocal); the
// cross-shard path (sharded.go) publishes several prepared batches
// through one shard manifest. Either way the caller must call finish
// afterwards to retire superseded versions, adopt the new ones, and
// release the locks.
type preparedBatch struct {
	s        *Store
	ops      []batchOp // their handles adopt the final versions at finish; caller-built ones carry no apply
	fase     bool      // prepareBatch opened a FASE around the ops; CommitUnrelated runs inside its caller's
	locked   []int     // ascending
	changed  []rootChange
	finals   map[int]pmem.Addr
	releases []pmem.Addr // intermediate shadows, never published; per root in chain order

	// stage is the roots (a bitmask of slots) a commit-queue round may
	// stage: those only its one-root CommitAsync submissions touch, which
	// need no atomicity with any other root. Every other changed root
	// publishes as a Batch.Commit does.
	stage uint64
	// unstaged is the changed roots publishLocal did not stage.
	unstaged uint64
}

// prepareBatch locks every root the ops touch (ascending slot order, so
// overlapping batches cannot deadlock), applies each op against the
// root's then-current committed version inside one shared edit context,
// and seals the edit so every dirtied line is inflight, ready for the
// publication fence. The first operation on a root copies its path;
// subsequent operations mutate the edit-owned shadow in place, so an
// N-op batch copies each path node at most once. For every changed root
// in stage it also collects the blocks the root's shadow adds, which
// publishLocal stages.
func (s *Store) prepareBatch(ops []batchOp, stage uint64) *preparedBatch {
	// Group ops by root slot, preserving submission order within a root.
	perSlot := make(map[int][]batchOp)
	var slots []int
	for _, op := range ops {
		slot := op.ds.base().loc.slot
		if _, ok := perSlot[slot]; !ok {
			slots = append(slots, slot)
		}
		perSlot[slot] = append(perSlot[slot], op)
	}
	if len(slots) > MaxBatchRoots {
		panic(fmt.Sprintf("core: batch touches %d roots (max %d)", len(slots), MaxBatchRoots))
	}
	locked := slices.Clone(slots)
	sort.Ints(locked)
	for _, slot := range locked {
		s.sh.rootMu[slot].Lock()
	}

	s.BeginFASE()
	ed := s.heap.BeginEdit()
	p := &preparedBatch{s: s, ops: ops, fase: true, locked: locked, finals: make(map[int]pmem.Addr, len(slots)), stage: stage}
	for _, slot := range slots {
		old := s.heap.Root(slot)
		cur := old
		for _, op := range perSlot[slot] {
			next := op.apply(s, ed, cur)
			if next == cur {
				continue // no-op or in-place update on the owned shadow
			}
			if cur != old {
				p.releases = append(p.releases, cur) // intermediate shadow
			}
			cur = next
		}
		p.finals[slot] = cur
		if cur != old {
			c := rootChange{slot: slot, old: old, final: cur}
			if stage&(1<<slot) != 0 {
				c.fresh = ed.Fresh(cur, nil) // ownership ends at Seal
			}
			p.changed = append(p.changed, c)
		}
	}
	ed.Seal() // coalesced flush sweep, ahead of the publish fence
	return p
}

// publishLocal installs the prepared batch's root changes on its own
// store under one fence, whatever their number. The roots in stage are
// staged ahead of the fence, so the fence makes those publications
// durable. Of the others, one changed root is the atomic pointer swap of
// publishRoot, and several go through a batch-record slot so recovery
// rolls all their swaps forward or discards them all. Every cell is
// written behind the fence.
func (p *preparedBatch) publishLocal() {
	s := p.s
	switch {
	case len(p.changed) == 0:
		// Nothing to publish or order.
	case len(p.changed) == 1 && p.stage&(1<<p.changed[0].slot) == 0:
		c := p.changed[0]
		p.unstaged = 1 << c.slot
		s.publishRoot(c.slot, c.old, c.final, false) // the batch's single ordering point
	default:
		var crown []pmem.Addr
		for _, c := range p.changed {
			crown = append(crown, s.maybeCheckpoint(c.final)...)
		}
		s.sh.recMu.Lock()
		defer s.sh.recMu.Unlock()
		s.commitBegin()
		rec := p.stageRecord() // the batch record's new live slot, if any
		p.stageRoots()
		// The commit's one ordering point: shadows, the staged root
		// publications, the record with its live status, and the previous
		// commit's swaps are durable. No cell named here has been written
		// yet, so until this fence completes recovery finds every one
		// holding its old version, discards the record and applies only
		// the stage slots whose blocks are all durable.
		s.heap.Fence()
		// Checkpoint crowns clear (and fence) before any swap, so a
		// rolled-forward swap never points at a structure whose
		// navigation recovery would zero.
		s.clearCrown(crown)
		s.retireCoveredLocked()
		for _, c := range p.changed {
			s.heap.SetRoot(c.slot, c.final)
		}
		if rec.seq != 0 {
			// The swaps ride the store's next fence, like a one-root swap;
			// the first ordering point whose fence passes tag retires the
			// record.
			rec.tag = s.dev.FenceSeq()
			s.sh.live[rec.seq&1] = rec
			s.sh.liveRecs.Add(1)
		}
		s.commitEnd()
	}
}

// stageRecord stages the swaps of the changed roots outside stage, each
// named by the cell word it will write, in the batch record's next slot,
// and returns that slot's live state, its tag still to be read. Fewer than
// two such swaps need no record: a lone one is an atomic pointer swap.
// The caller holds recMu.
func (p *preparedBatch) stageRecord() liveRecord {
	s := p.s
	entries := make([]redoEntry, 0, len(p.changed))
	for _, c := range p.changed {
		if p.stage&(1<<c.slot) == 0 {
			entries = append(entries, redoEntry{cell: s.heap.RootCellAddr(c.slot), word: s.heap.NextCellWord(c.slot, c.final)})
			p.unstaged |= 1 << c.slot
		}
	}
	if len(entries) < 2 {
		return liveRecord{}
	}
	s.sh.batchSeq++ // serialized by recMu; 0 marks a never-used slot
	seq := s.sh.batchSeq
	// Slot seq&1 last held commit seq-2, which commit seq-1's fence
	// retired; commit seq-1 stays intact in the other slot.
	s.recSlot(int(seq&1)).stage(seq, entries, true)
	return liveRecord{seq: seq}
}

// stageRoots stages the publication of each changed root in stage ahead
// of the fence where its fresh blocks allow (alloc's StageRoot) and notes
// the ones it could not stage.
func (p *preparedBatch) stageRoots() {
	for _, c := range p.changed {
		if p.stage&(1<<c.slot) != 0 && !p.s.heap.StageRoot(c.slot, c.old, c.final, c.fresh) {
			p.unstaged |= 1 << c.slot
		}
	}
}

// staged reports whether a one-root submission on root was durable at the
// publication's own fence: there was a fence, and root either did not
// change — its version was published before that fence, which covers its
// cell write — or was staged.
func (p *preparedBatch) staged(root int) bool {
	return len(p.changed) > 0 && p.unstaged&(1<<root) == 0
}

// finish retires every superseded version, adopts the new versions into
// the handles, closes the FASE prepareBatch opened, and releases the root
// locks. Must run after publication. Every release is deferred — a
// replaced root version because an optimistic builder may still be
// retaining out of it, the intermediates behind it in chain order so that
// each version dies after the one it was copied from (alloc/borrow.go
// rule a; dying first would settle the published copy).
func (p *preparedBatch) finish() {
	s := p.s
	for _, c := range p.changed {
		s.heap.ReleaseDeferred(c.old)
	}
	for _, a := range p.releases {
		s.heap.ReleaseDeferred(a)
	}
	for _, op := range p.ops {
		h := op.ds.base()
		h.adopt(p.finals[h.loc.slot])
	}
	if p.fase {
		s.EndFASE()
		s.dev.NoteBatch(len(p.ops))
	}
	p.unlock()
}

func (p *preparedBatch) unlock() {
	for i := len(p.locked) - 1; i >= 0; i-- {
		p.s.sh.rootMu[p.locked[i]].Unlock()
	}
}

// commitBatch is the group-commit step: apply every op against the
// current committed versions under the root locks, fence once for the
// whole epoch, publish all changed roots, and retire every superseded
// version in one batch.
func (s *Store) commitBatch(ops []batchOp) {
	if len(ops) == 0 {
		return
	}
	p := s.prepareBatch(ops, 0)
	p.publishLocal()
	p.finish()
}

// The commit queue (DESIGN.md §7). Every store has one, and no goroutine
// of its own: a CommitAsync batch, a Basic update that lost its CAS twice
// (optimistic.go), and the barrier of Sync or Close are submissions on
// it. A submitter that finds the queue idle leads it: on its own
// goroutine it drains the whole queue in rounds of at most maxOps
// operations, each round one fence. One-root CommitAsync submissions need
// no atomicity with any other root: the round stages their roots ahead of
// its fence — every root no spanning submission of the round touches — so
// their tickets resolve when the round returns, as do those of enrolled
// Basic updates and barriers, which wait for publication only. The
// round's other roots publish as one Batch.Commit, several through the
// batch record after the fence, so the tickets of CommitAsync submissions
// on them are owed: the leader's next round that fences follows their
// cell writes on the same goroutine and resolves them, and a leader that
// runs out of rounds pays one fence for them before it steps down. Every
// release of leadership drains the queue and resolves every owed ticket
// under q.mu first, so nothing queued is ever left without a leader and
// no ticket waits on a fence nobody will pay.

// subKind says what a submission is.
type subKind uint8

const (
	subAsync   subKind = iota // a CommitAsync batch, refused once the store is closed
	subBasic                  // an enrolled Basic update, counted as combined
	subBarrier                // Sync or Close: no ops, published once everything queued before it is
)

// submission is one entry of the commit queue.
type submission struct {
	ops    []batchOp
	ticket *Ticket
	kind   subKind
	root   int  // the root slot every op names; -1 without ops or when they span
	spans  bool // the ops name more than one root
}

// newSubmission classifies ops by the roots they name.
func newSubmission(ops []batchOp, kind subKind, t *Ticket) submission {
	sub := submission{ops: ops, ticket: t, kind: kind, root: -1}
	for _, op := range ops {
		switch slot := op.ds.base().loc.slot; {
		case sub.root < 0:
			sub.root = slot
		case slot != sub.root:
			sub.root, sub.spans = -1, true
			return sub
		}
	}
	return sub
}

// commitQueue is a store's commit queue.
type commitQueue struct {
	mu      sync.Mutex
	pending []submission
	leading atomic.Bool // written under mu; the optimistic tier reads it lock-free
	maxOps  int         // operations per round (WithCommitter)
	// owed is the tickets of published CommitAsync submissions that no
	// fence has covered yet; guarded by leadership.
	owed []*Ticket
	// busyUntil is the simulated time the last combining round (one
	// carrying enrolled Basic updates) ended; guarded by leadership. A Go
	// mutex wait costs no simulated nanoseconds, so without it
	// back-to-back rounds led by different writers would overlap in
	// simulated time, and a sweep timed by its slowest writer's clock
	// would read serialized rounds as parallel. A round of CommitAsync
	// batches alone does not wait for it: charging the wait as compute
	// would count one submitter's wait for another as busy time in the
	// device's aggregate simulated time.
	busyUntil float64
}

// DefaultCommitterMaxOps caps how many operations one commit-queue round
// coalesces into a fence epoch unless WithCommitter sets another cap.
const DefaultCommitterMaxOps = 256

// submit queues ops and returns their ticket. If nobody leads the queue
// the caller leads until the queue is empty and nothing is owed, so its
// ticket has resolved by the time submit returns.
func (s *Store) submit(ops []batchOp, kind subKind) *Ticket {
	q := &s.sh.queue
	q.mu.Lock()
	if kind == subAsync && s.sh.closed.Load() {
		// Refusing under q.mu orders the check against Close, which queues
		// its barrier under q.mu after setting the flag: a batch accepted
		// here is drained before Close fences, and none is accepted after.
		q.mu.Unlock()
		return resolvedTicket(ErrStoreClosed)
	}
	t := &Ticket{done: make(chan struct{})}
	q.pending = append(q.pending, newSubmission(ops, kind, t))
	if q.leading.Load() {
		q.mu.Unlock()
		return t
	}
	q.leading.Store(true)
	if kind == subAsync {
		// Yield once before the first round, so submitters that are already
		// runnable queue behind this leader and share its fence instead of
		// each leading a round of one. Without it, 16 closed-loop server
		// clients on a busy 2-vCPU host paid ~1 fence per op (0.25–0.45
		// before staging); two connections pay 3 % fewer fences with it.
		q.yield()
	}
	s.release()
	return t
}

// yield lets runnable submitters queue before the leader goes on. The
// caller leads and holds q.mu.
func (q *commitQueue) yield() {
	q.mu.Unlock()
	runtime.Gosched()
	q.mu.Lock()
}

// release is how every leader steps down: it drains the queue, resolves
// the tickets its rounds owe, and clears leading under the same hold of
// q.mu. With tickets owed it yields once, so a submitter already runnable
// queues a round whose fence covers them; only if none did does it pay
// that fence itself. The caller leads and holds q.mu; release unlocks it.
func (s *Store) release() {
	q := &s.sh.queue
	s.drain()
	for len(q.owed) > 0 {
		q.yield()
		if len(q.pending) == 0 {
			q.mu.Unlock()
			s.heap.Fence() // follows every owed publication on this goroutine
			q.resolveOwed()
			q.mu.Lock()
		}
		s.drain() // whatever arrived meanwhile
	}
	q.leading.Store(false)
	q.mu.Unlock()
}

// resolveOwed resolves every owed ticket. The caller leads and has fenced
// since the owed submissions were published.
func (q *commitQueue) resolveOwed() {
	for _, t := range q.owed {
		close(t.done)
	}
	q.owed = nil
}

// drain runs rounds until the queue is empty. The caller leads and holds
// q.mu, which each round releases while it commits.
func (s *Store) drain() {
	q := &s.sh.queue
	for len(q.pending) > 0 {
		n, ops := 1, len(q.pending[0].ops)
		for n < len(q.pending) && ops+len(q.pending[n].ops) <= q.maxOps {
			ops += len(q.pending[n].ops)
			n++
		}
		subs := q.pending[:n:n] // later appends land past the cut
		q.pending = q.pending[n:]
		q.mu.Unlock()
		s.round(subs)
		q.mu.Lock()
	}
}

// round commits one cut of the queue as one fence epoch and resolves or
// owes its tickets: prepareBatch holds every touched root's commit mutex
// from base read to SetRoot, so a racing lock-path commit waits for the
// round (and the round for it) instead of costing it a fence.
func (s *Store) round(subs []submission) {
	q := &s.sh.queue
	var ops []batchOp
	var basic, one, spanned uint64
	for _, sub := range subs {
		ops = append(ops, sub.ops...)
		switch {
		case sub.kind == subBasic:
			basic++
		case sub.spans:
			for _, op := range sub.ops {
				spanned |= 1 << op.ds.base().loc.slot
			}
		case sub.root >= 0:
			one |= 1 << sub.root
		}
	}
	if s.sh.selective || one != 0 && !s.heap.StageReady() {
		// A selective root's navigation nodes carry no checksum to validate
		// a stage slot against; a heap's first staging attempt only arms it.
		one = 0
	}
	if basic > 0 {
		if now := s.dev.LocalNs(); now < q.busyUntil {
			s.dev.ChargeCompute(q.busyUntil - now)
		}
	}
	var p *preparedBatch
	if len(ops) > 0 {
		p = s.prepareBatch(ops, one&^spanned)
		p.publishLocal()
		p.finish()
	}
	if basic > 0 {
		q.busyUntil = s.dev.LocalNs() // at or past the old watermark by now
		s.sh.cstats.combines.Add(1)
		s.sh.cstats.combinedOps.Add(basic)
	}
	if p != nil && len(p.changed) > 0 {
		q.resolveOwed() // the round's fence followed the owed cell writes
	}
	for _, sub := range subs {
		if sub.kind == subAsync && (sub.root < 0 || !p.staged(sub.root)) {
			q.owed = append(q.owed, sub.ticket)
			continue
		}
		close(sub.ticket.done)
	}
}

// Ticket tracks an asynchronously submitted batch. It resolves once the
// batch is published and a fence has covered its publication (durable),
// or the submission was rejected — Err distinguishes the two.
type Ticket struct {
	done chan struct{} // closed when the ticket resolves
	err  error
}

// resolvedTicket returns an already-resolved ticket: err is nil for a
// batch made durable before the call returned, or the reason a submission
// was rejected outright (e.g. ErrStoreClosed).
func resolvedTicket(err error) *Ticket {
	t := &Ticket{done: make(chan struct{}), err: err}
	close(t.done)
	return t
}

// FailedTicket returns an already-resolved ticket carrying err. Serving
// layers use it from KV fakes to inject commit failures into their
// retry paths without reaching into the store.
func FailedTicket(err error) *Ticket { return resolvedTicket(err) }

// Wait blocks until the batch is durable or rejected. The queue's leader
// resolves every ticket before it steps down, so Wait runs no round and
// no fence, and any goroutine may call it.
func (t *Ticket) Wait() { <-t.done }

// Err returns nil once Wait has returned and the batch is durable, or
// the rejection reason (ErrStoreClosed) if the submission was refused.
// Only valid after Wait (or a true Done).
func (t *Ticket) Err() error { return t.err }

// Done reports without blocking whether the ticket has resolved: the
// batch is durable, or was refused.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}
