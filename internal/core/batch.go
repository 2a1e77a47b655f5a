package core

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/pmem"
)

// Group commit (DESIGN.md §7). A Batch coalesces many shadow updates —
// across datastructures, across roots, and (through the background
// committer) across goroutines — into a single flush+sfence epoch. Every
// operation in the batch builds its shadow with unordered overlapped
// flushes; one shared fence then makes the whole epoch durable and the
// new versions are published together, so the per-FASE ordering point of
// the Basic interface is amortized over the batch:
//
//	fences/op = 1/B         (batch touches one root)
//	fences/op = 3/B         (batch touches many roots)
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
// writes a persistent batch record — the (cell, new version) pairs plus
// a checksum — makes it durable with the shadows, sets a committed flag
// (the batch's atomic commit point, one 8-byte write), and only then
// overwrites the root cells. A recovering Open replays a committed record whose
// checksum validates, so a crash anywhere inside publication recovers
// either every root swap or none of them; a crash before the commit
// point recovers none, and the batch's shadows are swept as leaks.
//
// # Async durability
//
// Commit applies and publishes the batch synchronously. CommitAsync
// hands it to the store's background committer (StartGroupCommitter),
// which coalesces submissions from any number of goroutines into shared
// fence epochs and returns a Ticket; Ticket.Wait blocks until the
// batch's publication is fence-covered, i.e. fully durable. Under load
// the pipeline needs no extra fences — a group's publication becomes
// durable under the next group's fence — and an idle committer issues
// one closing fence.

// batchLogRoot names the root slot anchoring the store's redo record
// (redo.go), through which every multi-root commit on one heap — Batch
// and CommitUnrelated alike — publishes.
const batchLogRoot = "__mod_batchlog"

// MaxBatchRoots is the most distinct roots one batch commit can change,
// bounded by the capacity of the persistent batch record.
const MaxBatchRoots = 62

const batchRecSize = redoHdrSize + MaxBatchRoots*16

// record returns this handle's view of the store's batch record.
func (s *Store) record() redoRecord {
	return redoRecord{dev: s.dev, base: s.batchRec, max: MaxBatchRoots}
}

// replayRecord completes the root swaps of a committed batch record left
// by a crash mid-publication — idempotent 8-byte writes — and retires it.
// Run before the reachability scan so recovery traces the post-commit
// roots.
func (s *Store) replayRecord() {
	rec := s.record()
	entries, dirty := rec.read()
	if !dirty {
		return
	}
	for _, e := range entries {
		s.dev.WriteAddr(e.cell, e.final)
		s.dev.Clwb(e.cell)
	}
	s.dev.Sfence() // replayed cells durable before the record is retired
	rec.retire()
	s.dev.Sfence()
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
// (one root) or 3-fence (batch record) path, and one spanning shards
// commits atomically through the shard manifest (sharded.go). A Batch
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
// when it is durable. A batch confined to one shard rides that shard's
// background committer, coalescing with other goroutines' submissions
// into shared fence epochs (without a running committer it degrades to a
// synchronous Commit plus one fence); a cross-shard batch publishes
// synchronously through the shard manifest and the ticket resolves on
// return. On a closed store the batch is dropped and the ticket resolves
// immediately with ErrStoreClosed.
func (b *Batch) CommitAsync() *Ticket {
	ops, shard := b.take()
	if shard >= 0 {
		return b.shards[shard].commitAsyncOps(ops)
	}
	if b.db.sh.closed.Load() {
		return resolvedTicket(ErrStoreClosed)
	}
	per := b.split(ops)
	b.db.commitCross(per)
	// The manifest path fences each involved shard after its redo swaps,
	// but a batch that collapsed to one shard's local publication leaves
	// its final swap riding the next fence — settle each involved shard
	// so the ticket's durability contract holds in every case.
	for si, ops := range per {
		if len(ops) > 0 {
			b.shards[si].heap.Fence()
		}
	}
	return resolvedTicket(nil)
}

// commitAsyncOps routes one shard's deferred ops through its background
// committer.
func (s *Store) commitAsyncOps(ops []batchOp) *Ticket {
	c := &s.sh.com
	c.mu.Lock()
	if s.sh.closed.Load() {
		// Rejecting under c.mu orders the check against Close: a Close
		// that won the flag has not yet drained, so anything enqueued
		// before the flag was set is still serviced, and anything after
		// is refused here rather than stranded on a dead queue.
		c.mu.Unlock()
		return resolvedTicket(ErrStoreClosed)
	}
	if !c.running || c.quit {
		// Not running, or a Stop is draining the queue: committing here
		// keeps the batch from landing on a queue no worker will service.
		c.mu.Unlock()
		s.commitBatch(ops)
		s.heap.Fence()
		return resolvedTicket(nil)
	}
	t := &Ticket{done: make(chan struct{})}
	c.queue = append(c.queue, submission{ops: ops, ticket: t})
	c.cond.Signal()
	c.mu.Unlock()
	return t
}

// rootChange records one root's pending publication: the committed
// version a batch applied against and the final shadow to install.
type rootChange struct {
	slot       int
	old, final pmem.Addr
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
}

// prepareBatch locks every root the ops touch (ascending slot order, so
// overlapping batches cannot deadlock), applies each op against the
// root's then-current committed version inside one shared edit context,
// and seals the edit so every dirtied line is inflight, ready for the
// publication fence. The first operation on a root copies its path;
// subsequent operations mutate the edit-owned shadow in place, so an
// N-op batch copies each path node at most once.
func (s *Store) prepareBatch(ops []batchOp) *preparedBatch {
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
	p := &preparedBatch{s: s, ops: ops, fase: true, locked: locked, finals: make(map[int]pmem.Addr, len(slots))}
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
			p.changed = append(p.changed, rootChange{slot: slot, old: old, final: cur})
		}
	}
	ed.Seal() // coalesced flush sweep, ahead of the publish fence
	return p
}

// publishLocal installs the prepared batch's root changes on its own
// store: one root changed needs only the atomic pointer swap after the
// shared fence; several changed go through the persistent batch record
// so recovery replays all swaps or none.
func (p *preparedBatch) publishLocal() {
	s := p.s
	switch {
	case len(p.changed) == 0:
		// Nothing to publish or order.
	case len(p.changed) == 1:
		c := p.changed[0]
		s.publishRoot(c.slot, c.old, c.final, false) // the batch's single ordering point
	default:
		var crown []pmem.Addr
		entries := make([]redoEntry, len(p.changed))
		for i, c := range p.changed {
			crown = append(crown, s.maybeCheckpoint(c.final)...)
			entries[i] = redoEntry{cell: s.heap.RootCellAddr(c.slot), final: c.final}
		}
		rec := s.record()
		s.sh.recMu.Lock()
		s.commitBegin()
		s.sh.batchSeq++ // serialized by recMu; 0 is reserved for idle
		seq := s.sh.batchSeq
		rec.stage(seq, entries)
		// Fence A: shadows, record body, and any previous commit's record
		// retirement are durable. The status word is still idle, so a
		// crash here recovers none of the batch.
		s.heap.Fence()
		// Checkpoint crowns clear (and fence) between A and B: the crown
		// payloads are durable after fence A, and the clears are durable
		// before the commit point, so a replayed swap can never point at
		// a structure whose navigation recovery would zero.
		s.clearCrown(crown)
		rec.commit(seq)
		s.dev.Sfence() // fence B: the status write is the commit point
		for _, c := range p.changed {
			s.heap.SetRoot(c.slot, c.final)
		}
		s.dev.Sfence() // fence C: swaps durable before the record retires
		rec.retire()   // durability rides to the next fence
		s.commitEnd()
		s.sh.recMu.Unlock()
	}
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
	p := s.prepareBatch(ops)
	p.publishLocal()
	p.finish()
}

// Ticket tracks an asynchronously submitted batch. Wait returns once the
// batch is published and its publication fence-covered (durable), or the
// submission was rejected — Err distinguishes the two.
type Ticket struct {
	done chan struct{}
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

// Wait blocks until the batch is durable or rejected.
func (t *Ticket) Wait() { <-t.done }

// Err returns nil once Wait has returned and the batch is durable, or
// the rejection reason (ErrStoreClosed) if the submission was refused.
// Only valid after Wait (or a true Done).
func (t *Ticket) Err() error { return t.err }

// Done reports without blocking whether the batch is durable.
func (t *Ticket) Done() bool {
	select {
	case <-t.done:
		return true
	default:
		return false
	}
}

// submission is one queued batch awaiting the background committer, or
// one enrolled Basic update awaiting a flat combiner (optimistic.go).
type submission struct {
	ops    []batchOp
	ticket *Ticket
}

// committer is the background group-commit pipeline shared by all
// handles of a store.
type committer struct {
	mu      sync.Mutex
	cond    *sync.Cond
	queue   []submission
	running bool
	quit    bool
	maxOps  int
	linger  atomic.Int64 // ns to wait for stragglers before a settle fence
	wg      sync.WaitGroup
}

// lingerWait polls the queue for up to d, yielding between polls
// (time.Sleep rounds tens-of-µs windows up to the timer tick, which
// would put milliseconds on the settle path). Returns true as soon as
// there is work to fold into the next group.
func (c *committer) lingerWait(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for {
		runtime.Gosched()
		c.mu.Lock()
		busy := len(c.queue) > 0 || c.quit
		c.mu.Unlock()
		if busy {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
	}
}

// SetCommitterLinger sets a collection window for the background
// committer: when its queue drains with tickets still awaiting a fence,
// it waits up to d for new submissions before paying the settling
// fence. Zero (the default) settles immediately — lowest latency, but
// under network-paced open-loop load arrivals rarely overlap, so every
// batch gets a private fence epoch. A linger of a few tens of
// microseconds lets concurrent clients' submissions pile into shared
// epochs, which is what makes fences/op fall as client concurrency
// rises. Takes effect immediately, even on a running committer.
func (s *Store) SetCommitterLinger(d time.Duration) {
	s.sh.com.linger.Store(int64(d))
}

// DefaultCommitterMaxOps caps how many operations the background
// committer coalesces into one fence epoch.
const DefaultCommitterMaxOps = 256

// StartGroupCommitter launches the store's background committer, which
// coalesces CommitAsync submissions from any number of goroutines into
// shared fence epochs. maxOps caps the operations per epoch (0 uses
// DefaultCommitterMaxOps). Starting an already-running committer is a
// no-op.
func (s *Store) StartGroupCommitter(maxOps int) {
	if maxOps <= 0 {
		maxOps = DefaultCommitterMaxOps
	}
	c := &s.sh.com
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cond == nil {
		c.cond = sync.NewCond(&c.mu)
	}
	if c.running {
		return
	}
	c.running = true
	c.quit = false
	c.maxOps = maxOps
	c.wg.Add(1)
	worker := s.Fork() // its own clock: committer time is its own critical path
	go worker.committerLoop()
}

// StopGroupCommitter drains the queue, makes every submitted batch
// durable, and stops the background committer. Safe to call when not
// running.
func (s *Store) StopGroupCommitter() {
	c := &s.sh.com
	c.mu.Lock()
	if !c.running {
		c.mu.Unlock()
		return
	}
	c.quit = true
	c.cond.Broadcast()
	c.mu.Unlock()
	c.wg.Wait()
	c.mu.Lock()
	c.running = false
	c.mu.Unlock()
}

// asyncBarrier submits an empty batch and returns its ticket, or nil if
// the committer is not running. Waiting on the ticket guarantees every
// batch submitted before it is durable.
func (s *Store) asyncBarrier() *Ticket {
	c := &s.sh.com
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.running || c.quit {
		return nil
	}
	t := &Ticket{done: make(chan struct{})}
	c.queue = append(c.queue, submission{ticket: t})
	c.cond.Signal()
	return t
}

// committerLoop coalesces queued submissions into group commits. A
// group's root-pointer swaps become durable under the next group's
// fence, so tickets close one group late while the pipeline is busy;
// when the queue drains, one closing fence settles the stragglers.
func (s *Store) committerLoop() {
	c := &s.sh.com
	defer c.wg.Done()
	var pending []*Ticket // published, awaiting a covering fence
	settle := func() {
		if len(pending) == 0 {
			return
		}
		s.heap.Fence()
		for _, t := range pending {
			close(t.done)
		}
		pending = nil
	}
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && !c.quit {
			if len(pending) > 0 {
				// Settle stragglers before sleeping so an idle pipeline
				// never strands a ticket — but first give imminent
				// submissions a linger window to ride the next group's
				// fence instead of forcing a dedicated settle fence.
				c.mu.Unlock()
				if d := c.linger.Load(); d > 0 && c.lingerWait(time.Duration(d)) {
					c.mu.Lock()
					continue
				}
				settle()
				c.mu.Lock()
				continue
			}
			c.cond.Wait()
		}
		if len(c.queue) == 0 && c.quit {
			c.mu.Unlock()
			settle()
			return
		}
		take, total := 0, 0
		for take < len(c.queue) {
			n := len(c.queue[take].ops)
			if take > 0 && total+n > c.maxOps {
				break
			}
			take++
			total += n
		}
		subs := slices.Clone(c.queue[:take])
		c.queue = c.queue[take:]
		c.mu.Unlock()

		var ops []batchOp
		for _, sub := range subs {
			ops = append(ops, sub.ops...)
		}
		// The group's fence covers the previous group's root swaps. A
		// group that never fenced (a bare barrier, or all no-op updates)
		// leaves the previous tickets pending until a later fence.
		f0 := s.dev.FenceSeq()
		s.commitBatch(ops)
		if s.dev.FenceSeq() > f0 {
			for _, t := range pending {
				close(t.done)
			}
			pending = pending[:0]
		}
		for _, sub := range subs {
			pending = append(pending, sub.ticket)
		}
	}
}
