package core

import (
	"fmt"
	"math/bits"
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
// stages every changed root's publication as one group in the heap's
// stage table (alloc's StageGroup) — one slot per root naming the cell
// word its swap writes, the group's sequence number and member count —
// makes the slots durable with the shadows under the commit's one fence,
// and only then overwrites the root cells. Every cell holds its old
// version until that fence completes, so a recovering Open rolls a group
// forward exactly when one of its swaps already landed and discards it
// otherwise: a crash anywhere recovers every root swap or none of them,
// and a discarded batch's shadows are swept as leaks. Like a one-root
// swap, the cell writes become durable under the store's next fence.
//
// # Async durability
//
// Commit applies and publishes the batch synchronously. CommitAsync
// submits it to the store's commit queue, which coalesces submissions
// from any number of goroutines into shared fence epochs on whichever
// submitter leads it, and returns a Ticket; Ticket.Wait blocks until the
// batch's publication is fence-covered, i.e. fully durable. A round's
// group members also carry a digest of the durable blocks they add (the
// edit's ledger, Edit.Fresh), and recovery applies a group none of whose
// swaps landed when every member is found and re-verifies: so a
// CommitAsync batch, on one root or several, on a plain or a selective
// store, is durable at its own round's fence.

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
// a batch confined to one shard publishes on that shard under one fence
// (a root swap, or a staged group for several roots), and one spanning
// shards atomically as one group over every changed shard's stage table
// (publish; sharded.go). A Batch is not safe for concurrent use;
// goroutines build their own batches and the commit layer interleaves
// them. Commit (or CommitAsync) consumes the batch, leaving it empty for
// reuse.
type Batch struct {
	shards []*Store // the stores an op may land on
	db     *DB      // the cross-shard path; nil for a Store.NewBatch batch
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

// split partitions ops by owning shard, keeping submission order; the
// ops of a batch confined to one shard are not copied.
func (b *Batch) split(ops []batchOp, shard int) [][]batchOp {
	per := make([][]batchOp, len(b.shards))
	if shard >= 0 {
		per[shard] = ops
		return per
	}
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
// (Sync forces it) — unless the batch changed roots on several shards,
// which is durable at return; the batch is crash-atomic either way —
// recovery sees all of it or none of it, on every shard it touched.
func (b *Batch) Commit() {
	ops, shard := b.take()
	b.commit(ops, shard, false)
}

// CommitAsync publishes the batch and returns a ticket that resolves
// when it is durable. A batch confined to one shard joins that shard's
// commit queue, coalescing with other goroutines' submissions into shared
// fence epochs: if nobody leads the queue the caller does, and returns
// once its batch and everything queued behind it are durable; otherwise
// the leader publishes it and resolves the ticket. A batch spanning
// shards publishes synchronously and the ticket resolves on return. On
// a closed store the batch is dropped and the ticket resolves
// immediately with ErrStoreClosed.
func (b *Batch) CommitAsync() *Ticket {
	ops, shard := b.take()
	if shard >= 0 {
		return b.shards[shard].submit(ops, subAsync)
	}
	if b.db.sh.closed.Load() {
		return resolvedTicket(ErrStoreClosed)
	}
	b.commit(ops, shard, true)
	return resolvedTicket(nil)
}

// commit applies ops on their shards and publishes every root they
// changed as one publication (publish). Shards are prepared in ascending
// index order, and each locks its roots in ascending slot order, so
// overlapping commits cannot deadlock. A publication over several shards
// is durable once their fenceAfter fences are paid, ahead of retiring
// the superseded versions; one on a single shard rides that shard's next
// fence, which a durable commit pays after retiring them, as a
// commit-queue round does.
func (b *Batch) commit(ops []batchOp, shard int, durable bool) {
	var preps, changed []*preparedBatch
	for si, ops := range b.split(ops, shard) {
		if len(ops) > 0 {
			p := b.shards[si].prepareBatch(ops, 0)
			preps = append(preps, p)
			if len(p.changed) > 0 {
				changed = append(changed, p)
			}
		}
	}
	publish(changed)
	for _, p := range changed {
		if p.fenceAfter {
			p.s.heap.Fence()
		}
	}
	for _, p := range preps {
		p.finish()
	}
	if durable && len(changed) == 1 {
		changed[0].s.heap.Fence()
	}
}

// rootChange records one root's pending publication: the committed
// version a batch applied against and the final shadow to install, and,
// for a root a commit-queue round digests, the durable blocks that shadow
// adds.
type rootChange struct {
	slot       int
	old, final pmem.Addr
	fresh      []pmem.Addr
}

// preparedBatch is an applied-but-unpublished commit on one store: root
// commit mutexes held, shadow chains built and durable-ready, handles
// holding their final versions, publication pending. prepareBatch builds
// one from a Batch's deferred ops, CommitUnrelated (store.go) from the
// caller's own shadow chains, CommitSiblings from a parent shadow,
// bindRoot (handles.go) from a new root.
// publish installs one, or one per shard of a batch spanning shards; the
// caller must then call finish to retire superseded versions and release
// the locks.
type preparedBatch struct {
	s        *Store
	batched  int   // ops prepareBatch applied in the FASE it opened, which finish closes; 0 for a caller-built batch
	locked   []int // ascending
	changed  []rootChange
	releases []pmem.Addr // intermediate shadows, never published; per root in chain order

	// digest is the roots (a bitmask of slots) whose publication a
	// commit-queue round stages with digests, so that its fence makes them
	// durable. alone is the roots it publishes each on its own: those
	// only its one-root CommitAsync submissions touch, which need no
	// atomicity with any other root. The other changed roots publish as
	// one group.
	digest, alone uint64
	// fenceAfter: publish left a swap that its fence does not make
	// durable where the caller needs it to be — a publication over
	// several shards, or a root of digest staged without one — so the
	// caller fences once more after the swaps (DESIGN.md §7, §9).
	fenceAfter bool

	// The changed roots publish swaps, those it stages as one group
	// first: group is their prefix.
	swaps, group []alloc.StagedRoot
	buf          [4]alloc.StagedRoot // up to four changed roots allocate nothing
}

// prepareBatch locks every root the ops touch (ascending slot order, so
// overlapping batches cannot deadlock), applies each op against the
// root's then-current committed version inside one shared edit context,
// and seals the edit so every dirtied line is inflight, ready for the
// publication fence. The first operation on a root copies its path;
// subsequent operations mutate the edit-owned shadow in place, so an
// N-op batch copies each path node at most once. An operation that must
// rebuild the owned shadow instead (a map whose root changes shape)
// releases it itself, so the chain leaves no intermediate to retire here
// (funcds.Map.Set). Each op's handle adopts its root's final version —
// under the root's lock, which finish releases only after publication.
// For every changed root in digest it also takes the durable blocks the
// root's shadow adds — its range of the edit's ledger — which publish
// folds into the publication's digest.
func (s *Store) prepareBatch(ops []batchOp, digest uint64) *preparedBatch {
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
	locked := slices.Clone(slots)
	sort.Ints(locked)
	for _, slot := range locked {
		s.sh.rootMu[slot].Lock()
	}

	s.BeginFASE()
	ed := s.heap.BeginEdit()
	p := &preparedBatch{s: s, batched: len(ops), locked: locked, digest: digest}
	for _, slot := range slots {
		old := s.heap.Root(slot)
		cur := old
		mark := ed.Mark()
		for _, op := range perSlot[slot] {
			cur = op.apply(s, ed, cur)
		}
		for _, op := range perSlot[slot] {
			op.ds.base().adopt(cur)
		}
		if cur != old {
			c := rootChange{slot: slot, old: old, final: cur}
			if digest&(1<<slot) != 0 {
				c.fresh = ed.Fresh(mark, nil) // Seal empties the ledger
			}
			p.changed = append(p.changed, c)
		}
	}
	ed.Seal() // coalesced flush sweep, ahead of the publish fence
	return p
}

// publish is every locked publication of root pointers, a parent's
// included (DESIGN.md §5): it installs the changes of prepared batches,
// one per shard, under one fence on each shard, whatever their number.
// ps holds the batches that changed a root, or one batch that may have
// changed none, which publishes nothing.
//
// On one shard each changed root in alone is staged as a publication of
// its own and the others as one group; a group of one without a digest
// is not staged, its swap being atomic alone (DESIGN.md §7). Over k >= 2
// shards every changed root is a member of one group of r roots, r
// counted over all k, under one word from the shards' shared counter and
// with no digest (DESIGN.md §9). The fences make the stage slots durable
// with the shadows, and every cell is written behind them.
//
// A batch's fenceAfter is set when its swaps need one more fence for the
// commit to be durable at return: on every shard of a group over several,
// whose members carry no digest, and on one shard when a root in digest
// could not carry one — it folds a checkpoint, whose clone is not in the
// ledger and whose header is resealed after Seal, or it adds more blocks
// than a slot counts.
func publish(ps []*preparedBatch) {
	r := 0
	for _, p := range ps {
		r += len(p.changed)
	}
	if r == 0 {
		return // nothing to publish or order
	}
	var g uint64 // on one shard, StageGroup numbers each group itself
	if len(ps) > 1 {
		g = ps[0].s.heap.NewGroup(r)
	}
	for _, p := range ps {
		s := p.s
		for i, c := range p.changed {
			if s.maybeCheckpoint(c.final) {
				p.changed[i].fresh = nil
			}
		}
		// Every changed root swaps; the group's members come first.
		p.swaps = p.buf[:0]
		for _, c := range p.changed {
			if p.alone&(1<<c.slot) == 0 {
				p.swaps = append(p.swaps, alloc.StagedRoot{Slot: c.slot, Final: c.final, Fresh: c.fresh})
			}
		}
		p.group = p.swaps
		var undigested uint64 // roots staged without a digest, or not staged
		s.commitBegin()
		for _, c := range p.changed {
			if p.alone&(1<<c.slot) != 0 {
				m := alloc.StagedRoot{Slot: c.slot, Final: c.final, Fresh: c.fresh}
				if !s.heap.StageGroup([]alloc.StagedRoot{m}, 0) {
					undigested |= 1 << c.slot
				}
				p.swaps = append(p.swaps, m)
			}
		}
		if !s.heap.StageGroup(p.group, g) {
			for _, m := range p.group {
				undigested |= 1 << m.Slot
			}
		}
		p.fenceAfter = len(ps) > 1 || undigested&p.digest != 0
	}
	// The commit's one ordering point on each shard: shadows, sealed
	// checkpoint crowns and stage slots are durable before any swap is
	// issued, so a swap that reaches PM on one shard implies them all. No
	// cell named here has been written yet, so until these fences complete
	// recovery finds every one holding its old version and applies only
	// the groups whose members are all found and all re-verify.
	for _, p := range ps {
		p.s.heap.Fence()
	}
	for _, p := range ps {
		p.s.heap.SetRoots(p.swaps)
		p.s.heap.GroupSwapped(p.group)
		p.s.commitEnd()
	}
}

// finish retires every superseded version, closes the FASE prepareBatch
// opened, and releases the root locks. Must run after publication. Every
// release is deferred — a replaced root version because an optimistic
// builder may still be retaining out of it, the intermediates behind it
// in chain order so that each version dies after the one it was copied
// from (alloc/borrow.go rule a; dying first would settle the published
// copy).
func (p *preparedBatch) finish() {
	s := p.s
	for _, c := range p.changed {
		s.heap.ReleaseDeferred(c.old)
	}
	for _, a := range p.releases {
		s.heap.ReleaseDeferred(a)
	}
	if p.batched > 0 {
		s.EndFASE()
		s.dev.NoteBatch(p.batched)
	}
	p.unlock()
}

func (p *preparedBatch) unlock() {
	for i := len(p.locked) - 1; i >= 0; i-- {
		p.s.sh.rootMu[p.locked[i]].Unlock()
	}
}

// The commit queue (DESIGN.md §7). Every store has one, and no goroutine
// of its own: a CommitAsync batch, a Basic update that lost its CAS twice
// (optimistic.go), and the barrier of Sync or Close are submissions on
// it. A submitter that finds the queue idle leads it: on its own
// goroutine it drains the whole queue in rounds of at most maxOps
// operations, each round one fence. One-root CommitAsync submissions need
// no atomicity with any other root: the round stages each of their roots
// — every root no spanning submission of the round touches — as a
// publication of its own, with a digest of the durable blocks it adds.
// The round's other roots publish as one group, whose members carry
// digests too when a spanning CommitAsync is among them. So the round's
// fence makes every CommitAsync in it durable — after a publication that
// cannot carry a digest the round fences once more — and
// every ticket resolves when its round returns, those of enrolled Basic
// updates and barriers too, which wait for publication only. Every
// release of leadership drains the queue under q.mu first, so nothing
// queued is ever left without a leader.

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
	roots  uint64 // the root slots the ops name, a bitmask
}

// newSubmission notes the roots ops name.
func newSubmission(ops []batchOp, kind subKind, t *Ticket) submission {
	sub := submission{ops: ops, ticket: t, kind: kind}
	for _, op := range ops {
		sub.roots |= 1 << op.ds.base().loc.slot
	}
	return sub
}

// commitQueue is a store's commit queue.
type commitQueue struct {
	mu      sync.Mutex
	pending []submission
	leading atomic.Bool // written under mu; the optimistic tier reads it lock-free
	maxOps  int         // operations per round (WithCommitter)
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
// the caller leads until the queue is empty, so its ticket has resolved
// by the time submit returns.
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
		q.mu.Unlock()
		runtime.Gosched()
		q.mu.Lock()
	}
	s.release()
	return t
}

// release is how every leader steps down: it drains the queue and clears
// leading under the same hold of q.mu. The caller leads and holds q.mu;
// release unlocks it.
func (s *Store) release() {
	q := &s.sh.queue
	s.drain()
	q.leading.Store(false)
	q.mu.Unlock()
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

// round commits one cut of the queue as one fence epoch and resolves its
// tickets: prepareBatch holds every touched root's commit mutex from base
// read to SetRoot, so a racing lock-path commit waits for the round (and
// the round for it) instead of costing it a fence.
func (s *Store) round(subs []submission) {
	q := &s.sh.queue
	var ops []batchOp
	var basic, one, spanned uint64
	async := false
	for _, sub := range subs {
		ops = append(ops, sub.ops...)
		async = async || sub.kind == subAsync
		switch {
		case sub.kind == subBasic:
			basic++
		case bits.OnesCount64(sub.roots) > 1:
			spanned |= sub.roots
		default:
			one |= sub.roots
		}
	}
	// Every root a CommitAsync names is digested, and when one spans
	// roots, every root of the round's group is.
	digest := one | spanned
	if spanned != 0 {
		digest = ^uint64(0)
	}
	if basic > 0 {
		if now := s.dev.LocalNs(); now < q.busyUntil {
			s.dev.ChargeCompute(q.busyUntil - now)
		}
	}
	// A CommitAsync is durable at the round's fence unless a publication
	// could not carry a digest, or the round changed nothing and so
	// fenced nothing — its ack must still follow a fence, which covers
	// the publications its ops read: then the round fences once more.
	fence := async
	if len(ops) > 0 {
		p := s.prepareBatch(ops, digest)
		p.alone = one &^ spanned
		publish([]*preparedBatch{p})
		p.finish()
		fence = p.fenceAfter || async && len(p.changed) == 0
	}
	if fence {
		s.heap.Fence()
	}
	if basic > 0 {
		q.busyUntil = s.dev.LocalNs() // at or past the old watermark by now
		s.sh.cstats.combines.Add(1)
		s.sh.cstats.combinedOps.Add(basic)
	}
	for _, sub := range subs {
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
