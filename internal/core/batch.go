package core

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
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

// slot is the root slot op updates.
func (op batchOp) slot() int { return op.ds.base().loc.slot }

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
			p := b.shards[si].prepareBatch(ops)
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
// holding their final versions, publication pending. prepare builds one
// from deferred ops (a Batch, a commit-queue round), CommitUnrelated
// (store.go) from the caller's own shadow chains, CommitSiblings from a
// parent shadow, bindRoot (handles.go) from a new root.
// publish installs one, or one per shard of a batch spanning shards; the
// caller must then call finish to retire superseded versions and release
// the locks.
type preparedBatch struct {
	s        *Store
	batched  int   // ops apply applied in the FASE prepare opened, which finish closes; 0 for a caller-built batch
	locked   []int // ascending, then the roots a round absorbed
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

	// The open edit, between prepare (or absorb) and seal, and the root
	// apply is applying ops to (-1 between roots).
	ed *alloc.Edit
	at int
	// Scratch whose storage a reused batch (a commit queue's) keeps from
	// round to round: apply's roots in the order ops first name them, and
	// the digested roots' ledgers back to back.
	slots []int
	fresh []pmem.Addr
}

// prepareBatch prepares ops as one sealed FASE for a synchronous commit.
func (s *Store) prepareBatch(ops []batchOp) *preparedBatch {
	p := new(preparedBatch)
	p.prepare(s, ops, 0)
	p.seal()
	return p
}

// prepare opens a FASE on s in p, keeping p's storage: it locks every
// root the ops touch (ascending slot order, so overlapping batches cannot
// deadlock), opens one edit context and applies the ops in it. After
// seal and ahead of publication, a commit-queue round may apply more ops,
// on roots it locked itself, in a second edit of the same FASE (absorb).
func (p *preparedBatch) prepare(s *Store, ops []batchOp, digest uint64) {
	*p = preparedBatch{s: s, digest: digest, at: -1,
		locked: p.locked[:0], changed: p.changed[:0], slots: p.slots[:0], fresh: p.fresh[:0]}
	for _, op := range ops {
		if slot := op.slot(); !slices.Contains(p.locked, slot) {
			p.locked = append(p.locked, slot)
		}
	}
	slices.Sort(p.locked)
	for _, slot := range p.locked {
		s.sh.rootMu[slot].Lock()
	}
	s.BeginFASE()
	p.ed = s.heap.BeginEdit()
	p.apply(ops)
}

// apply applies ops, whose roots p holds, against each root's
// then-current committed version inside p's edit: root by root in the
// order the ops first name them, each root's ops in submission order. The
// first operation on a root copies its path; subsequent operations mutate
// the edit-owned shadow in place, so an N-op batch copies each path node
// at most once. An operation that must rebuild the owned shadow instead
// (a map whose root changes shape) releases it itself, so the chain
// leaves no intermediate to retire here (funcds.Map.Set). Each op's
// handle adopts its root's final version — under the root's lock, which
// finish releases only after publication. For every changed root in
// digest it also takes the durable blocks the root's shadow adds — its
// range of the edit's ledger — which publish folds into the
// publication's digest.
func (p *preparedBatch) apply(ops []batchOp) {
	s, ed := p.s, p.ed
	from := len(p.slots)
	for _, op := range ops {
		if slot := op.slot(); !slices.Contains(p.slots[from:], slot) {
			p.slots = append(p.slots, slot)
		}
	}
	for _, slot := range p.slots[from:] {
		p.at = slot
		old := s.heap.Root(slot)
		cur := old
		mark := ed.Mark()
		for _, op := range ops {
			if op.slot() == slot {
				cur = op.apply(s, ed, cur)
			}
		}
		for _, op := range ops {
			if op.slot() == slot {
				op.ds.base().adopt(cur)
			}
		}
		if cur != old {
			c := rootChange{slot: slot, old: old, final: cur}
			if p.digest&(1<<slot) != 0 {
				n := len(p.fresh)
				p.fresh = ed.Fresh(mark, p.fresh) // Seal empties the ledger
				c.fresh = p.fresh[n:len(p.fresh):len(p.fresh)]
			}
			p.changed = append(p.changed, c)
		}
	}
	p.at = -1
	p.batched += len(ops)
}

// seal closes p's edit: the coalesced flush sweep, ahead of the
// publication fence.
func (p *preparedBatch) seal() {
	p.ed.Seal()
	p.ed = nil
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
	p.locked = p.locked[:0]
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
// digests too when a spanning CommitAsync is among them. Before its fence,
// a round absorbs the one-root CommitAsync submissions queued since its
// cut whose roots it can take without overtaking anything queued on them
// (absorb), staged the same way. So the round's fence makes every
// CommitAsync in it durable — after a publication that cannot carry a
// digest the round fences once more — and every ticket resolves when its
// round returns, those of enrolled Basic updates and barriers too, which
// wait for publication only. Every release of leadership drains the
// queue under q.mu first, so nothing queued is ever left without a
// leader, not even after a round panicked (abortRound).

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
		sub.roots |= 1 << op.slot()
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

	// The round in flight, guarded by leadership, its storage kept from
	// round to round: its submissions (the cut, then what it absorbed),
	// their ops in the same order, and its prepared batch.
	subs []submission
	ops  []batchOp
	prep preparedBatch
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
		// before staging). Absorption does not replace it: a round absorbs
		// only one submission per root, and without the yield 16 clients
		// on 8 roots read 0.45–0.55 fences/op where it reads 0.24.
		q.mu.Unlock()
		runtime.Gosched()
		q.mu.Lock()
	}
	s.release()
	return t
}

// release is how every leader steps down: it drains the queue and clears
// leading under the same hold of q.mu. The caller leads and holds q.mu;
// release unlocks it. A panic that was not a corruption report, raised
// by a round and answered on its tickets, is raised again once the queue
// has a leader no more.
func (s *Store) release() {
	q := &s.sh.queue
	bug := s.drain()
	q.leading.Store(false)
	q.mu.Unlock()
	if bug != nil {
		panic(bug)
	}
}

// drain runs rounds until the queue is empty, and returns the first
// panic a round raised that was not a corruption report. The caller leads
// and holds q.mu, which each round releases while it commits.
func (s *Store) drain() (bug any) {
	q := &s.sh.queue
	for len(q.pending) > 0 {
		n, ops := 1, len(q.pending[0].ops)
		for n < len(q.pending) && ops+len(q.pending[n].ops) <= q.maxOps {
			ops += len(q.pending[n].ops)
			n++
		}
		q.subs = append(q.subs, q.pending[:n]...)
		q.pending = slices.Delete(q.pending, 0, n)
		q.mu.Unlock()
		if b := s.round(); bug == nil {
			bug = b
		}
		q.mu.Lock()
	}
	return bug
}

// round commits the queue's cut (q.subs) as one fence epoch and resolves
// its tickets: prepare holds every touched root's commit mutex from base
// read to SetRoot, so a racing lock-path commit waits for the round (and
// the round for it) instead of costing it a fence. A panic is answered on
// the round's tickets (abortRound) and returned when it is not a
// corruption report.
func (s *Store) round() (bug any) {
	q := &s.sh.queue
	p := &q.prep
	var basic, one, spanned uint64
	for _, sub := range q.subs {
		q.ops = append(q.ops, sub.ops...)
		switch {
		case sub.kind == subBasic:
			basic++
		case bits.OnesCount64(sub.roots) > 1:
			spanned |= sub.roots
		default:
			one |= sub.roots
		}
	}
	var held, published bool
	defer func() {
		if r := recover(); r != nil {
			bug = s.abortRound(r, held, published)
		}
		clear(q.subs)
		q.subs = q.subs[:0]
		clear(q.ops)
		q.ops = q.ops[:0]
	}()
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
	changed, fence := false, false
	if len(q.ops) > 0 {
		held = true
		p.prepare(s, q.ops, digest)
		p.alone = one &^ spanned
		p.seal()
		s.absorb(p)
		published = true
		publish([]*preparedBatch{p})
		p.finish()
		held = false
		changed, fence = len(p.changed) > 0, p.fenceAfter
	}
	async := false
	for _, sub := range q.subs {
		async = async || sub.kind == subAsync
	}
	if fence || async && !changed {
		s.heap.Fence()
	}
	if basic > 0 {
		q.busyUntil = s.dev.LocalNs() // at or past the old watermark by now
		s.sh.cstats.combines.Add(1)
		s.sh.cstats.combinedOps.Add(basic)
	}
	for _, sub := range q.subs {
		close(sub.ticket.done)
	}
	return nil
}

// absorb takes into p, a round's sealed and unpublished batch, the
// one-root CommitAsync submissions queued after the round's cut, which
// its fence can make durable as well, and applies their ops in a second
// edit of p's FASE, sealed here. It looks as late as it can, after the
// cut's seal sweep, for the later it looks the more it finds. A
// submission is taken only if the round does not hold its root, no
// earlier submission still queued names that root — a spanning batch, an
// enrolled Basic update, and a barrier, which names every root — its
// root's commit mutex is free (TryLock: a round never waits here), and
// the round stays within maxOps. Each taken root is staged on its own
// with its digest, as the cut's one-root submissions are, and its ticket
// resolves at this round's end.
func (s *Store) absorb(p *preparedBatch) {
	q := &s.sh.queue
	first, from := len(q.ops), len(q.subs)
	nops := first
	var blocked uint64
	for _, slot := range p.locked {
		blocked |= 1 << slot
	}
	q.mu.Lock()
	kept := 0
	for _, sub := range q.pending {
		if sub.kind == subBarrier {
			blocked = ^uint64(0)
		}
		slot := bits.TrailingZeros64(sub.roots)
		if sub.kind == subAsync && sub.roots&blocked == 0 && bits.OnesCount64(sub.roots) == 1 &&
			nops+len(sub.ops) <= q.maxOps && s.sh.rootMu[slot].TryLock() {
			p.locked = append(p.locked, slot)
			p.digest |= sub.roots
			p.alone |= sub.roots
			q.subs = append(q.subs, sub)
			q.ops = append(q.ops, sub.ops...)
			nops += len(sub.ops)
		} else {
			q.pending[kept] = sub
			kept++
		}
		blocked |= sub.roots
	}
	clear(q.pending[kept:])
	q.pending = q.pending[:kept]
	q.mu.Unlock()
	if len(q.subs) > from {
		p.ed = s.heap.BeginEdit()
		p.apply(q.ops[first:])
		p.seal()
	}
}

// abortRound answers a round that panicked — an op met a damaged node
// (*alloc.CorruptionPanic, *pmem.MediaError), or a bug — so that the
// queue keeps its leader's drain invariant: the round seals its edit,
// retires the shadows it built if it published none (their handles adopt
// the committed versions again), closes its FASE and unlocks its roots.
// A panic while applying the ops of one root resolves the tickets of the
// submissions naming that root with it — a *CorruptionError for a
// damaged node, which Is ErrCorrupted — and queues the round's other
// submissions again at the head of the queue, in order, for the next
// round. One raised anywhere else resolves every ticket of the round with
// it. Returns the panic unless it was a corruption report.
func (s *Store) abortRound(r any, held, published bool) (bug any) {
	q := &s.sh.queue
	p := &q.prep
	at := -1
	if held {
		at = p.at
		if p.ed != nil {
			p.ed.Seal()
			p.ed = nil
		}
		if !published {
			for _, c := range p.changed {
				for _, op := range q.ops {
					if op.slot() == c.slot {
						op.ds.base().adopt(c.old)
					}
				}
				s.heap.Release(c.final) // never published: eager retire is safe
			}
		}
		s.EndFASE()
		p.unlock()
	}
	var err error
	switch e := r.(type) {
	case *alloc.CorruptionPanic:
		err = &CorruptionError{Shard: s.sh.shard, Slot: at, Err: e}
	case *pmem.MediaError:
		err = &CorruptionError{Shard: s.sh.shard, Slot: at, Err: e}
	default:
		bug, err = r, fmt.Errorf("core: commit round panicked: %v", r)
	}
	var again []submission
	for _, sub := range q.subs {
		if at >= 0 && sub.roots&(1<<at) == 0 {
			again = append(again, sub)
			continue
		}
		sub.ticket.err = err
		close(sub.ticket.done)
	}
	q.mu.Lock()
	q.pending = slices.Insert(q.pending, 0, again...)
	q.mu.Unlock()
	return bug
}

// Ticket tracks an asynchronously submitted batch. It resolves once the
// batch is published and a fence has covered its publication (durable),
// or the submission was rejected or failed — Err distinguishes them.
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

// Err returns nil once Wait has returned and the batch is durable, the
// rejection reason (ErrStoreClosed) if the submission was refused, or,
// if its round panicked applying it, why: a *CorruptionError (Is
// ErrCorrupted) when an op met a damaged node. Only valid after Wait (or
// a true Done).
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
