package alloc

import "github.com/mod-ds/mod/internal/pmem"

// Edit contexts ("transients", DESIGN.md §8). A MOD FASE that performs N
// operations pays for each one as if it were alone: every path node is
// re-copied and re-flushed per operation even though the intermediate
// shadows are garbage the moment the next operation runs. The paper's own
// observation (§4.2) is that nodes created *within* the current update are
// unpublished — no committed version, no concurrent reader, and no
// recovery path can see them — so they may be mutated in place with no
// extra ordering.
//
// An Edit is the per-FASE capability that makes this safe:
//
//   - Alloc hands out blocks the edit owns. Ownership is decided by
//     address: bump allocations come from contiguous edit-scoped runs
//     (claimed 4 KB at first and twice as much each time after, so the
//     check is a range test and the bump pointer is persisted once per
//     run instead of once per block), and free-list reuse is tracked in a
//     per-edit set.
//   - Owns answers "was this node allocated inside the current FASE?",
//     the precondition for mutating it in place instead of path-copying.
//   - Record defers a dirty range into the edit's pmem.FlushSet, which
//     dedupes by cacheline; nodes rewritten many times flush once.
//   - Seal issues the coalesced flush sweep. It must run before the
//     FASE's commit fence: after the sweep every line the edit dirtied is
//     inflight, the fence makes them durable, and the root swap that
//     publishes the edit's final version is ordered after both.
//
// # Crash consistency
//
// Deferring block-header flushes breaks the invariant recovery's chain
// walk relies on (headers durable in allocation-order prefix), so every
// claimed run is recorded in a persistent open-run table in the
// superblock before any header in it is written. The entry's clwb is
// covered by every subsequent fence, which gives the invariant recovery
// needs with no extra ordering: if any block after the run is committed,
// a fence ran after the claim, so the entry is durable. When a crash
// leaves torn headers inside a recorded run, recovery skips the dead
// remainder of the run instead of truncating the heap (recover.go); torn
// headers imply the edit's seal sweep was never fence-covered, which
// implies nothing in or after the run is committed.
//
// Seal deliberately leaves the entry in place — a clwb'd clear could
// become durable (cache eviction) while the headers it protects are
// still torn. The slot is reused, overwriting the entry, only once a
// fence has covered the seal sweep; from then on the old run's headers
// are durable and can never tear, so losing its entry is harmless.
// Recovery consumes and clears the whole table. Stale entries over
// sealed fence-covered runs are inert: the walk consults an entry only
// at a torn header, and no block ever straddles a recorded boundary.
//
// A sealed run's unused tail is returned to the bump allocator when the
// run is still the top of the heap (the persistent entry is shrunk in
// step so later blocks cannot straddle it); otherwise it is capped with
// one spanning free-block header and kept as a reserve that a later
// edit claims as its run. Tails too small to reserve join the free
// lists under their raw stride — reusable only by an exact-size
// request, a leak bounded by the run size in the worst case. The fillers
// that line-aligned placement leaves in front of whole-line blocks
// (placeAt) take the same road. Either way a tail or a filler reaches
// other edits only after the seal sweep is issued, so whatever they
// commit inside it is fenced together with this run's headers.
//
// An Edit is single-goroutine state, like the FASE it serves.
//
// # Reuse
//
// A handle keeps the edit its last FASE sealed and BeginEdit hands it out
// again, so a steady-state FASE allocates nothing for its bookkeeping:
// the run list, the recycled-block and node sets, the flush set and the
// node-image scratch all keep their storage (DESIGN.md §8, "Edit reuse
// and scratch ownership"). Seal empties the edit before parking it —
// a sealed edit owns nothing and rejects Alloc and Record — and the
// *Edit a caller still holds after Seal is dead: the handle's next
// BeginEdit may be the same object, serving another FASE.

// editRunBytes is an edit's first bump-run claim; each later one doubles,
// up to editRunBytes<<maxRunGrowth. A single allocation larger than the
// claim takes a run of its own size (and its placement gap).
const (
	editRunBytes = 4096
	maxRunGrowth = 4
)

// editRun is one contiguous bump region claimed by an edit. Sub-allocation
// state is volatile; [start, end) is mirrored in the open-run table.
type editRun struct {
	start, end pmem.Addr
	cur        pmem.Addr // sub-allocation watermark
	lastHdr    pmem.Addr // most recent sub-block header (for tail absorption)
	lastStride uint32    // its stride
	slot       int       // open-run table slot
}

// runSlotState is the volatile view of one open-run table slot.
type runSlotState struct {
	busy        bool
	sealed      bool
	sealedFence uint64 // device FenceSeq observed after the seal sweep
}

// reusable reports whether the slot can be claimed (and its persistent
// entry overwritten): never used, or sealed with the sweep fence-covered.
func (st runSlotState) reusable(fenceNow uint64) bool {
	return !st.busy || (st.sealed && fenceNow > st.sealedFence)
}

// Edit is a per-FASE edit context. Obtain with Heap.BeginEdit, thread
// through the funcds operations building the FASE's shadow, and Seal
// before the commit fence. Not safe for concurrent use.
type Edit struct {
	h       *Heap
	fs      *pmem.FlushSet
	runs    []editRun
	extra   pmem.OrderedSet[pmem.Addr] // owned blocks outside runs (free-list reuse, table-full fallback)
	nodes   pmem.OrderedSet[pmem.Addr] // the ledger: payloads awaiting the Seal checksum pass, in registration order (= PM-write order)
	nodeLen []int                      // nodeLen[i]: initialized bytes of nodes.Keys()[i]
	tails   []reserveRegion            // capped run tails, published once the sweep is issued
	elided  uint64
	sealed  bool
	scratch Scratch
}

// Scratch is a reusable node-image buffer: the bytes a node is read into
// before it is decoded, or encoded into before it is written. Slices
// handed to pmem.Backend's interface methods escape to the Go heap, so an
// image built on the goroutine stack would cost one allocation per node
// visited; a Scratch belongs to something that outlives the call — an
// Edit (Edit.Scratch) or a handle's cascade state — and is grown once.
// One image is live at a time: decode a node out of the buffer before
// asking for the next.
//
// A nil *Scratch is valid and allocates a fresh buffer per request; that
// is the path of operations running without an edit.
type Scratch struct{ buf []byte }

// Bytes returns an n-byte buffer with unspecified contents, valid until
// the next Bytes call on s.
func (s *Scratch) Bytes(n int) []byte {
	if s == nil {
		return make([]byte, n)
	}
	if cap(s.buf) < n {
		s.buf = make([]byte, max(n, 2*cap(s.buf), 512))
	}
	return s.buf[:n]
}

// Scratch returns the edit's node-image buffer (nil for a nil edit).
func (e *Edit) Scratch() *Scratch {
	if e == nil {
		return nil
	}
	return &e.scratch
}

func runEntryAddr(slot int) pmem.Addr {
	return pmem.Addr(offRuns + slot*runEntrySize)
}

// BeginEdit opens an edit context for one FASE on this handle: the edit
// the handle's last FASE sealed, reopened, or a fresh one when that edit
// is still open or was taken by another goroutine sharing the handle.
func (h *Heap) BeginEdit() *Edit {
	if e := h.spareEdit.Swap(nil); e != nil {
		e.sealed = false
		return e
	}
	return &Edit{h: h, fs: pmem.NewFlushSet(h.dev)}
}

// Heap returns the heap this edit allocates from.
func (e *Edit) Heap() *Heap { return e.h }

// Alloc returns the payload address of a new edit-owned block of at least
// size bytes, typed by tag, with reference count 1. The header write and
// the caller's payload writes are deferred into the edit's flush set; the
// block is not durable until Seal plus the commit fence.
func (e *Edit) Alloc(size int, tag uint8) pmem.Addr {
	return e.alloc(size, tag, false)
}

// AllocVolatile allocates an edit-owned navigation node (see
// Heap.AllocVolatile): the header still enters the flush set, but the
// payload is DRAM-resident navigation state the caller will not flush.
func (e *Edit) AllocVolatile(size int, tag uint8) pmem.Addr {
	return e.alloc(size, tag, true)
}

func (e *Edit) alloc(size int, tag uint8, volatile bool) pmem.Addr {
	if e.sealed {
		panic("alloc: Alloc on a sealed edit")
	}
	if size < 0 {
		panic("alloc: negative size")
	}
	stride := strideFor(size)
	h, sh := e.h, e.h.sh

	sh.mu.Lock()
	// Free-list reuse is safe under deferred header flushes: the recycled
	// block's durable header already carries the same stride, so the
	// recovery chain walk steps correctly over it even if the rewrite
	// never persists (stale tag/alloc bits only matter for reachable
	// blocks, and reachable implies sealed implies the rewrite is durable).
	if hdr, ok := sh.popFreeLocked(stride); ok {
		sh.noteAllocLocked(stride)
		sh.mu.Unlock()
		e.extra.Add(hdr + headerSize)
		return e.finishAlloc(hdr, stride, tag, volatile)
	}
	// Bump path: sub-allocate from this edit's current run, claiming a
	// fresh one (recorded in the open-run table) when needed.
	for i := range e.runs {
		if from, hdr, ok := e.runs[i].carve(stride); ok {
			return e.finishCarve(from, hdr, stride, tag, volatile, e.runs[i].slot)
		}
	}
	// A reserve — another edit's capped run tail — serves as the run
	// instead of a fresh bump, under the open-run slot of the run it was
	// cut from, whose durable entry already covers it.
	if rv, ok := sh.takeReserveLocked(stride); ok {
		e.runs = append(e.runs, editRun{start: rv.start, end: rv.end, cur: rv.start, slot: rv.slot})
		from, hdr, _ := e.runs[len(e.runs)-1].carve(stride)
		return e.finishCarve(from, hdr, stride, tag, volatile, rv.slot)
	}
	slot := -1
	fenceNow := h.dev.FenceSeq()
	for i := range sh.runSlots {
		if sh.runSlots[i].reusable(fenceNow) {
			slot = i
			break
		}
	}
	if slot < 0 {
		// Open-run table full: fall back to an eagerly flushed allocation,
		// still owned by the edit (tracked in the extra set). The header
		// must flush eagerly — it is outside every recorded run, so a torn
		// header there would truncate the recovery chain walk.
		sh.mu.Unlock()
		payload := h.alloc(size, tag, volatile, true)
		e.extra.Add(payload)
		return payload
	}
	// An edit's runs grow — its n-th (reserves counted) is editRunBytes <<
	// min(n, maxRunGrowth) — so a large batch holds a handful of open-run
	// slots instead of exhausting the table (DESIGN.md §8, "Run growth").
	runSize := uint32(editRunBytes) << min(len(e.runs), maxRunGrowth)
	runSize = max(runSize, uint32(placeAt(sh.top, stride)-sh.top)+stride)
	start := h.bumpLocked(runSize)
	sh.runSlots[slot] = runSlotState{busy: true}
	entry := runEntryAddr(slot)
	h.dev.WriteU64(entry, uint64(start))
	h.dev.WriteU64(entry+8, uint64(start)+uint64(runSize))
	h.dev.Clwb(entry)
	e.runs = append(e.runs, editRun{start: start, end: start + pmem.Addr(runSize), cur: start, slot: slot})
	from, hdr, _ := e.runs[len(e.runs)-1].carve(stride)
	return e.finishCarve(from, hdr, stride, tag, volatile, slot)
}

// carve places a block of stride bytes at the run's watermark (placeAt)
// if it fits, and returns where the free space began and the block's
// header. Caller holds mu.
func (r *editRun) carve(stride uint32) (from, hdr pmem.Addr, ok bool) {
	hdr = placeAt(r.cur, stride)
	if hdr+pmem.Addr(stride) > r.end {
		return 0, 0, false
	}
	from = r.cur
	r.cur, r.lastHdr, r.lastStride = hdr+pmem.Addr(stride), hdr, stride
	return from, hdr, true
}

// finishCarve counts a block carve returned, releases mu, covers the
// placement gap [from, hdr) with a filler, and finishes the block.
func (e *Edit) finishCarve(from, hdr pmem.Addr, stride uint32, tag uint8, volatile bool, slot int) pmem.Addr {
	e.h.sh.noteAllocLocked(stride)
	e.h.sh.mu.Unlock()
	if hdr > from {
		e.carveFiller(from, hdr, slot)
	}
	return e.finishAlloc(hdr, stride, tag, volatile)
}

// carveFiller covers a placement gap [start, end) inside one of the
// edit's runs with a free header, deferred to the Seal sweep like every
// header of the run, and queues the gap with the run tails: it reaches
// the free lists only in publishTailsLocked, after the sweep has issued
// the header's clwb, exactly as a capped tail does. Only the header's
// first word is recorded; the checksum word is never read on a free block
// and may sit on a line the filler otherwise leaves untouched.
func (e *Edit) carveFiller(start, end pmem.Addr, slot int) {
	e.h.writeFreeHeader(start, end)
	e.fs.Add(start, 8)
	e.tails = append(e.tails, reserveRegion{start: start, end: end, slot: slot})
}

// Reserve tails. When an edit seals while other allocations sit above
// its run (so the bump pointer cannot rewind), the run's unused tail is
// kept as a reserve: a later edit claims it as its run instead of
// bumping a fresh run, so concurrent-writer workloads reach an arena
// steady state too. Only run tails recirculate this way — never ordinary
// freed data blocks — so every recorded run boundary is an original
// bump-run end, and every subsequent tiling of the region ends exactly
// there. That keeps recovery's run-skip and boundary-crossing checks
// sound: no durable block can ever straddle a recorded (even stale)
// entry end.
//
// A reserve keeps the open-run slot of the run it was cut from, held
// (not reusable) until the edit that claims it seals with the tail used
// up and a fence covers that sweep. The slot's durable entry is what
// covers the claimer's writes: a reserve lies below blocks committed
// before it was claimed, so a header the claimer writes there that
// reaches PM early (an evicted line) in front of one that has not must
// land inside a recorded run, or recovery's chain walk would truncate
// the heap at the torn one and lose every block above it. A fresh entry
// written at the claim could still be in flight then; the cut-from run's
// entry is durable, since any committed block above the reserve was
// claimed — and fenced — after that run.

// reserveMin is the smallest tail worth keeping as a reserve;
// reserveCap bounds the reserves, each of which holds a slot.
const (
	reserveMin = 512
	reserveCap = EditRunSlots / 2
)

type reserveRegion struct {
	start, end pmem.Addr
	slot       int // the open-run slot of the run the tail was cut from
}

// takeReserveLocked pops the first reserve able to hold a block of stride
// bytes placed by placeAt. Caller holds mu.
func (sh *heapShared) takeReserveLocked(stride uint32) (reserveRegion, bool) {
	for i, r := range sh.reserves {
		if placeAt(r.start, stride)+pmem.Addr(stride) <= r.end {
			sh.reserves = append(sh.reserves[:i], sh.reserves[i+1:]...)
			return r, true
		}
	}
	return reserveRegion{}, false
}

// finishAlloc announces, writes (deferred-flush), and registers a block.
func (e *Edit) finishAlloc(hdr pmem.Addr, stride uint32, tag uint8, volatile bool) pmem.Addr {
	h := e.h
	if t := h.dev.Tracer(); t != nil {
		t.Alloc(hdr, uint64(stride), tag)
	}
	h.dev.WriteU64(hdr, packHeader(stride, tag, true))
	// Zero a recycled block's stale checksum word; the Seal checksum pass
	// rewrites it for every durable node registered via RecordNode.
	h.dev.WriteU64(hdr+8, 0)
	e.fs.Add(hdr, headerSize)
	return h.registerBlock(hdr, volatile)
}

// Owns reports whether the block at payload was allocated inside this
// edit — the precondition for mutating it in place. Addresses from the
// committed base version, or from any other FASE, are never owned.
func (e *Edit) Owns(payload pmem.Addr) bool {
	if e == nil || payload == pmem.Nil {
		return false
	}
	hdr := payload - headerSize
	for i := range e.runs {
		if hdr >= e.runs[i].start && hdr < e.runs[i].cur {
			return true
		}
	}
	return e.extra.Find(payload) >= 0
}

// Mark returns the edit's ledger position: the number of durable nodes
// RecordNode has registered so far. Fresh(mark, dst) lists the ones
// registered after it.
func (e *Edit) Mark() int { return e.nodes.Len() }

// Fresh appends to dst the ledger from mark on: the durable nodes that
// RecordNode registered since Mark returned mark, in registration order,
// less those released inside the edit (a rebuilt map root, a superseded
// owned record cell), whose reference count is 0. When the ops applied
// since mark built one root's next version, these are exactly the durable
// blocks a publication of that version adds to the heap: an owned block
// is reachable only through owned parents, and volatile navigation nodes
// are never registered. It reads no PM. Call before Seal, which empties
// the ledger.
func (e *Edit) Fresh(mark int, dst []pmem.Addr) []pmem.Addr {
	for _, a := range e.nodes.Keys()[mark:] {
		if e.h.RefCount(a) > 0 {
			dst = append(dst, a)
		}
	}
	return dst
}

// Record defers a flush of every line overlapping [addr, addr+n) to the
// Seal sweep, deduplicating against everything recorded so far.
func (e *Edit) Record(addr pmem.Addr, n int) {
	if e.sealed {
		panic("alloc: Record on a sealed edit")
	}
	e.fs.Add(addr, n)
}

// RecordNode is Record for a whole freshly initialized node: addr is the
// node's payload address and n its initialized length. Besides deferring
// the flush it registers the node for the Seal checksum pass, which
// stamps every registered node's checksum word before the sweep. Later
// in-place mutations within [addr, addr+n) need only Record; they are
// re-covered because the checksum is computed at Seal time.
func (e *Edit) RecordNode(addr pmem.Addr, n int) {
	if e.sealed {
		panic("alloc: RecordNode on a sealed edit")
	}
	e.fs.Add(addr, n)
	i, added := e.nodes.Add(addr)
	if added {
		e.nodeLen = append(e.nodeLen, n)
	} else if n > e.nodeLen[i] {
		e.nodeLen[i] = n
	}
}

// NoteCopyElided counts one node copy avoided by in-place mutation; the
// total is published to the device stats at Seal.
func (e *Edit) NoteCopyElided() { e.elided++ }

// CopiesElided returns the number of copies elided so far.
func (e *Edit) CopiesElided() uint64 { return e.elided }

// Seal closes the edit: returns or caps each run's unused tail, issues
// the coalesced flush sweep, and marks the run-table slots sealed (their
// persistent entries remain until a fence-covered reuse or recovery —
// see the package comment). It must be called before the FASE's commit
// fence; the edit is dead afterwards, and parked on its handle for the
// next BeginEdit. Seal is idempotent until then.
func (e *Edit) Seal() {
	if e.sealed {
		return
	}
	h, sh := e.h, e.h.sh

	// Give back or cap each run's unused tail. A run still at the top of
	// the heap is simply un-bumped: the persistent entry's end shrinks to
	// the watermark first, so a block a later FASE allocates in the
	// reclaimed space can never straddle the recorded boundary.
	sh.mu.Lock()
	for i := range e.runs {
		r := &e.runs[i]
		if r.cur < r.end && sh.top == r.end {
			h.dev.WriteU64(runEntryAddr(r.slot)+8, uint64(r.cur))
			h.dev.Clwb(runEntryAddr(r.slot))
			sh.top = r.cur
			h.dev.WriteU64(offBumpTop, uint64(sh.top))
			h.dev.Clwb(offBumpTop)
			r.end = r.cur
		}
	}
	sh.mu.Unlock()
	for i := range e.runs {
		e.capRun(&e.runs[i])
	}

	// Checksum pass: stamp every durable node the edit initialized, in
	// registration order (map iteration would make PM-write order — and
	// with it crash-injection indices — nondeterministic). This runs after
	// capRun so an absorbed tail's widened stride is what the checksum
	// covers, and before the sweep so every checksum word is flushed by
	// it. Run and free-list nodes' header lines are already in the flush
	// set; fallback nodes' checksum line is added here.
	for i, a := range e.nodes.Keys() {
		h.SetChecksum(a, e.nodeLen[i])
		e.fs.Add(a-headerSize+8, 8)
	}

	e.fs.Flush()
	fence := h.dev.FenceSeq()
	sh.mu.Lock()
	for i := range e.runs {
		sh.runSlots[e.runs[i].slot] = runSlotState{busy: true, sealed: true, sealedFence: fence}
	}
	e.publishTailsLocked()
	sh.mu.Unlock()
	h.dev.NoteCopiesElided(e.elided)
	e.runs = e.runs[:0]
	e.extra.Reset()
	e.nodes.Reset()
	e.nodeLen = e.nodeLen[:0]
	e.elided = 0
	e.sealed = true
	h.spareEdit.Store(e)
}

// capRun covers a sealed run's unused tail [cur, end) with one spanning
// free-block header so the recovery chain walk steps over it, and queues
// the region for publishTailsLocked (sub-header slack is absorbed into
// the preceding block instead).
func (e *Edit) capRun(r *editRun) {
	if r.cur >= r.end {
		return
	}
	h, sh := e.h, e.h.sh
	rem := uint32(r.end - r.cur)
	if rem <= headerSize {
		// Too small to carry a header: absorb into the preceding block
		// (strides are multiples of 8, so rem is 8 or 16). The edit
		// carved that block, so it knows the stride; the rewrite widens
		// the header's stride field (its low 32 bits) and keeps the rest.
		stride := r.lastStride
		h.dev.WriteU64(r.lastHdr, h.dev.ReadU64(r.lastHdr)&^uint64(1<<32-1)|uint64(stride+rem))
		e.fs.Add(r.lastHdr, headerSize)
		if last := r.lastHdr + headerSize; h.RefCount(last) == 0 {
			sh.ebr.widenRetired(last, stride+rem) // released inside this FASE
		}
		sh.mu.Lock()
		sh.stats.LiveBytes += uint64(rem)
		sh.stats.CumBytes += uint64(rem)
		sh.mu.Unlock()
		return
	}
	h.writeFreeHeader(r.cur, r.end)
	e.fs.Add(r.cur, headerSize)
	e.tails = append(e.tails, reserveRegion{start: r.cur, end: r.end, slot: r.slot})
}

// publishTailsLocked hands the capped tails to other edits — as reserves
// when big enough, else to the free lists. Seal calls it only after its
// flush sweep: an edit that claims a tail allocates after every clwb of
// the sweep, so the fence that commits anything it builds there also
// makes this edit's headers durable. Published before the sweep, a tail
// could be claimed and committed while the headers in front of it —
// among them a stale spanning header over the whole tail — were still
// the durable ones, and recovery's chain walk would step over the
// committed blocks. Caller holds mu.
func (e *Edit) publishTailsLocked() {
	sh := e.h.sh
	for _, t := range e.tails {
		if rem := uint32(t.end - t.start); rem >= reserveMin && len(sh.reserves) < reserveCap {
			sh.reserves = append(sh.reserves, t)
			sh.runSlots[t.slot] = runSlotState{busy: true} // held for the reserve
		} else {
			sh.pushFreeLocked(rem, t.start)
		}
	}
	e.tails = e.tails[:0]
}
