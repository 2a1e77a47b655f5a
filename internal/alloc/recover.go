package alloc

import (
	"fmt"

	"github.com/mod-ds/mod/internal/pmem"
)

// Recovery (§5.3). After a crash the heap contains (a) datastructure
// versions reachable from the root table — exactly the committed state —
// and (b) orphaned blocks from interrupted FASEs and from reclamations
// whose metadata never became durable. Recover performs the paper's
// reachability analysis: it marks everything reachable from the roots via
// the registered walkers, rebuilds the volatile reference counts as the
// number of reachable parents, sweeps everything else onto the free lists,
// and repairs the bump pointer if its last update was lost.
//
// Recovery time is charged to the simulated clock; the paper's reported
// results include garbage collection time, and so do ours.

// recBlock is one block of the chain as recovery found it.
type recBlock struct {
	hdr    pmem.Addr
	stride uint32
	refs   int32 // reachable parents (pass 2); 0 = unmarked
	tent   int32 // parents inside a staged publication being validated
	tag    uint8
	wasAll bool
	vol    bool
}

// rootWord is a named root's slot and a cell word for it.
type rootWord struct {
	slot int
	word uint64
}

// recovery is the state of one Recover pass. While it runs, a genuine
// block's table slot holds its index in blocks plus one; pass 3 replaces
// it with the rebuilt count.
type recovery struct {
	h      *Heap
	blocks []recBlock
	sc     Scratch
}

// block returns the block whose payload starts at payload, or nil.
func (r *recovery) block(payload pmem.Addr) *recBlock {
	s := r.h.sh.blocks.slot(payload)
	if s == nil || s.Load() == 0 {
		return nil
	}
	return &r.blocks[s.Load()-1]
}

// walk runs b's walker, if its tag has one.
func (r *recovery) walk(b *recBlock, visit func(pmem.Addr)) {
	if w := r.h.sh.walkers[b.tag]; w != nil {
		w(r.h, b.hdr+headerSize, &r.sc, visit)
	}
}

// Recover rebuilds volatile allocator state from the durable heap image.
// It must run before the heap is shared across goroutines.
func (h *Heap) Recover() (RecoveryStats, error) {
	var rs RecoveryStats

	sh := h.sh
	h.resetCache()
	sh.blocks = newBlockTable(sh.end)
	sh.borrows.reset()
	sh.taintCount.Store(0)
	sh.free = make(map[uint32][]pmem.Addr)
	sh.ebr.mu.Lock()
	sh.ebr.retired = sh.ebr.retired[:0]
	sh.ebr.mu.Unlock()
	sh.stats.LiveBytes = 0
	r := &recovery{h: h}

	// Pass 1: validate the block chain, repairing a stale bump pointer.
	// The open-run table lists bump runs claimed by edits that never
	// sealed: their headers were deferred-flushed, so the chain may tear
	// inside a recorded run without implying anything about blocks beyond
	// it. A torn header inside a recorded run kills only the remainder of
	// that run (an unsealed edit is unreachable from every durable root by
	// the fence ordering in edit.go); a torn header anywhere else
	// truncates the heap as before.
	type openRun struct{ start, end pmem.Addr }
	var openRuns []openRun
	for slot := 0; slot < EditRunSlots; slot++ {
		start := pmem.Addr(h.dev.ReadU64(runEntryAddr(slot)))
		end := pmem.Addr(h.dev.ReadU64(runEntryAddr(slot) + 8))
		if start >= heapBase && start < end && end <= sh.top {
			openRuns = append(openRuns, openRun{start: start, end: end})
		}
	}
	runOver := func(a pmem.Addr) (openRun, bool) {
		for _, r := range openRuns {
			if a >= r.start && a < r.end {
				return r, true
			}
		}
		return openRun{}, false
	}

	addr := pmem.Addr(heapBase)
	for addr+headerSize <= sh.top {
		raw := h.dev.ReadU64(addr)
		stride, tag, allocated, ok := unpackHeader(raw)
		if ok && (addr+pmem.Addr(stride) > sh.end || stride < headerSize+1) {
			ok = false
		}
		run, inRun := runOver(addr)
		if ok && inRun && addr+pmem.Addr(stride) > run.end {
			// A genuine block never crosses out of its run; this is
			// payload garbage that happens to parse as a header.
			ok = false
		}
		if !ok {
			if inRun {
				// Dead remainder of an interrupted edit's run: make it
				// permanently walkable (a second crash may find the run
				// entry reused) and resume at the run boundary.
				rem := uint32(run.end - addr)
				if rem > headerSize {
					h.dev.WriteU64(addr, packHeader(rem, 0, false))
					h.dev.Clwb(addr)
					r.blocks = append(r.blocks, recBlock{hdr: addr, stride: rem})
				} else if n := len(r.blocks); n > 0 && r.blocks[n-1].hdr+pmem.Addr(r.blocks[n-1].stride) == addr {
					// Too small for a header: absorb into the preceding
					// block (at most 8 bytes; strides are multiples of 8).
					last := &r.blocks[n-1]
					last.stride += rem
					hv := packHeader(last.stride, last.tag, last.wasAll)
					if last.vol {
						hv |= hdrVolatileBit
					}
					h.dev.WriteU64(last.hdr, hv)
					h.dev.Clwb(last.hdr)
				}
				addr = run.end
				continue
			}
			// Torn or never-written header: everything at and beyond this
			// point was allocated after the last durable commit and is
			// unreachable. Truncate the heap here.
			sh.top = addr
			h.dev.WriteU64(offBumpTop, uint64(sh.top))
			h.dev.Clwb(offBumpTop)
			h.dev.Sfence()
			break
		}
		r.blocks = append(r.blocks, recBlock{hdr: addr, stride: stride, tag: tag, wasAll: allocated, vol: raw&hdrVolatileBit != 0})
		sh.blocks.install(addr + headerSize).Store(int32(len(r.blocks)))
		addr += pmem.Addr(stride)
	}
	// The table is consumed: no edit survives a crash. Synthesized headers
	// are fenced before the entries clear so a second crash still finds a
	// walkable chain.
	if len(openRuns) > 0 {
		h.dev.Sfence()
		for slot := 0; slot < EditRunSlots; slot++ {
			h.dev.WriteU64(runEntryAddr(slot), 0)
			h.dev.WriteU64(runEntryAddr(slot)+8, 0)
			h.dev.Clwb(runEntryAddr(slot))
		}
		h.dev.Sfence()
	}

	// Pass 2: mark from roots, rebuilding reference counts as the number
	// of reachable parents (plus one per root-table reference).
	//
	// Blocks carrying the volatile-node bit are navigation state whose
	// payload was never flushed: recovery must not trust (or recurse
	// into) their contents. They are kept live — the committed structure
	// header still references them until the selective rebuild replaces
	// it — but their payloads are zeroed so every later walker sees an
	// empty node, and their children are left unmarked for the sweep
	// (DESIGN.md §10).
	var stack []*recBlock
	visit := func(payload pmem.Addr) error {
		if payload == pmem.Nil {
			return nil
		}
		b := r.block(payload)
		if b == nil {
			return fmt.Errorf("alloc: recovery found pointer to non-block address %#x", uint64(payload))
		}
		if b.refs++; b.refs == 1 {
			if b.vol {
				rs.VolatileBlocks++
				h.dev.Zero(payload, int(b.stride)-headerSize)
			} else {
				stack = append(stack, b)
			}
		}
		return nil
	}
	var walkErr error
	visitChild := func(child pmem.Addr) {
		if walkErr == nil {
			walkErr = visit(child)
		}
	}
	var named []rootWord
	for slot := 0; slot < RootSlots; slot++ {
		if h.dev.ReadU64(rootEntryAddr(slot)) == 0 {
			continue
		}
		w := h.dev.ReadU64(h.RootCellAddr(slot))
		h.noteCell(slot, w)
		named = append(named, rootWord{slot, w})
		root := cellAddr(w)
		if root == pmem.Nil {
			continue
		}
		rs.Roots++
		if err := visit(root); err != nil {
			return rs, err
		}
	}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r.walk(b, visitChild)
		if walkErr != nil {
			return rs, walkErr
		}
	}

	// Pass 2b: staged publications, decided against the marks. A heap
	// whose stage-live flag is clear has never written a stage slot.
	if sh.stageReady.Load() {
		rs.StagedRoots = r.applyStaged(named)
	}

	// Pass 3: sweep. Unmarked blocks — whether leaked by an interrupted
	// FASE, freed before the crash, or superseded by a staged publication
	// pass 2b applied — return to the free lists, untracked.
	for _, b := range r.blocks {
		// install, not slot: a synthesized dead-run remainder was never indexed.
		s := sh.blocks.install(b.hdr + headerSize)
		if b.refs > 0 {
			s.Store(b.refs + 1)
			rs.LiveBlocks++
			rs.LiveBytes += uint64(b.stride)
			sh.stats.LiveBytes += uint64(b.stride)
			continue
		}
		s.Store(0)
		sh.pushFreeLocked(b.stride, b.hdr)
		if b.wasAll {
			rs.LeakedBlocks++
			rs.LeakedBytes += uint64(b.stride)
		}
	}
	return rs, nil
}

// applyStaged is recovery's half of the staged one-root publication
// (roots.go, DESIGN.md §7). For each root it applies, oldest first, every
// stage slot whose old cell word is the root's current one and whose
// publication re-verifies: every block reachable from its final version
// and not already marked — the blocks that publication added — carries a
// checksum that verifies, and those blocks, as many as the slot names,
// fold with the root slot, the slot index and both cell words to the
// slot's checksum. An applied slot's version replaces the old one in the
// marks (its blocks join them, the old version's own blocks leave them)
// and in the cell. Then every slot is consumed, an unnamed root's too (a
// root whose claim never became durable may have staged): after a fence
// covering the cell writes, each nonzero meta word is zeroed and fenced,
// so no slot outlives the recovery that decided it. named holds every
// named root's cell word as pass 2 read it, in slot order. Returns the
// roots it moved.
func (r *recovery) applyStaged(named []rootWord) int {
	h := r.h
	var moved []rootWord
	var consume []pmem.Addr
	for slot := 0; slot < RootSlots; slot++ {
		var ps [stageSlots]stagedPub
		for i := range ps {
			if ps[i] = h.readStage(slot, i); ps[i].meta != 0 {
				consume = append(consume, h.stageSlotAddr(slot, i)+16)
			}
		}
		if len(named) == 0 || named[0].slot != slot {
			continue
		}
		rw := named[0]
		named = named[1:]
		cur := rw.word
		for range ps {
			i := stageIndex(nextCellWord(cur, pmem.Nil))
			p := ps[i]
			if p.meta == 0 || p.old != cur || !r.verifyStaged(rw.slot, i, p) {
				break
			}
			if old := cellAddr(cur); old != pmem.Nil {
				r.release(old)
			}
			cur = p.final
		}
		if cur != rw.word {
			moved = append(moved, rootWord{rw.slot, cur})
		}
	}
	for _, m := range moved {
		h.dev.WriteU64(h.RootCellAddr(m.slot), m.word)
		h.dev.Clwb(h.RootCellAddr(m.slot))
		h.noteCell(m.slot, m.word)
	}
	if len(moved) > 0 {
		h.dev.Sfence()
	}
	for _, at := range consume {
		h.dev.WriteU64(at, 0)
		h.dev.Clwb(at)
	}
	if len(consume) > 0 {
		h.dev.Sfence()
	}
	return len(moved)
}

// verifyStaged decides stage slot i of slot against the marks, and on
// success marks the publication's blocks: the fresh ones (unmarked, now
// counted by their parents inside the publication and the root
// reference) and the marked ones it shares (one more parent each).
func (r *recovery) verifyStaged(slot, i int, p stagedPub) (ok bool) {
	h := r.h
	var (
		fresh, shared []*recBlock
		fold          uint64
		failed        bool
	)
	defer func() {
		if v := recover(); v != nil {
			switch v.(type) {
			case *CorruptionPanic, *pmem.MediaError:
				ok = false
			default:
				panic(v)
			}
		}
		for _, b := range fresh {
			if ok {
				b.refs = b.tent
			}
			b.tent = 0
		}
		if ok {
			for _, b := range shared {
				b.refs++
			}
		}
	}()
	visit := func(a pmem.Addr) {
		if failed || a == pmem.Nil {
			return
		}
		b := r.block(a)
		switch {
		case b == nil:
			failed = true
		case b.refs > 0:
			shared = append(shared, b)
		case b.tent > 0:
			b.tent++
		case len(fresh) == p.count():
			failed = true // more blocks than the slot names
		default:
			crc, good := h.freshCRC(a)
			if !good {
				failed = true
				return
			}
			b.tent = 1
			fresh = append(fresh, b)
			fold += stageMix(a, crc)
		}
	}
	visit(cellAddr(p.final))
	for j := 0; j < len(fresh) && !failed; j++ {
		r.walk(fresh[j], visit)
	}
	return !failed && len(fresh) == p.count() && p.binds(slot, i, fold)
}

// release drops the root reference of the marked version at payload,
// unmarking every block only it held.
func (r *recovery) release(payload pmem.Addr) {
	b := r.block(payload)
	if b == nil || b.refs == 0 {
		return
	}
	var dead []*recBlock
	drop := func(c pmem.Addr) {
		if c == pmem.Nil {
			return
		}
		if cb := r.block(c); cb != nil && cb.refs > 0 {
			if cb.refs--; cb.refs == 0 {
				dead = append(dead, cb)
			}
		}
	}
	drop(payload)
	for len(dead) > 0 {
		b := dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		if !b.vol { // a volatile node's children were never counted
			r.walk(b, drop)
		}
	}
}

// freshCRC returns the stored checksum of the block at payload if it is an
// allocated, checksummed, durable node whose checksum verifies.
func (h *Heap) freshCRC(payload pmem.Addr) (uint32, bool) {
	if _, _, vol, err := h.verifyNode(payload); err != nil || vol {
		return 0, false
	}
	_, crc, has := unpackCheck(h.dev.ReadU64(payload - headerSize + 8))
	return crc, has
}

// OpenAndRecover attaches to the heap on dev and runs recovery.
func OpenAndRecover(dev pmem.Backend) (*Heap, RecoveryStats, error) {
	h, err := Open(dev)
	if err != nil {
		return nil, RecoveryStats{}, err
	}
	rs, err := h.Recover()
	if err != nil {
		return nil, rs, err
	}
	return h, rs, nil
}
