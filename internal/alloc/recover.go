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

	type blockInfo struct {
		hdr    pmem.Addr
		stride uint32
		tag    uint8
		refs   int32 // reachable parents (pass 2); 0 = unmarked
		wasAll bool
		vol    bool
	}
	// While recovery runs, a genuine block's table slot holds its index
	// in blocks plus one; pass 3 replaces it with the rebuilt count.
	var blocks []blockInfo
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
					blocks = append(blocks, blockInfo{hdr: addr, stride: rem})
				} else if n := len(blocks); n > 0 && blocks[n-1].hdr+pmem.Addr(blocks[n-1].stride) == addr {
					// Too small for a header: absorb into the preceding
					// block (at most 8 bytes; strides are multiples of 8).
					blocks[n-1].stride += rem
					hv := packHeader(blocks[n-1].stride, blocks[n-1].tag, blocks[n-1].wasAll)
					if blocks[n-1].vol {
						hv |= hdrVolatileBit
					}
					h.dev.WriteU64(blocks[n-1].hdr, hv)
					h.dev.Clwb(blocks[n-1].hdr)
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
		blocks = append(blocks, blockInfo{hdr: addr, stride: stride, tag: tag, wasAll: allocated, vol: raw&hdrVolatileBit != 0})
		sh.blocks.install(addr + headerSize).Store(int32(len(blocks)))
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
	var stack []*blockInfo
	visit := func(payload pmem.Addr) error {
		if payload == pmem.Nil {
			return nil
		}
		s := sh.blocks.slot(payload)
		if s == nil || s.Load() == 0 {
			return fmt.Errorf("alloc: recovery found pointer to non-block address %#x", uint64(payload))
		}
		b := &blocks[s.Load()-1]
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
	for slot := 0; slot < RootSlots; slot++ {
		if h.dev.ReadU64(rootEntryAddr(slot)) == 0 {
			continue
		}
		root := h.Root(slot)
		if root == pmem.Nil {
			continue
		}
		rs.Roots++
		if err := visit(root); err != nil {
			return rs, err
		}
	}
	var sc Scratch
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if w := sh.walkers[b.tag]; w != nil {
			w(h, b.hdr+headerSize, &sc, visitChild)
			if walkErr != nil {
				return rs, walkErr
			}
		}
	}

	// Pass 3: sweep. Unmarked blocks — whether leaked by an interrupted
	// FASE or freed before the crash — return to the free lists, untracked.
	for _, b := range blocks {
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
