package alloc

import (
	"fmt"
	"slices"
	"sort"

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

// walk runs b's walker, if its tag has one. It never visits navigation
// words (RegisterNavigation): recovered state does not depend on them.
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
					h.dev.WriteU64(last.hdr, packHeader(last.stride, last.tag, last.wasAll))
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
		r.blocks = append(r.blocks, recBlock{hdr: addr, stride: stride, tag: tag, wasAll: allocated})
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

	// Pass 2a: stage slots. A group one of whose swaps landed rolls its
	// other members forward now, so pass 2 marks from the final roots.
	groups, consume := h.readGroups()
	rs.StagedRoots = r.rollForward(groups)

	// Pass 2: mark from roots, rebuilding reference counts as the number
	// of reachable parents (plus one per root-table reference). The walk
	// never follows a navigation word, so a navigation node no checkpoint
	// names is left unmarked for the sweep, whatever its payload holds
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
			stack = append(stack, b)
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

	// Pass 2b: the groups none of whose swaps landed, decided against
	// the marks; then every stage slot is consumed.
	rs.StagedRoots += r.applyStaged(groups, named, consume)

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

// foundGroup is one staged publication as recovery found it: every
// intact stage slot carrying its group word, and whether one of their
// swaps has reached its cell (landed).
type foundGroup struct {
	members []stagedPub
	landed  bool
}

// readGroups reads the stage table (roots.go, DESIGN.md §7): the intact
// slots gathered into groups in staging order — a group's sequence number
// orders it after every publication its roots had before — and the meta
// word of every nonzero slot, intact or not, an unnamed root's too, for
// applyStaged to consume.
func (h *Heap) readGroups() ([]*foundGroup, []pmem.Addr) {
	byWord := make(map[uint64]*foundGroup)
	var groups []*foundGroup
	var consume []pmem.Addr
	for slot := 0; slot < RootSlots; slot++ {
		for i := 0; i < stageSlots; i++ {
			p := h.readStage(slot, i)
			if p.meta == 0 {
				continue
			}
			consume = append(consume, h.stageSlotAddr(slot, i)+24)
			if !p.intact() {
				continue
			}
			g := byWord[p.group]
			if g == nil {
				g = &foundGroup{}
				byWord[p.group] = g
				groups = append(groups, g)
			}
			g.members = append(g.members, p)
			g.landed = g.landed || h.swapLanded(slot, p.final)
		}
	}
	sort.Slice(groups, func(a, b int) bool {
		return groups[a].members[0].group>>groupSizeBits < groups[b].members[0].group>>groupSizeBits
	})
	return groups, consume
}

// StagedSwap is one intact stage slot of a group spanning heaps: the root
// slot, the cell word its publication writes, and whether that write (or
// a later publication) has reached the cell.
type StagedSwap struct {
	Slot   int
	Final  uint64
	Landed bool
}

// PartialGroups returns, by group word, the intact members of every group
// this heap holds fewer of than the group's size: publications spanning
// the heaps that share its group counter (ShareGroups), and torn ones. A
// store gathers them from all of its heaps before any recovers, and rolls
// every member of a group forward (ReplaySwap) once one of its swaps has
// landed on any heap: the group's fences on every heap came before its
// first swap. A group none of whose swaps landed is left to each heap's
// Recover, which discards it, finding fewer than its size.
func (h *Heap) PartialGroups() map[uint64][]StagedSwap {
	groups, _ := h.readGroups()
	out := make(map[uint64][]StagedSwap)
	for _, g := range groups {
		if len(g.members) >= g.members[0].size() {
			continue
		}
		for _, p := range g.members {
			out[p.group] = append(out[p.group], StagedSwap{Slot: p.slot, Final: p.final, Landed: h.swapLanded(p.slot, p.final)})
		}
	}
	return out
}

// rollForward writes, for every group one of whose swaps landed, in
// staging order, each member's final into its named root's cell where the
// cell still holds the publication just before it. A landed swap means
// the group's fence completed, so every member's slot and blocks are
// durable: they need no verification, and the roll-forward runs before
// the marks. A cell already past its member's final keeps its later
// publication. Returns the cells it wrote, which applyStaged fences.
func (r *recovery) rollForward(groups []*foundGroup) int {
	h := r.h
	moved := 0
	for _, g := range groups {
		if !g.landed {
			continue
		}
		for _, p := range g.members {
			cell := h.RootCellAddr(p.slot)
			if h.dev.ReadU64(rootEntryAddr(p.slot)) == 0 || !follows(p.final, h.dev.ReadU64(cell)) {
				continue
			}
			h.dev.WriteU64(cell, p.final)
			h.dev.Clwb(cell)
			moved++
		}
	}
	return moved
}

// applyStaged is recovery's decision on the groups none of whose swaps
// landed: their fences may not have completed. In staging order it applies
// a group iff all r of its members were found, each on a named root whose
// current cell word is the one just before its final, and each re-verifies
// (verifyStaged) — so a publication of one root or several applies whole
// or not at all, and a member without a digest (Batch.Commit,
// CommitUnrelated, a checkpoint fold) never applies this way. An applied
// member's version replaces the old one in the marks (its blocks join
// them, the old version's own blocks leave them) and in the cell. Then,
// after a fence covering every cell recovery wrote, each slot in consume is
// zeroed and fenced, so no slot outlives the recovery that decided it.
// named holds every named root's cell word as pass 2 read it, in slot
// order. Returns the roots it moved.
func (r *recovery) applyStaged(groups []*foundGroup, named []rootWord, consume []pmem.Addr) int {
	h := r.h
	var cur [RootSlots]uint64
	var isNamed [RootSlots]bool
	for _, rw := range named {
		cur[rw.slot], isNamed[rw.slot] = rw.word, true
	}
	var moved []int
	for _, g := range groups {
		if g.landed || len(g.members) != g.members[0].size() {
			continue
		}
		ok := true
		for _, p := range g.members {
			ok = ok && isNamed[p.slot] && p.count() > 0 && follows(p.final, cur[p.slot])
		}
		var marks []pubMarks
		for _, p := range g.members {
			if !ok {
				break
			}
			var m pubMarks
			m, ok = r.verifyStaged(p)
			marks = append(marks, m)
		}
		for _, m := range marks {
			r.settle(m, ok)
		}
		if !ok {
			continue
		}
		for _, p := range g.members {
			if old := cellAddr(cur[p.slot]); old != pmem.Nil {
				r.release(old)
			}
			cur[p.slot] = p.final
			if !slices.Contains(moved, p.slot) {
				moved = append(moved, p.slot)
			}
		}
	}
	for _, slot := range moved {
		h.dev.WriteU64(h.RootCellAddr(slot), cur[slot])
		h.dev.Clwb(h.RootCellAddr(slot))
		h.noteCell(slot, cur[slot])
	}
	if len(moved) > 0 || len(consume) > 0 {
		h.dev.Sfence() // every cell recovery wrote, before the slots that moved them go
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

// pubMarks is what verifying one staged publication marked tentatively:
// the blocks it adds and the marked blocks it shares.
type pubMarks struct{ fresh, shared []*recBlock }

// settle keeps the tentative marks — each fresh block counted by its
// parents inside the publication and the root reference, each shared one
// by one more parent — or drops them.
func (r *recovery) settle(m pubMarks, keep bool) {
	for _, b := range m.fresh {
		if keep {
			b.refs = b.tent
		}
		b.tent = 0
	}
	if keep {
		for _, b := range m.shared {
			b.refs++
		}
	}
}

// verifyStaged decides one member against the marks: every block
// reachable from its final version and not already marked — the blocks
// that publication added, reached as pass 2 reaches them, never through a
// navigation word — carries a checksum that verifies, and those blocks, as
// many as the slot counts, fold to its digest. The marks it returns are
// tentative until the caller settles them.
func (r *recovery) verifyStaged(p stagedPub) (m pubMarks, ok bool) {
	h := r.h
	var (
		fold   uint64
		failed bool
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
			m.shared = append(m.shared, b)
		case b.tent > 0:
			b.tent++
		case len(m.fresh) == p.count():
			failed = true // more blocks than the slot names
		default:
			crc, good := h.freshCRC(a)
			if !good {
				failed = true
				return
			}
			b.tent = 1
			m.fresh = append(m.fresh, b)
			fold += stageMix(a, crc)
		}
	}
	visit(cellAddr(p.final))
	for j := 0; j < len(m.fresh) && !failed; j++ {
		r.walk(m.fresh[j], visit)
	}
	return m, !failed && len(m.fresh) == p.count() && fold == p.digest
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
		r.walk(b, drop)
	}
}

// freshCRC returns the stored checksum of the block at payload if it is an
// allocated, checksummed node whose checksum verifies.
func (h *Heap) freshCRC(payload pmem.Addr) (uint32, bool) {
	if _, err := h.verifyNode(payload); err != nil {
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
