package alloc

import (
	"fmt"
	"math/bits"

	"github.com/mod-ds/mod/internal/pmem"
)

// Named roots. Each persistent heap exposes a small table of named root
// pointers so applications can locate their recoverable datastructures
// across process lifetimes (§5.1: "Such root pointers allow PM
// applications to locate recoverable datastructures in persistent heaps").
// A root's address cell is the target of the 8-byte atomic pointer write
// performed by CommitSingle.
//
// Layout v11 (DESIGN.md §2, §7). The root table in the superblock keeps
// four 16-byte entries to a line:
//
//	+0   fnv1a(name)   0 = empty slot
//	+8   cell          bits 0-34 the version's payload address,
//	                   bits 35-63 the root's publication counter
//
// The counter advances with every write of the cell, so a cell word names
// one publication, never just an address: a stage slot naming the word
// its publication writes can never match the cell again once anything else
// has been published there, even a version that reuses an old address.
// The heap mirrors every cell word in DRAM, so a publication computes its
// counter without reading the cell.
//
// The stage table sits at the top of the arena, above the heap, zeroed and
// made durable by Format: one line per root holding two 32-byte stage
// slots,
//
//	+0   final   the cell word the publication writes
//	+8   group   the publication's group: a sequence number unique
//	             across the heaps sharing the counter (bits 16-63) over
//	             its member count r on all of them (bits 0-15)
//	+16  digest  the fold of the blocks the publication adds (0 without)
//	+24  meta    the folded block count (bits 48-63, 0 without a digest)
//	             over a 48-bit checksum of the root slot, the slot index,
//	             final, group, count and digest; 0 = empty
//
// A stage slot is one member of a publication of r roots written ahead of
// its commit fence (StageGroup). It replaces the root's publication just
// before it, so its old cell word is implied: the one whose counter is one
// behind final's. Recovery decides every group from its own slots and the
// cells they name (recover.go): a group one of whose swaps landed rolls
// every member forward, a group none of whose swaps landed applies only
// if all r members are found and every one re-verifies its digest. A group
// spanning heaps (a DB's shards) holds fewer than r members on each; its
// store gathers them from every heap before any recovers (PartialGroups).

const (
	cellAddrBits = 35 // a cell's address field: funcds' 4-byte references reach 2^35 bytes
	cellAddrMask = uint64(1)<<cellAddrBits - 1
	cellCtrMask  = uint64(1)<<(64-cellAddrBits) - 1

	stageSlots    = 2
	stageSlotSize = 32

	// groupSizeBits is the width of a group word's member count.
	groupSizeBits = 16

	// MaxGroupSize is the most roots one publication can stage, across
	// every heap sharing its group counter.
	MaxGroupSize = 1<<groupSizeBits - 1

	// maxStagedBlocks bounds the fresh set a stage slot can fold (its
	// meta word's count field).
	maxStagedBlocks = 1<<16 - 1

	// wrapGuard: a root that staged has its older stage slot cleared by
	// every publication whose counter is 0 or 1 modulo wrapGuard, long
	// before the counter can wrap back to a slot's old word.
	wrapGuard = 1 << 27
)

func rootEntryAddr(slot int) pmem.Addr {
	return pmem.Addr(offRoots + slot*rootEntrySize)
}

func (h *Heap) stageSlotAddr(slot, i int) pmem.Addr {
	return h.sh.end + pmem.Addr(slot*pmem.LineSize+i*stageSlotSize)
}

// cellWord packs a payload address and a publication counter.
func cellWord(v pmem.Addr, ctr uint64) uint64 {
	return uint64(v) | (ctr&cellCtrMask)<<cellAddrBits
}

func cellAddr(word uint64) pmem.Addr { return pmem.Addr(word & cellAddrMask) }

// nextCellWord is the word the publication of v after word writes.
func nextCellWord(word uint64, v pmem.Addr) uint64 {
	return cellWord(v, word>>cellAddrBits+1)
}

// ctrAhead reports how many publications cell word a is past cell word b.
// Counters are compared modulo their width, over half of which two words
// of one root are never apart; a result past half means a is behind.
func ctrAhead(a, b uint64) uint64 { return (a>>cellAddrBits - b>>cellAddrBits) & cellCtrMask }

// stageIndex is the stage slot a publication writing word uses: the
// counter's parity, so the slot it overwrites belongs to the publication
// before the previous one, whose cell write that previous publication's
// fence has made durable — unless a sibling of that publication on another
// root may still be unfenced (awaitCover).
func stageIndex(word uint64) int { return int(word >> cellAddrBits & 1) }

// follows reports whether cell word next is the publication right after
// cell word cur on one root: a stage slot's final over its implied old
// word.
func follows(next, cur uint64) bool { return ctrAhead(next, cur) == 1 }

// cellWordOf returns slot's current cell word from the heap's mirror,
// reading the cell only the first time this heap touches a root it did not
// format or recover.
func (h *Heap) cellWordOf(slot int) uint64 {
	if m := h.sh.cells[slot].Load(); m != 0 {
		return m - 1
	}
	w := h.dev.ReadU64(h.RootCellAddr(slot))
	h.noteCell(slot, w)
	return w
}

// noteCell moves slot's mirror to cell word w unless it already holds w or
// a later word, so writers that finish out of order leave the latest.
func (h *Heap) noteCell(slot int, w uint64) {
	c := &h.sh.cells[slot]
	for {
		m := c.Load()
		if m != 0 && (ctrAhead(w, m-1) == 0 || ctrAhead(w, m-1) > cellCtrMask/2) {
			return
		}
		if c.CompareAndSwap(m, w+1) {
			return
		}
	}
}

// fnv1a hashes a root name.
func fnv1a(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 { // 0 marks an empty slot
		h = 1
	}
	return h
}

// RootSlot returns the slot index for name, claiming an empty slot on
// first use. The claim is flushed without a fence: it becomes durable with
// the first commit that publishes data under it. Claims are serialized so
// concurrent binds of the same name resolve to one slot.
func (h *Heap) RootSlot(name string) (int, error) {
	h.sh.mu.Lock()
	defer h.sh.mu.Unlock()
	want := fnv1a(name)
	firstEmpty := -1
	for slot := 0; slot < RootSlots; slot++ {
		got := h.dev.ReadU64(rootEntryAddr(slot))
		if got == want {
			return slot, nil
		}
		if got == 0 && firstEmpty < 0 {
			firstEmpty = slot
		}
	}
	if firstEmpty < 0 {
		return 0, fmt.Errorf("alloc: root table full (%d slots)", RootSlots)
	}
	h.dev.WriteU64(rootEntryAddr(firstEmpty), want)
	h.dev.Clwb(rootEntryAddr(firstEmpty))
	return firstEmpty, nil
}

// HasRoot reports whether a root with this name exists (without claiming).
func (h *Heap) HasRoot(name string) bool {
	want := fnv1a(name)
	for slot := 0; slot < RootSlots; slot++ {
		if h.dev.ReadU64(rootEntryAddr(slot)) == want {
			return true
		}
	}
	return false
}

// RootCellAddr returns the PM address of the slot's pointer cell — the
// location CommitSingle overwrites with its atomic pointer write.
func (h *Heap) RootCellAddr(slot int) pmem.Addr {
	if slot < 0 || slot >= RootSlots {
		panic(fmt.Sprintf("alloc: root slot %d out of range", slot))
	}
	return rootEntryAddr(slot) + 8
}

// Root returns the payload address stored in the slot (Nil if unset).
func (h *Heap) Root(slot int) pmem.Addr {
	return cellAddr(h.dev.ReadU64(h.RootCellAddr(slot)))
}

// SetRoot atomically points the slot at payload addr v, advancing the
// root's publication counter, and flushes the cell (no fence; see
// DESIGN.md §4 on commit durability ordering). The new word is computed
// from the heap's mirror of the cell, so writers of one root's cell must
// be serialized by the caller (package core holds the root's commit
// mutex, CasRoot included).
func (h *Heap) SetRoot(slot int, v pmem.Addr) {
	h.SetRoots([]StagedRoot{{Slot: slot, Final: v}})
}

// The root table ends inside the heap's first 64 lines, so a bitmask of
// line indices names every line it spans.
var _ [64*pmem.LineSize - (offRoots + RootSlots*rootEntrySize)]struct{}

// SetRoots is SetRoot for every root of one publication, each pointed at
// its Final: it writes every cell, then flushes each root-table line it
// wrote once — four roots' cells share a line — so a publication pays one
// flush per line it touches, not one per root.
func (h *Heap) SetRoots(ms []StagedRoot) {
	var lines uint64 // the root-table lines written, by line index
	for _, m := range ms {
		cell := h.RootCellAddr(m.Slot)
		h.dev.WriteU64(cell, nextCellWord(h.cellWordOf(m.Slot), m.Final))
		lines |= 1 << (cell >> pmem.LineShift)
	}
	for ; lines != 0; lines &= lines - 1 {
		h.dev.Clwb(pmem.Addr(bits.TrailingZeros64(lines)) << pmem.LineShift)
	}
	for _, m := range ms {
		h.published(m.Slot, nextCellWord(h.cellWordOf(m.Slot), m.Final))
	}
}

// CasRoot atomically points the slot at v only if it still holds old,
// flushing the cell on success. This is the optimistic commit path's
// publication step: the compare and the 8-byte pointer store are one
// indivisible device operation, so a writer that lost the race observes
// failure without having disturbed the committed root. The compare is
// against the whole cell word the heap last published there; a CAS racing
// an unserialized writer can fail spuriously, never succeed wrongly.
func (h *Heap) CasRoot(slot int, old, v pmem.Addr) bool {
	cur := h.cellWordOf(slot)
	if cellAddr(cur) != old {
		return false
	}
	next := nextCellWord(cur, v)
	cell := h.RootCellAddr(slot)
	if !h.dev.CasAddr(cell, pmem.Addr(cur), pmem.Addr(next)) {
		return false
	}
	h.dev.Clwb(cell)
	h.published(slot, next)
	return true
}

// published records cell word w as slot's latest, and on a root that has
// staged clears, once every wrapGuard publications, the stage slot of the
// parity w does not use: its publication is at least one back, so the
// fence ahead of w's write has made its cell durable.
func (h *Heap) published(slot int, w uint64) {
	h.noteCell(slot, w)
	if ctr := w >> cellAddrBits; ctr >= 2 && ctr%wrapGuard < 2 && h.sh.staged.Load()&(1<<slot) != 0 {
		i := 1 - stageIndex(w)
		h.awaitCover(slot, i)
		at := h.stageSlotAddr(slot, i) + 24
		h.dev.WriteU64(at, 0)
		h.dev.Clwb(at)
	}
}

// swapLanded reports whether the write of cell word w (a stage slot's
// final) to slot's cell has reached the cell: the cell holds w, or a later
// publication, whose counter has passed w's.
func (h *Heap) swapLanded(slot int, w uint64) bool {
	return ctrAhead(h.dev.ReadU64(h.RootCellAddr(slot)), w) < cellCtrMask/2
}

// ReplaySwap is a recovery's roll-forward of one member of a group
// spanning heaps (PartialGroups): unless it has landed, it writes cell
// word w to slot's cell and flushes it. It reports whether it wrote.
func (h *Heap) ReplaySwap(slot int, w uint64) bool {
	if h.swapLanded(slot, w) {
		return false
	}
	cell := h.RootCellAddr(slot)
	h.dev.WriteU64(cell, w)
	h.dev.Clwb(cell)
	h.noteCell(slot, w)
	return true
}

// StagedRoot is one member of a staged publication: a root slot, the
// version its next publication installs, and the durable blocks that
// version adds to the heap (Edit.Fresh, sealed since) — nil where the
// publisher does not hold them.
type StagedRoot struct {
	Slot  int
	Final pmem.Addr
	Fresh []pmem.Addr
}

// NewGroup returns the group word of a new publication of r roots: the
// next sequence number of the counter this heap shares (ShareGroups) over
// r, at most MaxGroupSize.
func (h *Heap) NewGroup(r int) uint64 {
	return h.sh.groups.Add(1)<<groupSizeBits | uint64(r)
}

// StageGroup stages a publication ahead of the commit fence that will make
// it durable (DESIGN.md §7): one stage slot per member of ms, in the
// root's stage line, flushed. Every slot carries the group word g — with
// g 0, a new group of len(ms) roots, all on this heap; otherwise a word
// from NewGroup, whose other members other heaps sharing the counter
// stage — and a member whose fresh blocks all carry checksums also
// carries their digest: an order-independent fold of their addresses and
// stored checksums, which recovery recomputes from the blocks it finds.
// The caller then fences and publishes the Finals with SetRoots, whose
// write must be each root's next cell write, and reports the writes with
// GroupSwapped.
//
// It reports whether every member carries a digest: only then can
// recovery apply the group when none of its swaps landed, so only then
// does the caller's fence alone make the publication durable. A group of
// its own of one root without a digest is not staged at all — it could
// never apply, and its swap is atomic on its own.
func (h *Heap) StageGroup(ms []StagedRoot, g uint64) (digested bool) {
	digested = true
	for _, m := range ms {
		fold, ok := h.digest(m.Fresh)
		count := len(m.Fresh)
		if !ok {
			if g == 0 && len(ms) == 1 {
				return false
			}
			fold, count, digested = 0, 0, false
		}
		if g == 0 {
			g = h.NewGroup(len(ms))
		}
		final := nextCellWord(h.cellWordOf(m.Slot), m.Final)
		i := stageIndex(final)
		h.awaitCover(m.Slot, i)
		at := h.stageSlotAddr(m.Slot, i)
		h.dev.WriteU64(at, final)
		h.dev.WriteU64(at+8, g)
		h.dev.WriteU64(at+16, fold)
		h.dev.WriteU64(at+24, stageMeta(m.Slot, i, final, g, count, fold))
		h.dev.Clwb(at)
		h.sh.staged.Or(1 << m.Slot)
	}
	return digested
}

// digest folds a publication's fresh blocks, or reports false when they
// cannot validate it: an empty or oversized set, or a block without a
// checksum.
func (h *Heap) digest(fresh []pmem.Addr) (uint64, bool) {
	if len(fresh) == 0 || len(fresh) > maxStagedBlocks {
		return 0, false
	}
	var fold uint64
	for _, a := range fresh {
		_, crc, has := unpackCheck(h.dev.ReadU64(a - headerSize + 8))
		if !has {
			return 0, false
		}
		fold += stageMix(a, crc)
	}
	return fold, true
}

// GroupSwapped reports that the cell writes of the multi-root publication
// StageGroup staged on ms are all issued. Until a fence covers them, no
// member's stage slot may be overwritten (awaitCover): an optimistic CAS
// fences before it takes its root's mutex, so it can publish on one
// member's root behind a fence that came before the other members' writes,
// and the member slots are then recovery's only record that those writes
// belong with the landed one. The caller still holds every member's root.
func (h *Heap) GroupSwapped(ms []StagedRoot) {
	if len(ms) < 2 {
		return
	}
	tag := h.dev.FenceSeq()
	for _, m := range ms {
		h.sh.holds[m.Slot][stageIndex(h.cellWordOf(m.Slot))].Store(tag)
	}
}

// awaitCover fences before stage slot i of slot is overwritten while it
// holds a member of a multi-root publication some of whose cell writes no
// fence has covered yet (GroupSwapped). The caller holds the root.
func (h *Heap) awaitCover(slot, i int) {
	if tag := h.sh.holds[slot][i].Load(); tag != 0 && h.dev.FenceSeq() <= tag {
		h.dev.Sfence()
	}
}

// StageSlotAddr returns the address of stage slot i (0 or 1) of a root:
// four words — final cell word, group, digest, meta. Fault-injection
// harnesses use it to aim damage at staged publications.
func (h *Heap) StageSlotAddr(slot, i int) pmem.Addr {
	h.RootCellAddr(slot) // range check
	return h.stageSlotAddr(slot, i)
}

// stagedPub is one stage slot as read back.
type stagedPub struct {
	slot, i int
	final   uint64 // the cell word its publication writes
	group   uint64
	digest  uint64
	meta    uint64 // 0: empty or consumed
}

// readStage reads stage slot i of slot, its other words only if its meta
// word says it holds a publication.
func (h *Heap) readStage(slot, i int) stagedPub {
	at := h.stageSlotAddr(slot, i)
	p := stagedPub{slot: slot, i: i, meta: h.dev.ReadU64(at + 24)}
	if p.meta != 0 {
		p.final, p.group, p.digest = h.dev.ReadU64(at), h.dev.ReadU64(at+8), h.dev.ReadU64(at+16)
	}
	return p
}

// count is the fresh-block count the slot's digest folds; 0: no digest.
func (p stagedPub) count() int { return int(p.meta >> 48) }

// size is the member count of the slot's group.
func (p stagedPub) size() int { return int(p.group & (1<<groupSizeBits - 1)) }

// intact reports whether the slot's words are exactly what one StageGroup
// wrote.
func (p stagedPub) intact() bool {
	return p.meta != 0 && p.meta == stageMeta(p.slot, p.i, p.final, p.group, p.count(), p.digest)
}

// stageMix hashes one fresh block — its address and stored checksum — for
// the order-independent fold (a sum) a stage slot's digest is.
func stageMix(a pmem.Addr, crc uint32) uint64 {
	x := uint64(a)>>3 | uint64(crc)<<32
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// stageMeta is a stage slot's fourth word: the digest's block count (16
// bits) over a 48-bit checksum binding the root slot, the stage slot
// index, the final cell word, the group word, the count and the digest.
// It is never 0, which marks an empty slot.
func stageMeta(slot, i int, final, group uint64, count int, digest uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range [...]uint64{uint64(slot)<<1 | uint64(i), final, group, uint64(count), digest} {
		for b := 0; b < 8; b++ {
			h ^= w >> (8 * b) & 0xff
			h *= 1099511628211
		}
	}
	if h&(1<<48-1) == 0 {
		h = 1
	}
	return uint64(count)<<48 | h&(1<<48-1)
}
