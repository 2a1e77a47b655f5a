package alloc

import (
	"fmt"

	"github.com/mod-ds/mod/internal/pmem"
)

// Named roots. Each persistent heap exposes a small table of named root
// pointers so applications can locate their recoverable datastructures
// across process lifetimes (§5.1: "Such root pointers allow PM
// applications to locate recoverable datastructures in persistent heaps").
// A root's address cell is the target of the 8-byte atomic pointer write
// performed by CommitSingle.
//
// Layout v9 (DESIGN.md §2, §7). The root table in the superblock keeps
// four 16-byte entries to a line:
//
//	+0   fnv1a(name)   0 = empty slot
//	+8   cell          bits 0-34 the version's payload address,
//	                   bits 35-63 the root's publication counter
//
// The counter advances with every write of the cell, so a cell word names
// one publication, never just an address: a stage slot bound to the word
// it replaces can never match the cell again once anything else has been
// published there, even a version that reuses the old address. The heap
// mirrors every cell word in DRAM, so a publication computes its counter
// without reading the cell.
//
// The stage table sits at the top of the arena, above the heap: one line
// per root holding two stage slots of {final cell word, old cell word,
// meta}. A stage slot is a one-root publication written ahead of its
// commit fence (StageRoot); recovery applies it when its old word is still
// the durable cell and the blocks it adds re-verify (recover.go). Bit 63
// of the superblock's version word says the table may hold slots: it is
// durable before a heap's first stage slot is written, so recovering a
// heap that never staged reads nothing of the table.

const (
	cellAddrBits = 35 // a cell's address field: funcds' 4-byte references reach 2^35 bytes
	cellAddrMask = uint64(1)<<cellAddrBits - 1
	cellCtrMask  = uint64(1)<<(64-cellAddrBits) - 1

	stageSlots    = 2
	stageSlotSize = 24

	// stageLive is the version word's flag: the stage table may hold slots.
	stageLive = uint64(1) << 63

	// maxStagedBlocks bounds the fresh set a stage slot can name (its
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
// fence has made durable.
func stageIndex(word uint64) int { return int(word >> cellAddrBits & 1) }

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

// RootSlotOfCell returns the root slot whose cell is at addr, for
// recovery code replaying a record that names cells by address.
func RootSlotOfCell(addr pmem.Addr) (int, bool) {
	off := int64(addr) - int64(rootEntryAddr(0)) - 8
	if off < 0 || off%rootEntrySize != 0 || off/rootEntrySize >= RootSlots {
		return 0, false
	}
	return int(off / rootEntrySize), true
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
	w := nextCellWord(h.cellWordOf(slot), v)
	cell := h.RootCellAddr(slot)
	h.dev.WriteU64(cell, w)
	h.dev.Clwb(cell)
	h.published(slot, w)
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
// parity w does not use: its publication is at least two back, so the
// fence ahead of w's write has made its cell durable.
func (h *Heap) published(slot int, w uint64) {
	h.noteCell(slot, w)
	if ctr := w >> cellAddrBits; ctr >= 2 && ctr%wrapGuard < 2 && h.sh.staged.Load()&(1<<slot) != 0 {
		at := h.stageSlotAddr(slot, 1-stageIndex(w)) + 16
		h.dev.WriteU64(at, 0)
		h.dev.Clwb(at)
	}
}

// NextCellWord returns the cell word the next write of slot's cell will
// store for version v: v under the root's next publication counter. A
// multi-root record names its swaps by it, so recovery can tell a swap
// that never landed from one a later publication has overwritten
// (SwapLanded). The caller must hold off every other writer of the cell
// until that write, as for SetRoot.
func (h *Heap) NextCellWord(slot int, v pmem.Addr) uint64 {
	return nextCellWord(h.cellWordOf(slot), v)
}

// SwapLanded reports whether the write of cell word w (a NextCellWord
// value) to slot's cell has reached the cell: the cell holds w, or a later
// publication, whose counter has passed w's.
func (h *Heap) SwapLanded(slot int, w uint64) bool {
	return ctrAhead(h.dev.ReadU64(h.RootCellAddr(slot)), w) < cellCtrMask/2
}

// ReplaySwap is a recovery replay's roll-forward of one swap: unless it
// has landed, it writes cell word w to slot's cell and flushes it. It
// reports whether it wrote.
func (h *Heap) ReplaySwap(slot int, w uint64) bool {
	if h.SwapLanded(slot, w) {
		return false
	}
	cell := h.RootCellAddr(slot)
	h.dev.WriteU64(cell, w)
	h.dev.Clwb(cell)
	h.noteCell(slot, w)
	return true
}

// StageRoot stages the next publication of slot — final replacing old, the
// root's current version — ahead of the commit fence that will make it
// durable, so that fence alone acknowledges it (DESIGN.md §7). fresh lists
// the blocks final adds to the heap (Edit.Fresh), sealed: the slot binds
// their addresses and stored checksums, as an order-independent fold, to
// the cell words it names, and recovery applies it only if the same blocks
// re-verify and fold to the same value. It writes 24 bytes in the root's
// stage line and flushes it; the caller then fences and publishes final
// with SetRoot, which must be this root's next cell write. It stages
// nothing and returns false when the publication cannot be validated that
// way — a fresh block without a checksum (a volatile navigation node, a
// legacy allocation), an empty or oversized fresh set, an address past the
// cell's reach — and while the heap's stage-live flag is not yet durable.
func (h *Heap) StageRoot(slot int, old, final pmem.Addr, fresh []pmem.Addr) bool {
	cur := h.cellWordOf(slot)
	if len(fresh) == 0 || len(fresh) > maxStagedBlocks || uint64(final) > cellAddrMask || cellAddr(cur) != old || !h.StageReady() {
		return false
	}
	var fold uint64
	for _, a := range fresh {
		_, crc, has := unpackCheck(h.dev.ReadU64(a - headerSize + 8))
		if !has {
			return false
		}
		fold += stageMix(a, crc)
	}
	next := nextCellWord(cur, final)
	i := stageIndex(next)
	at := h.stageSlotAddr(slot, i)
	h.dev.WriteU64(at, next)
	h.dev.WriteU64(at+8, cur)
	h.dev.WriteU64(at+16, stageMeta(slot, i, next, cur, len(fresh), fold))
	h.dev.Clwb(at)
	h.sh.staged.Or(1 << slot)
	return true
}

// StageReady reports whether the heap may write stage slots: the version
// word's stage-live flag is durable. On a heap that has never staged, the
// first call sets the flag and reports false; a fence after it makes the
// flag durable and the calls after that fence report true. So a stage slot
// can only reach PM on a heap whose recovery will read the table. Before
// it writes the flag, the first call zeroes the table and fences: an
// arena formatted over an older heap must not show that heap's slots to a
// recovery that reads the flag.
func (h *Heap) StageReady() bool {
	sh := h.sh
	if sh.stageReady.Load() {
		return true
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	switch {
	case sh.stageArmTag == 0:
		h.dev.Zero(sh.end, stageTableSize)
		h.dev.FlushRange(sh.end, stageTableSize)
		h.dev.Sfence()
		h.dev.WriteU64(offVersion, version|stageLive)
		h.dev.Clwb(offVersion)
		sh.stageArmTag = h.dev.FenceSeq() + 1
	case h.dev.FenceSeq() >= sh.stageArmTag:
		sh.stageReady.Store(true)
	}
	return sh.stageReady.Load()
}

// StageSlotAddr returns the address of stage slot i (0 or 1) of a root:
// three words — the final cell word, the old cell word, the meta word.
// Fault-injection harnesses use it to aim damage at staged publications.
func (h *Heap) StageSlotAddr(slot, i int) pmem.Addr {
	h.RootCellAddr(slot) // range check
	return h.stageSlotAddr(slot, i)
}

// stagedPub is one stage slot as read back.
type stagedPub struct {
	final, old uint64 // cell words
	meta       uint64 // 0: empty or consumed
}

// readStage reads stage slot i of slot, its cell words only if its meta
// word says it holds a publication.
func (h *Heap) readStage(slot, i int) stagedPub {
	at := h.stageSlotAddr(slot, i)
	p := stagedPub{meta: h.dev.ReadU64(at + 16)}
	if p.meta != 0 {
		p.final, p.old = h.dev.ReadU64(at), h.dev.ReadU64(at+8)
	}
	return p
}

// count is the fresh-block count the slot claims.
func (p stagedPub) count() int { return int(p.meta >> 48) }

// binds reports whether fold and the slot's fields are exactly what one
// StageRoot of slot i wrote.
func (p stagedPub) binds(slot, i int, fold uint64) bool {
	return p.meta != 0 && p.meta == stageMeta(slot, i, p.final, p.old, p.count(), fold)
}

// stageMix hashes one fresh block — its address and stored checksum — for
// the order-independent fold (a sum) a stage slot binds.
func stageMix(a pmem.Addr, crc uint32) uint64 {
	x := uint64(a)>>3 | uint64(crc)<<32
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// stageMeta is a stage slot's third word: the fresh-block count (16 bits)
// over a 48-bit checksum binding the root slot, the stage slot index, both
// cell words, the count and the fold. It is never 0, which marks an empty
// slot.
func stageMeta(slot, i int, final, old uint64, count int, fold uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range [...]uint64{uint64(slot)<<1 | uint64(i), final, old, uint64(count), fold} {
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
