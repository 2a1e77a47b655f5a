package alloc

import (
	"sync/atomic"

	"github.com/mod-ds/mod/internal/pmem"
)

// Block table (DESIGN.md §2). All volatile per-block state lives in one
// direct-indexed table: payload addresses are 8-byte aligned, so slot
// (payload-heapBase)>>3 names a block by arithmetic alone. Slots sit in
// fixed-size pages installed lazily by CAS under a directory sized from
// the device: 4 bytes per 8 bytes of heap actually touched, and nothing
// for the untouched remainder of a large arena.
//
// A slot is 0 while no block starts at its address. A tracked block holds
// its reference count plus one in the low 27 bits — so "tracked, count 0"
// (retired, awaiting reclamation) stays distinct from "untracked" — and
// four flags above them: slotTaint marks a recovered block that lazy
// verification has yet to check (verify.go); slotLent and slotBorrowing
// mark the source and the copy of a borrowed path copy (borrow.go), so a
// block that takes part in none never looks the borrow table up;
// slotVolatile marks a navigation node whose payload is not yet durable
// (AllocVolatile), which the next checkpoint fold seals (SealNode). While
// Recover runs, slots hold block-list indices.
const (
	pageShift = 13 // 8192 slots: a 32 KiB page covers 64 KiB of heap
	pageSlots = 1 << pageShift

	slotTaint     = int32(1) << 30
	slotLent      = int32(1) << 29
	slotBorrowing = int32(1) << 28
	slotVolatile  = int32(1) << 27
	slotCount     = slotVolatile - 1 // reference count + 1; 0 = untracked
	slotFresh     = 2                // a new block: tracked, reference count 1
)

type tablePage [pageSlots]atomic.Int32

// blockTable is the page directory.
type blockTable []atomic.Pointer[tablePage]

func newBlockTable(end pmem.Addr) blockTable {
	return make(blockTable, (uint64(end)-heapBase+pageSlots<<3-1)>>(pageShift+3))
}

// slot returns the table entry for payload, or nil when the address is outside the
// heap, misaligned, or on a page no block was ever registered in — all
// of which read as untracked.
func (t blockTable) slot(payload pmem.Addr) *atomic.Int32 {
	off := uint64(payload) - heapBase // below heapBase wraps past every page
	if pi := off >> (pageShift + 3); pi < uint64(len(t)) && off&7 == 0 {
		if p := t[pi].Load(); p != nil {
			return &p[off>>3&(pageSlots-1)]
		}
	}
	return nil
}

// install returns the slot of a block payload inside the heap, installing
// its page first if this is the page's first block.
func (t blockTable) install(payload pmem.Addr) *atomic.Int32 {
	off := uint64(payload) - heapBase
	dir := &t[off>>(pageShift+3)]
	p := dir.Load()
	if p == nil {
		p = new(tablePage)
		if !dir.CompareAndSwap(nil, p) {
			p = dir.Load()
		}
	}
	return &p[off>>3&(pageSlots-1)]
}

// tracked returns payload's slot if a block is registered there, else nil.
func (t blockTable) tracked(payload pmem.Addr) *atomic.Int32 {
	if s := t.slot(payload); s != nil && s.Load()&slotCount != 0 {
		return s
	}
	return nil
}
