package alloc

import (
	"fmt"

	"github.com/mod-ds/mod/internal/pmem"
)

// Exports for the external test package (borrow_test.go), which drives
// the allocator through funcds and so cannot live in package alloc.

// TableSnapshot is tableSnapshot: payload -> reference count for every
// tracked block, retired ones (count 0) included.
func TableSnapshot(h *Heap) map[pmem.Addr]int32 { return tableSnapshot(h) }

// strike clears own if it is c and reports whether it was.
func strike(own *pmem.Addr, c pmem.Addr) bool {
	if *own != c {
		return false
	}
	*own = pmem.Nil
	return true
}

// AuditCounts recomputes every reference count from first principles and
// compares it with the table. The invariant (borrow.go): a block's count
// is the references held on it from outside the heap (held, plus one per
// root cell naming it, plus one per queued deferred release) plus one per
// occurrence in a live block's children, less one per borrow record that
// shares it — the borrower holds those references uncounted. It also
// checks that records and flag bits agree. Call it with no edit open.
func AuditCounts(h *Heap, held map[pmem.Addr]int) error {
	sh := h.sh
	got := tableSnapshot(h)
	want := make(map[pmem.Addr]int32, len(got))
	for a, n := range held {
		want[a] += int32(n)
	}
	for slot := 0; slot < RootSlots; slot++ {
		if r := h.Root(slot); r != pmem.Nil {
			want[r]++
		}
	}
	sh.ebr.mu.Lock()
	for _, d := range sh.ebr.deferred {
		want[d.addr]++
	}
	sh.ebr.mu.Unlock()
	var sc Scratch
	children := func(a pmem.Addr) (out []pmem.Addr) {
		_, tag := h.header(a)
		h.walkRefs(tag, a, &sc, func(c pmem.Addr) {
			if c != pmem.Nil {
				out = append(out, c)
			}
		})
		return out
	}
	for a, n := range got {
		if n > 0 { // a retired block's children were released with it
			for _, c := range children(a) {
				want[c]++
			}
		}
	}

	bt := &sh.borrows
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if len(bt.lent) != len(bt.srcOf) {
		return fmt.Errorf("%d records by source, %d by borrower", len(bt.lent), len(bt.srcOf))
	}
	for src, b := range bt.lent {
		if bt.srcOf[b.dst] != src {
			return fmt.Errorf("record %#x -> %#x: borrower index names %#x", uint64(src), uint64(b.dst), uint64(bt.srcOf[b.dst]))
		}
		if got[src] <= 0 || got[b.dst] <= 0 {
			return fmt.Errorf("record %#x -> %#x outlives a side (counts %d, %d)", uint64(src), uint64(b.dst), got[src], got[b.dst])
		}
		own := b.dstOnly
		for _, c := range children(b.dst) {
			if !strike(&own, c) {
				want[c]-- // shared: counted through the source
			}
		}
		if own != pmem.Nil {
			return fmt.Errorf("record %#x -> %#x: borrower does not hold its own child %#x", uint64(src), uint64(b.dst), uint64(own))
		}
		// What the source alone holds must be children of the source.
		own = b.srcOnly
		for _, c := range children(src) {
			strike(&own, c)
		}
		if own != pmem.Nil {
			return fmt.Errorf("record %#x -> %#x: source does not hold its own child %#x", uint64(src), uint64(b.dst), uint64(own))
		}
	}
	for a := range got {
		v := sh.blocks.slot(a).Load()
		_, lent := bt.lent[a]
		_, borrowing := bt.srcOf[a]
		if lent != (v&slotLent != 0) || borrowing != (v&slotBorrowing != 0) {
			return fmt.Errorf("block %#x: flags lent=%v borrowing=%v, records lent=%v borrowing=%v",
				uint64(a), v&slotLent != 0, v&slotBorrowing != 0, lent, borrowing)
		}
	}

	for a, n := range got {
		if want[a] != n {
			return fmt.Errorf("block %#x (tag %d): count %d, want %d", uint64(a), h.Tag(a), n, want[a])
		}
	}
	for a, n := range want {
		if _, ok := got[a]; !ok && n != 0 {
			return fmt.Errorf("untracked block %#x is referenced %d times", uint64(a), n)
		}
	}
	return nil
}

// WalkFresh is the reference Edit.Fresh is checked against: every block
// reachable from root that the edit owns, found by walking owned blocks'
// children through the device, each once, navigation words included. An
// owned block is reachable only through owned parents, so the walk
// descends through them alone. With durableOnly it follows no navigation
// word (RegisterNavigation), as recovery's verification of a staged
// publication does. Call before Seal, which ends ownership.
func WalkFresh(e *Edit, root pmem.Addr, durableOnly bool) []pmem.Addr {
	h := e.h
	var seen pmem.OrderedSet[pmem.Addr]
	add := func(c pmem.Addr) {
		if e.Owns(c) {
			seen.Add(c)
		}
	}
	add(root)
	for i := 0; i < seen.Len(); i++ {
		a := seen.Keys()[i]
		if tag := h.Tag(a); !durableOnly {
			h.walkRefs(tag, a, nil, add)
		} else if w := h.sh.walkers[tag]; w != nil {
			w(h, a, nil, add)
		}
	}
	return append([]pmem.Addr(nil), seen.Keys()...)
}
