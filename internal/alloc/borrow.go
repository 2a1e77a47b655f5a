package alloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/pmem"
)

// Borrowed path copies (DESIGN.md §4). A path copy N′ of a trie node N
// differs from it in a slot or two and shares up to 31 other children.
// Children are what the node's walker visits, so a vector root's tail
// is one more: a root copy that replaces the tail borrows every child.
// Counting N′ as a second parent of each — and uncounting N when the old
// version dies a few commits later — is +1 then −1 on blocks the update
// never touched. Instead the copy borrows: N′ takes no reference on what
// it shares with N, and one record here says so. The invariant becomes
//
//	count(X) = roots naming X + live parents of X that own their reference
//
// where a parent owns every reference it holds except, while it is the
// borrower of a record, the ones it shares with that record's source.
//
// A record is consulted when one of its two blocks dies — its count
// reaches zero inside a cascade, the one moment no builder can still be
// taking references out of it (ReleaseDeferred, epoch.go):
//
//	(a) the source dies first: only the children it alone held are
//	    released; the borrower now owns the shared ones. The dead node is
//	    neither walked nor read. Versions die in publication order, so
//	    this is the steady state, chains of copies included.
//	(b) the borrower dies first (a lost CAS, a released intermediate):
//	    only the children it alone held are released.
//	(c) anything that needs the borrower to own what it shares settles
//	    the record first: the borrower takes a counted reference on every
//	    shared child — what every copy used to do — and the record is
//	    gone. A second copy of a source already lent, a block dying while
//	    both borrower and source (out-of-order death), an in-place write
//	    to an edit-owned borrower, and a DisableReclaim handle settle.
//
// Two flag bits in each block's table cell (table.go) mirror the records,
// so a block that is in none costs no lookup. Flags and records change
// together under mu. A block is the source of at most one record and the
// borrower of at most one, and a record lives only while both its blocks
// do, so the table holds at most one record per live block that a live
// copy superseded: the versions still awaiting reclamation, plus whatever
// old versions the application keeps.
type borrow struct {
	dst pmem.Addr // the borrower; the source is the record's key
	// The child only one side holds, or Nil: what the source alone
	// releases in (a), the borrower alone in (b). A path copy changes one
	// reference, so each side holds at most one the other does not.
	srcOnly, dstOnly pmem.Addr
}

type borrowTable struct {
	mu    sync.Mutex
	lent  map[pmem.Addr]borrow    // by source
	srcOf map[pmem.Addr]pmem.Addr // borrower -> source

	settled atomic.Uint64 // copies that took rule (c), for Stats
}

const slotBorrowFlags = slotLent | slotBorrowing

func (bt *borrowTable) reset() {
	bt.mu.Lock()
	bt.lent = make(map[pmem.Addr]borrow)
	bt.srcOf = make(map[pmem.Addr]pmem.Addr)
	bt.mu.Unlock()
}

// Borrow records that dst — a node just built, not yet visible to anyone
// else — is a copy of src that holds src's children except srcOnly and
// additionally holds dstOnly (either Nil when the copy drops or gains
// none). The caller has taken no reference on the shared children and
// transfers its reference on dstOnly into dst, as for any new node. If src is already
// lent, or the handle retains every version, dst is settled on the spot.
func (h *Heap) Borrow(src, dst, srcOnly, dstOnly pmem.Addr) {
	sh := h.sh
	ss := sh.blocks.tracked(src)
	if ss == nil {
		panic(nonBlockRef(src))
	}
	if !h.DisableReclaim {
		bt := &sh.borrows
		bt.mu.Lock()
		if ss.Load()&slotLent == 0 {
			bt.lent[src] = borrow{dst: dst, srcOnly: srcOnly, dstOnly: dstOnly}
			bt.srcOf[dst] = src
			ss.Or(slotLent)
			sh.blocks.slot(dst).Or(slotBorrowing)
			bt.mu.Unlock()
			return
		}
		bt.mu.Unlock()
	}
	c := h.takeCascade()
	c.retainShared(dst, dstOnly)
	h.putCascade(c)
}

// Settle makes node the counted owner of every reference it holds: if it
// still borrows from the node it was copied from, that record is settled.
// Call it before writing a reference slot of an edit-owned node in place —
// the record describes the node as it was built, and the reference the
// write displaces may be a shared one. Nothing copies an edit-owned node
// and then writes it (a rebuilt node is released by the same operation),
// so node is never a source here.
func (h *Heap) Settle(node pmem.Addr) {
	s := h.sh.blocks.slot(node)
	// Unlocked: only node's owner, the caller, sets its flags (Borrow); the
	// death of the other side of a record can only clear them.
	if s == nil || s.Load()&slotBorrowFlags == 0 {
		return
	}
	bt := &h.sh.borrows
	c := h.takeCascade()
	bt.mu.Lock()
	v := s.Load()
	if v&slotLent != 0 {
		bt.mu.Unlock()
		panic(fmt.Sprintf("alloc: in-place write to block %#x, which has been copied", uint64(node)))
	}
	if v&slotBorrowing != 0 {
		bt.settleLocked(c, bt.srcOf[node])
	}
	bt.mu.Unlock()
	h.putCascade(c)
}

// settleLocked is rule (c) for the record src lends under. It runs under
// mu so that a racing death of the borrower finds either the record or
// the references that replace it, never neither.
func (bt *borrowTable) settleLocked(c *cascade, src pmem.Addr) {
	b := bt.lent[src]
	c.retainShared(b.dst, b.dstOnly)
	bt.dissolveLocked(c.h, src, b.dst)
}

func (bt *borrowTable) dissolveLocked(h *Heap, src, dst pmem.Addr) {
	delete(bt.lent, src)
	delete(bt.srcOf, dst)
	h.sh.blocks.slot(src).And(^slotLent)
	h.sh.blocks.slot(dst).And(^slotBorrowing)
}

// retainShared takes a reference on every child of dst except dstOnly:
// the eager retains of a copy that does not borrow. The node is read
// through its walker; dst may be an edit-owned node that is about to be
// written in place, so the image the read may have left in the node cache
// is dropped again.
func (c *cascade) retainShared(dst, dstOnly pmem.Addr) {
	h := c.h
	h.sh.borrows.settled.Add(1)
	_, tag := h.header(dst)
	c.own = dstOnly
	h.walkRefs(tag, dst, &c.sc, c.keep)
	h.invalidateCached(dst)
}

// releaseOwn applies rules (a)–(c) to the dead block a, whose cell s
// carried a borrow flag: it releases the children a alone held and
// reports true, or reports false if the records dissolved meanwhile and a
// must be walked like any other block.
func (c *cascade) releaseOwn(a pmem.Addr, s *atomic.Int32) bool {
	h := c.h
	bt := &h.sh.borrows
	bt.mu.Lock()
	v := s.Load()
	var own pmem.Addr
	switch {
	case v&slotBorrowFlags == 0:
		bt.mu.Unlock()
		return false
	case v&slotBorrowing != 0:
		if v&slotLent != 0 {
			bt.settleLocked(c, a) // out of order: a's own borrower outlives it
		}
		src := bt.srcOf[a]
		own = bt.lent[src].dstOnly
		bt.dissolveLocked(h, src, a)
	default:
		b := bt.lent[a]
		own = b.srcOnly
		bt.dissolveLocked(h, a, b.dst)
	}
	bt.mu.Unlock()
	c.drop(own)
	return true
}
