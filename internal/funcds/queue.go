package funcds

import (
	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Queue is a purely functional FIFO queue of 8-byte elements, implemented
// as the classic two-list (banker's) queue: elements are enqueued onto a
// rear cons list and dequeued from a front cons list; when the front list
// is exhausted, the rear list is reversed into a fresh front list. The
// reversal is why "pop operations in the MOD queue occasionally require a
// reversal of one of the internal linked lists resulting in greater
// flushing activity" (§6.4).
//
// Layout:
//
//	header (TagQueueHdr): [front u64][rear u64][frontLen u64][rearLen u64]
//	nodes reuse TagListNode from the stack.
type Queue struct {
	h    *alloc.Heap
	addr pmem.Addr
	ed   *alloc.Edit
	sel  bool // selective persistence: volatile cons cells, record chain (record.go)
}

const queueHdrSize = 32

// NewQueue allocates an empty durable queue (flushed, not fenced).
func NewQueue(h *alloc.Heap) Queue {
	a := h.AllocNode(queueHdrSize, TagQueueHdr)
	h.Device().Zero(a, queueHdrSize)
	h.SealNode(a, queueHdrSize)
	return Queue{h: h, addr: a}
}

// NewQueueSelective allocates an empty selectively persisted queue: cons
// cells stay volatile-clean, every update appends a durable record cell,
// and the checkpoint clone starts as an empty normal queue.
func NewQueueSelective(h *alloc.Heap) Queue {
	ckpt := NewQueue(h).Addr()
	a := h.AllocNode(queueHdrSize+selExtSize, TagQueueHdrSel)
	h.Device().Zero(a, queueHdrSize)
	writeSelExt(h, a, queueHdrSize, ckpt, pmem.Nil, 0)
	h.SealNode(a, queueHdrSize+selExtSize)
	return Queue{h: h, addr: a, sel: true}
}

// QueueAt adopts an existing queue header, e.g. after recovery. The
// selective variant is recognized by its tag.
func QueueAt(h *alloc.Heap, addr pmem.Addr) Queue {
	return Queue{h: h, addr: addr, sel: h.Tag(addr) == TagQueueHdrSel}
}

// WithEdit binds the version to a per-FASE edit context (DESIGN.md §8).
func (q Queue) WithEdit(ed *alloc.Edit) Queue {
	return Queue{h: q.h, addr: q.addr, ed: ed, sel: q.sel}
}

// Addr returns the header address of this version.
func (q Queue) Addr() pmem.Addr { return q.addr }

// Heap returns the owning heap.
func (q Queue) Heap() *alloc.Heap { return q.h }

func (q Queue) fields() (front, rear pmem.Addr, flen, rlen uint64) {
	dev := q.h.Device()
	return pmem.Addr(dev.ReadU64(q.addr)), pmem.Addr(dev.ReadU64(q.addr + 8)),
		dev.ReadU64(q.addr + 16), dev.ReadU64(q.addr + 24)
}

// Len returns the number of elements.
func (q Queue) Len() uint64 {
	_, _, flen, rlen := q.fields()
	return flen + rlen
}

func newQueueHdr(h *alloc.Heap, ed *alloc.Edit, front, rear pmem.Addr, flen, rlen uint64) pmem.Addr {
	a := nodeAlloc(h, ed, queueHdrSize, TagQueueHdr, false)
	dev := h.Device()
	dev.WriteU64(a, uint64(front))
	dev.WriteU64(a+8, uint64(rear))
	dev.WriteU64(a+16, flen)
	dev.WriteU64(a+24, rlen)
	flushNode(h, ed, a, queueHdrSize, false)
	return a
}

// hdrInPlace rewrites an edit-owned queue header, releasing the header's
// references to the displaced old front/rear list heads. Selective queues
// additionally install rec at the head of the record chain.
func (q Queue) hdrInPlace(front, rear pmem.Addr, flen, rlen uint64, rec pmem.Addr, release ...pmem.Addr) Queue {
	dev := q.h.Device()
	dev.WriteU64(q.addr, uint64(front))
	dev.WriteU64(q.addr+8, uint64(rear))
	dev.WriteU64(q.addr+16, flen)
	dev.WriteU64(q.addr+24, rlen)
	size := queueHdrSize
	if q.sel {
		ckpt, oldRec, recCount := readSelExt(q.h, q.addr, queueHdrSize)
		writeSelExt(q.h, q.addr, queueHdrSize, ckpt, rec, recCount+1)
		size += selExtSize
		if oldRec != pmem.Nil {
			q.h.Release(oldRec)
		}
	}
	recordEdit(q.ed, q.addr, size, false)
	for _, r := range release {
		q.h.Release(r)
	}
	return q
}

// hdrFresh produces a new queue header (normal or selective per the
// receiver); changed-child references transfer in, unchanged ones must
// have been retained by the caller.
func (q Queue) hdrFresh(front, rear pmem.Addr, flen, rlen uint64, rec pmem.Addr) Queue {
	if q.sel {
		ckpt, _, recCount := readSelExt(q.h, q.addr, queueHdrSize)
		hdr := nodeAlloc(q.h, q.ed, queueHdrSize+selExtSize, TagQueueHdrSel, false)
		dev := q.h.Device()
		dev.WriteU64(hdr, uint64(front))
		dev.WriteU64(hdr+8, uint64(rear))
		dev.WriteU64(hdr+16, flen)
		dev.WriteU64(hdr+24, rlen)
		writeSelExt(q.h, hdr, queueHdrSize, ckpt, rec, recCount+1)
		flushNode(q.h, q.ed, hdr, queueHdrSize+selExtSize, false)
		q.h.Retain(ckpt)
		return Queue{h: q.h, addr: hdr, ed: q.ed, sel: true}
	}
	hdr := newQueueHdr(q.h, q.ed, front, rear, flen, rlen)
	return Queue{h: q.h, addr: hdr, ed: q.ed}
}

// Push returns a new version with val appended at the tail.
func (q Queue) Push(val uint64) Queue {
	front, rear, flen, rlen := q.fields()
	rec := pmem.Nil
	if q.sel {
		_, oldRec, _ := readSelExt(q.h, q.addr, queueHdrSize)
		rec = newRecord(q.h, q.ed, oldRec, RecQueuePush, val, 0)
	}
	node := newListNode(q.h, q.ed, q.sel, rear, val) // retains old rear
	if q.ed.Owns(q.addr) {
		// The header's reference to the old rear moved into the node.
		return q.hdrInPlace(front, node, flen, rlen+1, rec, rear)
	}
	q.h.Retain(front)
	return q.hdrFresh(front, node, flen, rlen+1, rec)
}

// Pop returns a new version without the head element, the element, and
// whether the queue was non-empty.
func (q Queue) Pop() (Queue, uint64, bool) {
	front, rear, flen, rlen := q.fields()
	dev := q.h.Device()
	if flen == 0 && rlen == 0 {
		return q, 0, false
	}
	rec := pmem.Nil
	if q.sel {
		_, oldRec, _ := readSelExt(q.h, q.addr, queueHdrSize)
		rec = newRecord(q.h, q.ed, oldRec, RecQueuePop, 0, 0)
	}
	if flen > 0 {
		next := pmem.Addr(dev.ReadU64(front))
		val := dev.ReadU64(front + 8)
		q.h.Retain(next)
		if q.ed.Owns(q.addr) {
			return q.hdrInPlace(next, rear, flen-1, rlen, rec, front), val, true
		}
		q.h.Retain(rear)
		return q.hdrFresh(next, rear, flen-1, rlen, rec), val, true
	}
	// Front exhausted: reverse the rear list into a new front list,
	// excluding the oldest node, whose value is the pop result. The new
	// nodes are fresh allocations; nothing of the old version is reused.
	var newFront pmem.Addr
	cur := rear
	for {
		next := pmem.Addr(dev.ReadU64(cur))
		if next == pmem.Nil {
			break // cur is the oldest element
		}
		newFront = newListNode(q.h, q.ed, q.sel, newFront, dev.ReadU64(cur+8))
		// newListNode retained newFront; drop the extra reference so the
		// chain is singly owned by its successor.
		if prev := pmem.Addr(dev.ReadU64(newFront)); prev != pmem.Nil {
			q.h.Release(prev)
		}
		cur = next
	}
	val := dev.ReadU64(cur + 8)
	if q.ed.Owns(q.addr) {
		// The new front transfers in; the header's reference to the old
		// rear chain drops (its values live on in the new front).
		return q.hdrInPlace(newFront, pmem.Nil, rlen-1, 0, rec, rear), val, true
	}
	return q.hdrFresh(newFront, pmem.Nil, rlen-1, 0, rec), val, true
}

// Peek returns the head element without modifying the queue.
func (q Queue) Peek() (uint64, bool) {
	front, rear, flen, rlen := q.fields()
	dev := q.h.Device()
	if flen > 0 {
		return dev.ReadU64(front + 8), true
	}
	if rlen == 0 {
		return 0, false
	}
	// Oldest element is the tail of the rear list.
	cur := rear
	for {
		next := pmem.Addr(dev.ReadU64(cur))
		if next == pmem.Nil {
			return dev.ReadU64(cur + 8), true
		}
		cur = next
	}
}

// Elements returns the queue contents from head to tail (for tests).
func (q Queue) Elements() []uint64 {
	front, rear, _, _ := q.fields()
	dev := q.h.Device()
	var out []uint64
	for n := front; n != pmem.Nil; n = pmem.Addr(dev.ReadU64(n)) {
		out = append(out, dev.ReadU64(n+8))
	}
	var rev []uint64
	for n := rear; n != pmem.Nil; n = pmem.Addr(dev.ReadU64(n)) {
		rev = append(rev, dev.ReadU64(n+8))
	}
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

func walkQueueHdr(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	dev := h.Device()
	if front := pmem.Addr(dev.ReadU64(a)); front != pmem.Nil {
		visit(front)
	}
	if rear := pmem.Addr(dev.ReadU64(a + 8)); rear != pmem.Nil {
		visit(rear)
	}
}
