package funcds

import (
	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Stack is a purely functional LIFO stack of 8-byte elements, implemented
// as a cons list (Fig. 1 of the paper). Push and Pop are pure: they return
// a new version sharing all surviving nodes with the original.
//
// Layout:
//
//	header (TagStackHdr): [head u64][len u64]
//	node   (TagListNode): [next u64][value u64]
type Stack struct {
	h    *alloc.Heap
	addr pmem.Addr
	ed   *alloc.Edit
	sel  bool // selective persistence: volatile cons cells, record chain (record.go)
}

const (
	stackHdrSize = 16
	listNodeSize = 16
)

// NewStack allocates an empty durable stack (flushed, not fenced).
func NewStack(h *alloc.Heap) Stack {
	a := h.AllocNode(stackHdrSize, TagStackHdr)
	dev := h.Device()
	dev.WriteU64(a, 0)
	dev.WriteU64(a+8, 0)
	h.SealNode(a, stackHdrSize)
	return Stack{h: h, addr: a}
}

// NewStackSelective allocates an empty selectively persisted stack: cons
// cells stay volatile-clean, every update appends a durable record cell,
// and the checkpoint clone starts as an empty normal stack.
func NewStackSelective(h *alloc.Heap) Stack {
	ckpt := NewStack(h).Addr()
	a := h.AllocNode(stackHdrSize+selExtSize, TagStackHdrSel)
	h.Device().Zero(a, stackHdrSize)
	writeSelExt(h, a, stackHdrSize, ckpt, pmem.Nil, 0)
	h.SealNode(a, stackHdrSize+selExtSize)
	return Stack{h: h, addr: a, sel: true}
}

// StackAt adopts an existing stack header, e.g. after recovery. The
// selective variant is recognized by its tag.
func StackAt(h *alloc.Heap, addr pmem.Addr) Stack {
	return Stack{h: h, addr: addr, sel: h.Tag(addr) == TagStackHdrSel}
}

// WithEdit binds the version to a per-FASE edit context (DESIGN.md §8).
func (s Stack) WithEdit(ed *alloc.Edit) Stack {
	return Stack{h: s.h, addr: s.addr, ed: ed, sel: s.sel}
}

// Addr returns the header address of this version.
func (s Stack) Addr() pmem.Addr { return s.addr }

// Heap returns the owning heap.
func (s Stack) Heap() *alloc.Heap { return s.h }

// Len returns the number of elements.
func (s Stack) Len() uint64 { return s.h.Device().ReadU64(s.addr + 8) }

func (s Stack) head() pmem.Addr { return pmem.Addr(s.h.Device().ReadU64(s.addr)) }

// newListNode allocates and flushes a cons cell (volatile under selective
// persistence). The next pointer must already be owned by the caller
// (this function retains it).
func newListNode(h *alloc.Heap, ed *alloc.Edit, vol bool, next pmem.Addr, val uint64) pmem.Addr {
	a := nodeAlloc(h, ed, listNodeSize, TagListNode, vol)
	dev := h.Device()
	dev.WriteU64(a, uint64(next))
	dev.WriteU64(a+8, val)
	flushNode(h, ed, a, listNodeSize, vol)
	h.Retain(next)
	return a
}

func newStackHdr(h *alloc.Heap, ed *alloc.Edit, head pmem.Addr, n uint64) pmem.Addr {
	a := nodeAlloc(h, ed, stackHdrSize, TagStackHdr, false)
	dev := h.Device()
	dev.WriteU64(a, uint64(head))
	dev.WriteU64(a+8, n)
	flushNode(h, ed, a, stackHdrSize, false)
	return a
}

// setHdr produces a stack header pointing at head (reference transfers
// in): an in-place mutation when the receiver's header is edit-owned —
// releasing the header's reference to the displaced old head — or a
// fresh header otherwise. Selective stacks additionally install rec at
// the head of the record chain.
func (s Stack) setHdr(head, oldHead pmem.Addr, n uint64, rec pmem.Addr) Stack {
	if s.ed.Owns(s.addr) {
		dev := s.h.Device()
		dev.WriteU64(s.addr, uint64(head))
		dev.WriteU64(s.addr+8, n)
		size := stackHdrSize
		if s.sel {
			ckpt, oldRec, recCount := readSelExt(s.h, s.addr, stackHdrSize)
			writeSelExt(s.h, s.addr, stackHdrSize, ckpt, rec, recCount+1)
			size += selExtSize
			if oldRec != pmem.Nil {
				s.h.Release(oldRec)
			}
		}
		recordEdit(s.ed, s.addr, size, false)
		s.h.Release(oldHead)
		return s
	}
	if s.sel {
		ckpt, _, recCount := readSelExt(s.h, s.addr, stackHdrSize)
		hdr := nodeAlloc(s.h, s.ed, stackHdrSize+selExtSize, TagStackHdrSel, false)
		dev := s.h.Device()
		dev.WriteU64(hdr, uint64(head))
		dev.WriteU64(hdr+8, n)
		writeSelExt(s.h, hdr, stackHdrSize, ckpt, rec, recCount+1)
		flushNode(s.h, s.ed, hdr, stackHdrSize+selExtSize, false)
		s.h.Retain(ckpt)
		return Stack{h: s.h, addr: hdr, ed: s.ed, sel: true}
	}
	hdr := newStackHdr(s.h, s.ed, head, n)
	return Stack{h: s.h, addr: hdr, ed: s.ed}
}

// Push returns a new version with val on top. The node and header writes
// are flushed with no ordering point.
func (s Stack) Push(val uint64) Stack {
	rec := pmem.Nil
	if s.sel {
		_, oldRec, _ := readSelExt(s.h, s.addr, stackHdrSize)
		rec = newRecord(s.h, s.ed, oldRec, RecStackPush, val, 0)
	}
	head := s.head()
	node := newListNode(s.h, s.ed, s.sel, head, val)
	// The header owns the node: transfer the constructor's reference. In
	// the in-place case the header's reference to the old head moved into
	// the node (which retained it), so the header's own reference drops.
	return s.setHdr(node, head, s.Len()+1, rec)
}

// Pop returns a new version without the top element, the element, and
// whether the stack was non-empty. Popping an empty stack returns the
// receiver unchanged.
func (s Stack) Pop() (Stack, uint64, bool) {
	head := s.head()
	if head == pmem.Nil {
		return s, 0, false
	}
	rec := pmem.Nil
	if s.sel {
		_, oldRec, _ := readSelExt(s.h, s.addr, stackHdrSize)
		rec = newRecord(s.h, s.ed, oldRec, RecStackPop, 0, 0)
	}
	dev := s.h.Device()
	next := pmem.Addr(dev.ReadU64(head))
	val := dev.ReadU64(head + 8)
	s.h.Retain(next)
	return s.setHdr(next, head, s.Len()-1, rec), val, true
}

// Peek returns the top element without modifying the stack.
func (s Stack) Peek() (uint64, bool) {
	head := s.head()
	if head == pmem.Nil {
		return 0, false
	}
	return s.h.Device().ReadU64(head + 8), true
}

// Elements returns the stack contents from top to bottom (for tests).
func (s Stack) Elements() []uint64 {
	var out []uint64
	dev := s.h.Device()
	for n := s.head(); n != pmem.Nil; n = pmem.Addr(dev.ReadU64(n)) {
		out = append(out, dev.ReadU64(n+8))
	}
	return out
}

func walkStackHdr(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	if head := pmem.Addr(h.Device().ReadU64(a)); head != pmem.Nil {
		visit(head)
	}
}

func walkListNode(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	if next := pmem.Addr(h.Device().ReadU64(a)); next != pmem.Nil {
		visit(next)
	}
}
