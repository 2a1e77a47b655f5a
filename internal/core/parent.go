package core

import (
	"fmt"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Parent is a persistent object whose fields point at MOD datastructures,
// enabling CommitSiblings (§5.1, Fig. 8c): updates to several sibling
// structures commit atomically by shadowing the parent itself and swapping
// one pointer. The paper's vacation port anchors its four maps under such
// a manager object.
//
// Layout (TagParent): [nFields u64][field addr u64 × n].
//
// A Parent handle may be shared across goroutines: its current block
// address is atomic, and every commit through it serializes on the
// parent's root mutex.
type Parent struct {
	s      *Store
	name   string
	slot   int
	addr   atomic.Uint64 // current parent block address
	fields []string
}

// maxParentFields bounds field counts for corruption detection.
const maxParentFields = 1 << 16

// Parent binds (creating on first use) a parent object under a named root
// with the given ordered field names. Reopening must pass the same fields.
func (s *Store) Parent(name string, fields ...string) (*Parent, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("core: parent %q needs at least one field", name)
	}
	created := false
	kind := rootKind{"parent", []uint8{funcds.TagParent}, func(h *alloc.Heap, _ bool) pmem.Addr {
		created = true
		return newParentBlock(h, make([]pmem.Addr, len(fields)))
	}}
	loc, addr, err := bindRoot(s, name, kind)
	if err != nil {
		return nil, err
	}
	if !created {
		if n := s.dev.ReadU64(addr); n != uint64(len(fields)) {
			return nil, fmt.Errorf("core: parent %q has %d fields, expected %d", name, n, len(fields))
		}
	}
	p := &Parent{s: s, name: name, slot: loc.slot, fields: fields}
	p.adopt(addr)
	return p, nil
}

// newParentBlock allocates and flushes a parent block with the given field
// pointers. Reference transfers are the caller's responsibility.
func newParentBlock(h *alloc.Heap, fields []pmem.Addr) pmem.Addr {
	size := 8 + len(fields)*8
	a := h.Alloc(size, funcds.TagParent)
	dev := h.Device()
	dev.WriteU64(a, uint64(len(fields)))
	for i, f := range fields {
		dev.WriteU64(a+8+pmem.Addr(i*8), uint64(f))
	}
	// The block header's line was flushed by Alloc; [a, size) re-covers it
	// only when payload and header share a line (i.e. when it was re-dirtied).
	dev.FlushRange(a, size)
	return a
}

// Name returns the parent's root name.
func (p *Parent) Name() string { return p.name }

// Addr returns the current parent block address.
func (p *Parent) Addr() pmem.Addr { return pmem.Addr(p.addr.Load()) }

// adopt records a newly committed parent block address.
func (p *Parent) adopt(a pmem.Addr) { p.addr.Store(uint64(a)) }

// refreshLocked reloads the parent block pointer from its root cell.
// Caller holds the parent's root mutex.
func (p *Parent) refreshLocked() { p.adopt(p.s.heap.Root(p.slot)) }

// Fields returns the ordered field names.
func (p *Parent) Fields() []string { return p.fields }

func (p *Parent) fieldIndex(name string) (int, error) {
	for i, f := range p.fields {
		if f == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: parent %q has no field %q", p.name, name)
}

// fieldAddr reads the current pointer of field i.
func (p *Parent) fieldAddr(i int) pmem.Addr {
	return pmem.Addr(p.s.dev.ReadU64(p.Addr() + 8 + pmem.Addr(i*8)))
}

func walkParent(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	dev := h.Device()
	n := dev.ReadU64(a)
	if n > maxParentFields {
		return // corrupt block; recovery will sweep it as unreachable
	}
	for i := uint64(0); i < n; i++ {
		if f := pmem.Addr(dev.ReadU64(a + 8 + pmem.Addr(i*8))); f != pmem.Nil {
			visit(f)
		}
	}
}
