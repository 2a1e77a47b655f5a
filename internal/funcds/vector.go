package funcds

import (
	"encoding/binary"
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Vector is a purely functional vector of 8-byte elements implemented as a
// bit-partitioned trie with a Clojure-style tail buffer, the "broad but not
// deep" tree of §4.2 that avoids the bubbling-up-of-writes problem of
// conventional shadow paging. (The paper uses RRB trees; none of the
// evaluated operations — push_back, update, swap — need RRB's relaxed
// concatenation nodes, so this is the classic radix-balanced structure.
// See DESIGN.md §2.)
//
// Interior nodes are 32-way; leaves hold 8 elements, one cache line of
// payload (heap layout v7). The two widths answer different costs: fan-out
// sets the depth a Get descends and the number of blocks an update copies,
// leaf width sets how many bytes are rewritten to change 8 of them.
//
// The tail buffer holds the last 1–8 elements outside the trie, so an
// append copies one leaf and one header instead of path-copying the whole
// spine; the tail is pushed into the trie only when it fills (once per 8
// appends). Under an edit context (DESIGN.md §8) an append into an
// edit-owned tail mutates it in place: a run of appends inside one FASE
// costs one flush per tail fill.
//
// An update path-copies the nodes between root and leaf (or just the tail
// leaf): at 100,000 elements one 64-byte leaf, three 128-byte interior
// nodes and the header — 12 lines, each node's block starting on a line
// (DESIGN.md §2, "Size classes") — where PMDK's flat array logs and
// writes one element, so MOD still flushes more than PMDK on Fig. 9's
// vector workloads, under a third of the fences. Which of the two decides
// the time depends on depth: MOD wins those rows at two interior levels and
// loses them from three up (DESIGN.md §2). With a 32-slot leaf (layout v6
// and before, the geometry the paper evaluates) the leaf alone was five
// lines and MOD lost them at every depth, as the paper reports.
//
// Layout (ref = 4-byte node reference, funcds.go):
//
//	header (TagVecHdr):  [count u64][shift u32][pad u32][root u64][tail u64]
//	node   (TagVecNode): 32 × [child ref]
//	leaf   (TagVecLeaf): 8 × [value u64]
//
// shift is the bit position of the index digit that selects among the root's
// children: 0 when the root is a leaf, leafBits when its children are
// leaves, and vecBits more for every level above that (shiftAbove and
// shiftBelow step it).
//
// Invariants: elements [0, tailOffset) live in the trie (all leaves
// full), elements [tailOffset, count) in the tail leaf; count > 0 implies
// a non-nil tail holding 1–8 elements; root is Nil while tailOffset is
// 0, and is a single leaf (shift 0) while tailOffset is 8.
type Vector struct {
	h    *alloc.Heap
	addr pmem.Addr
	ed   *alloc.Edit
	sel  bool // selective persistence: volatile trie, record chain (record.go)
}

const (
	vecBits     = 5
	vecWidth    = 1 << vecBits // 32 children per interior node
	vecMask     = vecWidth - 1
	leafBits    = 3
	leafWidth   = 1 << leafBits // 8 elements per leaf
	leafMask    = leafWidth - 1
	vecHdrSize  = 32
	vecNodeSize = vecWidth * refSize
	vecLeafSize = leafWidth * 8
)

// shiftAbove returns the shift of the level above one at shift s.
func shiftAbove(s uint32) uint32 {
	if s == 0 {
		return leafBits
	}
	return s + vecBits
}

// shiftBelow returns the shift of the children of an interior node at
// shift s (s > 0).
func shiftBelow(s uint32) uint32 {
	if s == leafBits {
		return 0
	}
	return s - vecBits
}

// trieCap returns how many elements a full trie rooted at shift s holds.
func trieCap(s uint32) uint64 { return 1 << shiftAbove(s) }

// tailOffset returns the index of the first tail element: the largest
// multiple of leafWidth strictly below count (0 when count <= leafWidth).
func tailOffset(count uint64) uint64 {
	if count <= leafWidth {
		return 0
	}
	return (count - 1) &^ leafMask
}

// NewVector allocates an empty durable vector (flushed, not fenced).
func NewVector(h *alloc.Heap) Vector {
	a := h.AllocNode(vecHdrSize, TagVecHdr)
	h.Device().Zero(a, vecHdrSize)
	h.SealNode(a, vecHdrSize)
	return Vector{h: h, addr: a}
}

// NewVectorSelective allocates an empty selectively persisted vector:
// trie nodes and leaves stay volatile-clean, every update appends a
// durable record cell, and the checkpoint clone starts as an empty normal
// vector (flushed, not fenced).
func NewVectorSelective(h *alloc.Heap) Vector {
	ckpt := NewVector(h).Addr()
	a := h.AllocNode(vecHdrSize+selExtSize, TagVecHdrSel)
	h.Device().Zero(a, vecHdrSize)
	writeSelExt(h, a, vecHdrSize, ckpt, pmem.Nil, 0)
	h.SealNode(a, vecHdrSize+selExtSize)
	return Vector{h: h, addr: a, sel: true}
}

// VectorAt adopts an existing vector header, e.g. after recovery. The
// selective variant is recognized by its tag.
func VectorAt(h *alloc.Heap, addr pmem.Addr) Vector {
	return Vector{h: h, addr: addr, sel: h.Tag(addr) == TagVecHdrSel}
}

// WithEdit binds the version to a per-FASE edit context: nodes the edit
// allocates are mutated in place by subsequent operations on the returned
// value and its successors, and their flushes are deferred to Edit.Seal.
func (v Vector) WithEdit(ed *alloc.Edit) Vector {
	return Vector{h: v.h, addr: v.addr, ed: ed, sel: v.sel}
}

// Addr returns the header address of this version.
func (v Vector) Addr() pmem.Addr { return v.addr }

// Heap returns the owning heap.
func (v Vector) Heap() *alloc.Heap { return v.h }

func (v Vector) fields() (count uint64, shift uint32, root, tail pmem.Addr) {
	dev := v.h.Device()
	return dev.ReadU64(v.addr), dev.ReadU32(v.addr + 8),
		pmem.Addr(dev.ReadU64(v.addr + 16)), pmem.Addr(dev.ReadU64(v.addr + 24))
}

// Len returns the number of elements.
func (v Vector) Len() uint64 { return v.h.Device().ReadU64(v.addr) }

// newVecHdr allocates a header; root and tail references transfer in.
func newVecHdr(h *alloc.Heap, ed *alloc.Edit, count uint64, shift uint32, root, tail pmem.Addr) pmem.Addr {
	a := nodeAlloc(h, ed, vecHdrSize, TagVecHdr, false)
	dev := h.Device()
	dev.WriteU64(a, count)
	dev.WriteU32(a+8, shift)
	dev.WriteU32(a+12, 0)
	dev.WriteU64(a+16, uint64(root))
	dev.WriteU64(a+24, uint64(tail))
	flushNode(h, ed, a, vecHdrSize, false)
	return a
}

// setHdr produces a header with the given fields: in place when the
// receiver's header is edit-owned, otherwise as a fresh allocation whose
// unchanged children the caller has retained. Changed-child references
// transfer in; in the in-place case the header's references to replaced
// children are released via the release list. Selective vectors
// additionally install rec at the head of the record chain.
func (v Vector) setHdr(count uint64, shift uint32, root, tail, rec pmem.Addr, release ...pmem.Addr) Vector {
	if v.ed.Owns(v.addr) {
		dev := v.h.Device()
		dev.WriteU64(v.addr, count)
		dev.WriteU32(v.addr+8, shift)
		dev.WriteU64(v.addr+16, uint64(root))
		dev.WriteU64(v.addr+24, uint64(tail))
		size := vecHdrSize
		if v.sel {
			ckpt, oldRec, recCount := readSelExt(v.h, v.addr, vecHdrSize)
			writeSelExt(v.h, v.addr, vecHdrSize, ckpt, rec, recCount+1)
			size += selExtSize
			if oldRec != pmem.Nil {
				v.h.Release(oldRec)
			}
		}
		recordEdit(v.ed, v.addr, size, false)
		for _, r := range release {
			v.h.Release(r)
		}
		return v
	}
	if v.sel {
		ckpt, _, recCount := readSelExt(v.h, v.addr, vecHdrSize)
		hdr := nodeAlloc(v.h, v.ed, vecHdrSize+selExtSize, TagVecHdrSel, false)
		dev := v.h.Device()
		dev.WriteU64(hdr, count)
		dev.WriteU32(hdr+8, shift)
		dev.WriteU32(hdr+12, 0)
		dev.WriteU64(hdr+16, uint64(root))
		dev.WriteU64(hdr+24, uint64(tail))
		writeSelExt(v.h, hdr, vecHdrSize, ckpt, rec, recCount+1)
		flushNode(v.h, v.ed, hdr, vecHdrSize+selExtSize, false)
		v.h.Retain(ckpt)
		return Vector{h: v.h, addr: hdr, ed: v.ed, sel: true}
	}
	hdr := newVecHdr(v.h, v.ed, count, shift, root, tail)
	return Vector{h: v.h, addr: hdr, ed: v.ed}
}

// newVecLeaf allocates a leaf containing the values in vals; the remaining
// slots are zeroed (they are never read, but zeroing keeps durable images
// deterministic for crash tests).
func newVecLeaf(h *alloc.Heap, ed *alloc.Edit, vol bool, vals []uint64) pmem.Addr {
	var slots [leafWidth]uint64
	copy(slots[:], vals)
	return writeLeaf(h, ed, vol, slots)
}

// readNode decodes the 32 child references of the interior node at a with
// one bulk access, served from the DRAM node cache when enabled (edit-owned
// nodes bypass).
func readNode(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a pmem.Addr) [vecWidth]pmem.Addr {
	buf := h.ReadCached(a, vecNodeSize, ed, sc)
	var out [vecWidth]pmem.Addr
	for i := range out {
		out[i] = refAddr(binary.LittleEndian.Uint32(buf[i*refSize:]))
	}
	return out
}

// readLeaf is readNode for a leaf: 8 values.
func readLeaf(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a pmem.Addr) [leafWidth]uint64 {
	buf := h.ReadCached(a, vecLeafSize, ed, sc)
	var out [leafWidth]uint64
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(buf[i*8:])
	}
	return out
}

// writeNode allocates an interior node over children and flushes it
// (volatile under selective persistence).
func writeNode(h *alloc.Heap, ed *alloc.Edit, vol bool, children [vecWidth]pmem.Addr) pmem.Addr {
	a := nodeAlloc(h, ed, vecNodeSize, TagVecNode, vol)
	buf := ed.Scratch().Bytes(vecNodeSize)
	for i, c := range children {
		binary.LittleEndian.PutUint32(buf[i*refSize:], ref32(c))
	}
	h.Device().Write(a, buf)
	flushNode(h, ed, a, vecNodeSize, vol)
	return a
}

// writeLeaf is writeNode for a leaf of values.
func writeLeaf(h *alloc.Heap, ed *alloc.Edit, vol bool, vals [leafWidth]uint64) pmem.Addr {
	a := nodeAlloc(h, ed, vecLeafSize, TagVecLeaf, vol)
	buf := ed.Scratch().Bytes(vecLeafSize)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], v)
	}
	h.Device().Write(a, buf)
	flushNode(h, ed, a, vecLeafSize, vol)
	return a
}

// childOf reads the idx-th child reference of the interior node at node.
// The slot read bypasses the verified node-read funnel (ReadCached), so
// the reference that led here and the block behind it are checked first.
func childOf(h *alloc.Heap, node pmem.Addr, idx int) pmem.Addr {
	h.VerifyRef(node)
	return refAddr(h.Device().ReadU32(node + pmem.Addr(idx*refSize)))
}

// copyNodeReplace clones an internal node, replacing slot idx with child,
// whose reference is transferred from the caller. The clone borrows its
// other children from node instead of counting them (alloc/borrow.go);
// each must name a block, as a read through it would require.
func copyNodeReplace(h *alloc.Heap, ed *alloc.Edit, vol bool, node pmem.Addr, idx int, child pmem.Addr) pmem.Addr {
	children := readNode(h, ed, ed.Scratch(), node)
	old := children[idx]
	children[idx] = child
	for _, c := range children {
		if c != pmem.Nil {
			h.CheckRef(c)
		}
	}
	clone := writeNode(h, ed, vol, children)
	h.Borrow(node, clone, old, child)
	return clone
}

// replaceChild installs child at slot idx of node: a single in-place slot
// write when node is edit-owned (releasing the header-held reference to
// the displaced old child, if any), a path copy otherwise. A node that
// still borrows from the one it was cloned from settles first: the child
// it displaces may be one of the shared ones.
func (v Vector) replaceChild(node pmem.Addr, idx int, child, old pmem.Addr) pmem.Addr {
	if v.ed.Owns(node) {
		v.h.Settle(node)
		v.h.Device().WriteU32(node+pmem.Addr(idx*refSize), ref32(child))
		recordEdit(v.ed, node+pmem.Addr(idx*refSize), refSize, v.sel)
		if old != pmem.Nil {
			v.h.Release(old)
		}
		return node
	}
	return copyNodeReplace(v.h, v.ed, v.sel, node, idx, child)
}

// Get returns the element at index i.
func (v Vector) Get(i uint64) uint64 {
	count, shift, root, tail := v.fields()
	if i >= count {
		panic(fmt.Sprintf("funcds: vector index %d out of range (len %d)", i, count))
	}
	node := tail
	if i < tailOffset(count) {
		node = root
		for s := shift; s > 0; s = shiftBelow(s) {
			node = childOf(v.h, node, int((i>>s)&vecMask))
		}
	}
	v.h.VerifyRef(node) // direct slot read, as in childOf
	return v.h.Device().ReadU64(node + pmem.Addr((i&leafMask)*8))
}

// Update returns a new version with element i replaced by val, copying
// the tail leaf or path-copying one trie node per level — or mutating in
// place where the edit context owns the nodes.
func (v Vector) Update(i uint64, val uint64) Vector {
	count, shift, root, tail := v.fields()
	if i >= count {
		panic(fmt.Sprintf("funcds: vector update index %d out of range (len %d)", i, count))
	}
	rec := pmem.Nil
	if v.sel {
		_, oldRec, _ := readSelExt(v.h, v.addr, vecHdrSize)
		rec = newRecord(v.h, v.ed, oldRec, RecVecUpdate, i, val)
	}
	if i >= tailOffset(count) {
		if v.ed.Owns(tail) {
			v.h.Device().WriteU64(tail+pmem.Addr((i&leafMask)*8), val)
			recordEdit(v.ed, tail+pmem.Addr((i&leafMask)*8), 8, v.sel)
			if v.sel {
				return Vector{h: v.h, addr: selAppendRecord(v.h, v.ed, v.addr, rec), ed: v.ed, sel: true}
			}
			return v
		}
		slots := readLeaf(v.h, v.ed, v.ed.Scratch(), tail)
		slots[i&leafMask] = val
		newTail := writeLeaf(v.h, v.ed, v.sel, slots)
		if !v.ed.Owns(v.addr) && root != pmem.Nil {
			v.h.Retain(root)
		}
		return v.setHdr(count, shift, root, newTail, rec, tail)
	}
	newRoot := v.assoc(root, shift, i, val)
	if newRoot == root {
		if v.sel {
			return Vector{h: v.h, addr: selAppendRecord(v.h, v.ed, v.addr, rec), ed: v.ed, sel: true}
		}
		return v
	}
	if !v.ed.Owns(v.addr) {
		v.h.Retain(tail)
	}
	return v.setHdr(count, shift, newRoot, tail, rec, root)
}

func (v Vector) assoc(node pmem.Addr, shift uint32, i uint64, val uint64) pmem.Addr {
	if shift == 0 {
		if v.ed.Owns(node) {
			v.h.Device().WriteU64(node+pmem.Addr((i&leafMask)*8), val)
			recordEdit(v.ed, node+pmem.Addr((i&leafMask)*8), 8, v.sel)
			return node
		}
		slots := readLeaf(v.h, v.ed, v.ed.Scratch(), node)
		slots[i&leafMask] = val
		return writeLeaf(v.h, v.ed, v.sel, slots)
	}
	idx := int((i >> shift) & vecMask)
	child := childOf(v.h, node, idx)
	newChild := v.assoc(child, shiftBelow(shift), i, val)
	if newChild == child {
		return node
	}
	return v.replaceChild(node, idx, newChild, child)
}

// Push returns a new version with val appended. The tail absorbs the
// append (one leaf copy, or an in-place slot write when edit-owned); a
// full tail is first pushed into the trie, which is the only path-copying
// case — once per 8 appends.
func (v Vector) Push(val uint64) Vector {
	count, shift, root, tail := v.fields()
	rec := pmem.Nil
	if v.sel {
		_, oldRec, _ := readSelExt(v.h, v.addr, vecHdrSize)
		rec = newRecord(v.h, v.ed, oldRec, RecVecPush, val, 0)
	}
	if count == 0 {
		newTail := newVecLeaf(v.h, v.ed, v.sel, []uint64{val})
		return v.setHdr(1, 0, pmem.Nil, newTail, rec)
	}
	tailLen := count - tailOffset(count)
	if tailLen < leafWidth {
		if v.ed.Owns(tail) {
			dev := v.h.Device()
			dev.WriteU64(tail+pmem.Addr(tailLen*8), val)
			recordEdit(v.ed, tail+pmem.Addr(tailLen*8), 8, v.sel)
			if v.ed.Owns(v.addr) {
				dev.WriteU64(v.addr, count+1)
				size := 8
				if v.sel {
					ckpt, oldRec, recCount := readSelExt(v.h, v.addr, vecHdrSize)
					writeSelExt(v.h, v.addr, vecHdrSize, ckpt, rec, recCount+1)
					size = vecHdrSize + selExtSize
					if oldRec != pmem.Nil {
						v.h.Release(oldRec)
					}
				}
				recordEdit(v.ed, v.addr, size, false)
				return v
			}
			if root != pmem.Nil {
				v.h.Retain(root)
			}
			v.h.Retain(tail)
			return v.setHdr(count+1, shift, root, tail, rec)
		}
		slots := readLeaf(v.h, v.ed, v.ed.Scratch(), tail)
		slots[tailLen] = val
		newTail := writeLeaf(v.h, v.ed, v.sel, slots)
		if !v.ed.Owns(v.addr) && root != pmem.Nil {
			v.h.Retain(root)
		}
		return v.setHdr(count+1, shift, root, newTail, rec, tail)
	}

	// Tail is full: push it into the trie and start a fresh tail. For an
	// owned header the tail reference transfers from the tail field into
	// the trie; otherwise the old header keeps its reference and the trie
	// becomes a second parent.
	to := tailOffset(count) // index the full tail's elements start at
	newTail := newVecLeaf(v.h, v.ed, v.sel, []uint64{val})
	hdrOwned := v.ed.Owns(v.addr)
	if !hdrOwned {
		v.h.Retain(tail)
	}
	var newRoot pmem.Addr
	newShift := shift
	switch {
	case root == pmem.Nil:
		// First fill: the tail leaf becomes the trie.
		newRoot = tail
	case to == trieCap(shift):
		// Trie is full: grow a level. The old root's reference transfers
		// into the new node for an owned header (whose root field will be
		// overwritten); otherwise the node gains a reference and the old
		// header keeps its own.
		if !hdrOwned {
			v.h.Retain(root)
		}
		newRoot = writeNode(v.h, v.ed, v.sel, [vecWidth]pmem.Addr{root, v.wrapLeaf(shift, tail)})
		newShift = shiftAbove(shift)
	default:
		newRoot = v.pushLeaf(root, shift, to, tail)
	}
	if hdrOwned {
		dev := v.h.Device()
		dev.WriteU64(v.addr, count+1)
		dev.WriteU32(v.addr+8, newShift)
		dev.WriteU64(v.addr+16, uint64(newRoot))
		dev.WriteU64(v.addr+24, uint64(newTail))
		size := vecHdrSize
		if v.sel {
			ckpt, oldRec, recCount := readSelExt(v.h, v.addr, vecHdrSize)
			writeSelExt(v.h, v.addr, vecHdrSize, ckpt, rec, recCount+1)
			size += selExtSize
			if oldRec != pmem.Nil {
				v.h.Release(oldRec)
			}
		}
		recordEdit(v.ed, v.addr, size, false)
		if root != pmem.Nil && newRoot != root && to != trieCap(shift) {
			// pushLeaf path-copied the root: the header's reference to the
			// old root is dropped (the grow case transferred it instead).
			v.h.Release(root)
		}
		return v
	}
	if root != pmem.Nil && newRoot == root {
		// In-place pushLeaf deep in the trie left the root pointer
		// unchanged; the new header is a second parent.
		v.h.Retain(root)
	}
	return v.setHdr(count+1, newShift, newRoot, newTail, rec)
}

// wrapLeaf wraps a leaf in singleton interior nodes so it roots a subtree
// at the given level (0 returns the leaf itself).
func (v Vector) wrapLeaf(level uint32, leaf pmem.Addr) pmem.Addr {
	node := leaf
	for s := uint32(0); s < level; s = shiftAbove(s) {
		node = writeNode(v.h, v.ed, v.sel, [vecWidth]pmem.Addr{node})
	}
	return node
}

// pushLeaf inserts the full tail leaf at trie index to (a multiple of 8),
// path-copying — or mutating in place where owned — one node per level.
// The caller guarantees the trie is not full and root is not Nil.
func (v Vector) pushLeaf(node pmem.Addr, shift uint32, to uint64, leaf pmem.Addr) pmem.Addr {
	idx := int((to >> shift) & vecMask)
	if shift == leafBits {
		// Children of this node are leaves; slot idx is empty.
		return v.replaceChild(node, idx, leaf, pmem.Nil)
	}
	if to&((1<<shift)-1) == 0 {
		// Whole subtree at idx is missing: graft a singleton path.
		return v.replaceChild(node, idx, v.wrapLeaf(shiftBelow(shift), leaf), pmem.Nil)
	}
	child := childOf(v.h, node, idx)
	newChild := v.pushLeaf(child, shiftBelow(shift), to, leaf)
	if newChild == child {
		return node
	}
	return v.replaceChild(node, idx, newChild, child)
}

// Elements returns the vector contents, reading each leaf once: the trie
// left to right, then the tail.
func (v Vector) Elements() []uint64 {
	count, shift, root, tail := v.fields()
	out := make([]uint64, 0, count)
	if count == 0 {
		return out
	}
	var sc alloc.Scratch
	to := tailOffset(count)
	var walk func(node pmem.Addr, s uint32)
	walk = func(node pmem.Addr, s uint32) {
		if s == 0 {
			leaf := readLeaf(v.h, v.ed, &sc, node)
			out = append(out, leaf[:]...)
			return
		}
		for _, c := range readNode(v.h, v.ed, &sc, node) {
			if c == pmem.Nil {
				break // children fill left to right
			}
			walk(c, shiftBelow(s))
		}
	}
	if to > 0 {
		walk(root, shift)
	}
	last := readLeaf(v.h, v.ed, &sc, tail)
	return append(out, last[:count-to]...)
}

func walkVecHdr(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	if root := pmem.Addr(h.Device().ReadU64(a + 16)); root != pmem.Nil {
		visit(root)
	}
	if tail := pmem.Addr(h.Device().ReadU64(a + 24)); tail != pmem.Nil {
		visit(tail)
	}
}

func walkVecNode(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	for _, c := range readNode(h, nil, sc, a) {
		if c != pmem.Nil {
			visit(c)
		}
	}
}
