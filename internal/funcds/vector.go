package funcds

import (
	"encoding/binary"
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Vector is a purely functional vector of 8-byte elements implemented as a
// radix-balanced trie with a Clojure-style tail buffer, the "broad but not
// deep" tree of §4.2 that avoids the bubbling-up-of-writes problem of
// conventional shadow paging. (The paper uses RRB trees; none of the
// evaluated operations — push_back, update, swap — need RRB's relaxed
// concatenation nodes, so this is the classic radix-balanced structure.
// See DESIGN.md §2.)
//
// Interior nodes are 12-way (heap layout v18); leaves hold 8 elements, one
// cache line of payload (heap layout v7). The two widths answer different
// costs: fan-out sets the depth a Get descends and the number of blocks an
// update copies, leaf width sets how many bytes are rewritten to change 8
// of them. 12 references and the 16-byte block header are exactly the
// line-aligned 64-byte class, one line: a path copy writes one line per
// level. 28-way nodes (layout v17) took two lines each; at 100,000
// elements the 12-way trie is a level deeper and still writes fewer lines
// (DESIGN.md §2, "Vector geometry").
//
// The tail buffer holds the last 1–8 elements outside the trie, so an
// append copies one leaf and the root instead of path-copying the whole
// spine; the tail is pushed into the trie only when it fills (once per 8
// appends). Under an edit context (DESIGN.md §8) an append into an
// edit-owned tail mutates it in place: a run of appends inside one FASE
// costs one flush per tail fill.
//
// A plain vector's version is its root (heap layout v16): root cells,
// parent fields, snapshots and stage-slot digests name it. The root
// carries the count, the height and the tail reference ahead of one
// reference per child it has — the trie is packed to the left, so that
// number follows from count and height (rootKids) and is not stored. A
// selective vector's version is its header (record.go), whose first word
// names its root.
//
// An update path-copies the nodes between root and leaf (or just the tail
// leaf) and the root: at 100,000 elements one 64-byte leaf, three one-line
// interior nodes and a root of 8 children — 6 lines for 5 blocks. Every
// root takes at least the 64-byte class, so a root of up to 8 children is
// one line-aligned block (DESIGN.md §2, "Size classes"), where a 40-byte
// root in the 48-byte class would straddle two lines. PMDK's flat array
// logs and writes one element, so MOD still flushes more than PMDK on
// Fig. 9's vector workloads, under a third of the fences; with one-line
// nodes it wins them at every scale, the paper's million elements too
// (DESIGN.md §2). With a 32-slot leaf (layout v6 and before, the geometry
// the paper evaluates) the leaf alone was five lines and MOD lost them at
// every depth, as the paper reports.
//
// Layout (ref = 4-byte node reference, funcds.go):
//
//	root (TagVecRoot): [count u64][height u32][tail ref u32] k × [child ref]
//	node (TagVecNode): 12 × [child ref]
//	leaf (TagVecLeaf): 8 × [value u64]
//
// height counts the root's levels above the leaves: 1 when its children
// are leaves. A subtree of height h holds vecSpan[h] = 8·12^h elements, so
// the index digit that selects among a height-h node's children is a
// quotient by vecSpan[h-1], not a shift: indexPath computes an index's digits
// bottom-up by the constant radix, which the compiler turns into
// multiplications.
//
// Invariants: elements [0, tailOffset) live in the trie (all leaves
// full), elements [tailOffset, count) in the tail leaf; count > 0 implies
// a non-nil tail holding 1–8 elements; the root has no child while
// tailOffset is 0.
type Vector struct {
	h    *alloc.Heap
	addr pmem.Addr
	ed   *alloc.Edit
	sel  bool // selective persistence: volatile trie, record chain (record.go)
}

const (
	vecWidth    = 12 // children per interior node
	leafBits    = 3
	leafWidth   = 1 << leafBits // 8 elements per leaf
	leafMask    = leafWidth - 1
	vecNodeSize = vecWidth * refSize
	vecLeafSize = leafWidth * 8
	// vecRootPrefix is the [count][height] ahead of a root's references.
	vecRootPrefix = 12
	// vecRootMin is the smallest payload a root is allocated with: the
	// 64-byte class, one line-aligned line, which holds up to 8 children.
	vecRootMin = 64 - alloc.HeaderSize
	// maxHeight is the tallest root whose trie capacity a count word can
	// express: 8·12^17 < 2^64.
	maxHeight = 17
)

// vecSpan[h] is how many elements a full subtree of height h holds — a
// leaf's 8 at height 0, vecWidth times its children's above — and so the
// capacity of a trie whose root has height h.
var vecSpan = func() (s [maxHeight + 1]uint64) {
	s[0] = leafWidth
	for h := 1; h <= maxHeight; h++ {
		s[h] = s[h-1] * vecWidth
	}
	return s
}()

// VectorSpan returns how many elements a full subtree of the given height
// holds (vecSpan): 8 for a leaf, 12 times its children's above.
func VectorSpan(height uint32) uint64 { return vecSpan[height] }

// vecPath is an index's path through a trie: p[h] is the slot it descends
// through in the node of height h on its way, p at the root's height the
// root's child.
type vecPath [maxHeight + 1]int

// indexPath returns index i's path below a root of the given height. Every
// division is by the constant radix, which the compiler turns into a
// multiplication, so no hardware divide is on the read path.
func indexPath(i uint64, height uint32) (p vecPath) {
	q := i >> leafBits
	for h := uint32(1); h < height; h++ {
		p[h] = int(q % vecWidth)
		q /= vecWidth
	}
	p[height] = int(q)
	return p
}

// tailOffset returns the index of the first tail element: the largest
// multiple of leafWidth strictly below count (0 when count <= leafWidth).
func tailOffset(count uint64) uint64 {
	if count <= leafWidth {
		return 0
	}
	return (count - 1) &^ leafMask
}

// rootKids returns how many children a root of height holds for count
// elements: one per vecSpan[height-1] trie elements, the last possibly
// partial — a ceiling quotient taken a level at a time by the radix.
func rootKids(count uint64, height uint32) int {
	q := tailOffset(count) >> leafBits // full leaves
	for h := uint32(1); h < height; h++ {
		q = (q + vecWidth - 1) / vecWidth
	}
	return int(q)
}

// rootRef is the offset of a root's reference i: the tail's is 0, child
// j's is 1 + j.
func rootRef(i int) pmem.Addr { return vecRootPrefix + pmem.Addr(i*refSize) }

// vecRoot is a root decoded into volatile form: a plain value in its
// reader's frame, like mapNode. refs[0] is the tail, refs[1:1+k] the
// children.
type vecRoot struct {
	count  uint64
	height uint32
	k      int // children
	refs   [1 + vecWidth]pmem.Addr
}

func (r *vecRoot) kids() []pmem.Addr { return r.refs[1 : 1+r.k] }

// rootShape returns the child count of a root at a with the given count
// and height. A height no root can have, or a trie past its capacity, is
// damage to the root: the typed corruption panic, before a reader
// follows a child slot past the block.
func rootShape(a pmem.Addr, count uint64, height uint32) int {
	if !validHeight(height) || tailOffset(count) > vecSpan[height] {
		panic(&alloc.CorruptionPanic{Block: alloc.BlockError{Addr: a, Tag: TagVecRoot, Reason: fmt.Sprintf("vector root shape out of range (count %d, height %d)", count, height)}})
	}
	return rootKids(count, height)
}

// validHeight reports whether a root can have height.
func validHeight(height uint32) bool { return height >= 1 && height <= maxHeight }

// readRoot loads the root at a into r with bulk accesses, served from the
// DRAM node cache when it is enabled (edit-owned roots bypass it).
func readRoot(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a pmem.Addr, r *vecRoot) {
	pre := h.ReadCached(a, int(rootRef(1)), ed, sc)
	r.count = binary.LittleEndian.Uint64(pre)
	r.height = binary.LittleEndian.Uint32(pre[8:])
	r.refs[0] = getRef(pre[rootRef(0):])
	r.k = rootShape(a, r.count, r.height)
	if r.k == 0 {
		return
	}
	// Whole-root read under the block-start key, as readMapNode does.
	body := h.ReadCached(a, int(rootRef(1+r.k)), ed, sc)
	for i := 1; i <= r.k; i++ {
		r.refs[i] = getRef(body[rootRef(i):])
	}
}

// writeRoot allocates, writes, and flushes a root holding r (volatile
// under selective persistence). Reference transfers are the caller's. The
// block is at least vecRootMin bytes; what it holds past r's references is
// neither written nor under the checksum.
func writeRoot(h *alloc.Heap, ed *alloc.Edit, vol bool, r *vecRoot) pmem.Addr {
	size := int(rootRef(1 + r.k))
	a := nodeAlloc(h, ed, max(size, vecRootMin), TagVecRoot, vol)
	buf := ed.Scratch().Bytes(size)
	binary.LittleEndian.PutUint64(buf, r.count)
	binary.LittleEndian.PutUint32(buf[8:], r.height)
	for i, c := range r.refs[:1+r.k] {
		binary.LittleEndian.PutUint32(buf[rootRef(i):], ref32(c))
	}
	h.Device().Write(a, buf)
	flushNode(h, ed, a, size, vol)
	return a
}

// NewVector allocates an empty durable vector, a root with no tail and no
// children (flushed, not fenced).
func NewVector(h *alloc.Heap) Vector {
	return Vector{h: h, addr: writeRoot(h, nil, false, &vecRoot{height: 1})}
}

// NewVectorSelective allocates an empty selectively persisted vector:
// trie nodes stay volatile-clean, every update appends a durable record
// cell, and the empty root is both the live state and the checkpoint
// (flushed, not fenced).
func NewVectorSelective(h *alloc.Heap) Vector {
	return Vector{h: h, addr: selHdrOver(h, NewVector(h).Addr(), TagVecHdrSel), sel: true}
}

// VectorAt adopts an existing vector version, e.g. after recovery: a
// root, or a selective header, recognized by its tag.
func VectorAt(h *alloc.Heap, addr pmem.Addr) Vector {
	return Vector{h: h, addr: addr, sel: h.Tag(addr) == TagVecHdrSel}
}

// WithEdit binds the version to a per-FASE edit context: nodes the edit
// allocates are mutated in place by subsequent operations on the returned
// value and its successors, and their flushes are deferred to Edit.Seal.
func (v Vector) WithEdit(ed *alloc.Edit) Vector {
	return Vector{h: v.h, addr: v.addr, ed: ed, sel: v.sel}
}

// Addr returns the address of this version: its root, or its selective
// header.
func (v Vector) Addr() pmem.Addr { return v.addr }

// Heap returns the owning heap.
func (v Vector) Heap() *alloc.Heap { return v.h }

// root returns the version's root: the version itself, or the live root
// its selective header names.
func (v Vector) root() pmem.Addr {
	if v.sel {
		return pmem.Addr(v.h.Device().ReadU64(v.addr))
	}
	return v.addr
}

// Len returns the number of elements: the root's count word.
func (v Vector) Len() uint64 { return v.h.Device().ReadU64(v.root()) }

// advance returns the version whose root is next, with rec installed at
// the head of a selective vector's record chain. A plain edit-owned root
// that next supersedes is the edit's running version, which nothing else
// references, and is released here (Map.advance).
func (v Vector) advance(next, root, rec pmem.Addr) Vector {
	if v.sel {
		return Vector{h: v.h, addr: setSelRoot(v.h, v.ed, v.addr, TagVecHdrSel, next, root, rec), ed: v.ed, sel: true}
	}
	if next != root && v.ed.Owns(root) {
		v.h.Release(root)
	}
	return Vector{h: v.h, addr: next, ed: v.ed}
}

// record appends a selective vector's record cell of kind; Nil for a
// plain vector.
func (v Vector) record(kind, a, b uint64) pmem.Addr {
	if !v.sel {
		return pmem.Nil
	}
	_, oldRec, _ := readSelExt(v.h, v.addr, selRootBase)
	return newRecord(v.h, v.ed, oldRec, kind, a, b)
}

// setRootRef produces the root replacing root, decoded as r: its
// reference i (rootRef) changed to c, whose reference
// transfers in — c may be the slot's reference already — and its count
// changed to count. It is root itself when nothing changed, rewritten in
// place when the edit owns it (a root that still borrows settles first,
// as replaceChild's node does, and drops its reference to what it
// displaced), and otherwise a copy that borrows everything else from root
// (alloc/borrow.go); each reference it carries must name a block.
func (v Vector) setRootRef(root pmem.Addr, r *vecRoot, i int, c pmem.Addr, count uint64) pmem.Addr {
	old := r.refs[i]
	if c == old && count == r.count {
		return root
	}
	if v.ed.Owns(root) {
		dev := v.h.Device()
		if c != old {
			v.h.Settle(root) // before the count moves what its walker reads
			dev.WriteU32(root+rootRef(i), ref32(c))
			v.h.Release(old)
		}
		if count != r.count {
			dev.WriteU64(root, count)
		}
		recordEdit(v.ed, root, int(rootRef(1+r.k)), v.sel)
		return root
	}
	r.count = count
	r.refs[i] = c
	checkRefs(v.h, r.refs[:1+r.k]) // the tail is Nil only in an empty root, which a copy fills
	copied := writeRoot(v.h, v.ed, v.sel, r)
	if c == old {
		old, c = pmem.Nil, pmem.Nil
	}
	v.h.Borrow(root, copied, old, c)
	return copied
}

// newVecLeaf allocates a leaf containing the values in vals; the remaining
// slots are zeroed (they are never read, but zeroing keeps durable images
// deterministic for crash tests).
func newVecLeaf(h *alloc.Heap, ed *alloc.Edit, vol bool, vals []uint64) pmem.Addr {
	var slots [leafWidth]uint64
	copy(slots[:], vals)
	return writeLeaf(h, ed, vol, slots)
}

// readNode decodes the 12 child references of the interior node at a with
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
// write when node is edit-owned (releasing the node-held reference to
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

// Get returns the element at index i. Like Map.Get it reads the root's
// prefix and the one child slot it descends through, not the whole root.
func (v Vector) Get(i uint64) uint64 {
	root := v.root()
	v.h.VerifyRef(root) // direct slot reads, as in childOf
	dev := v.h.Device()
	count, word := dev.ReadU64(root), dev.ReadU64(root+8)
	if i >= count {
		panic(fmt.Sprintf("funcds: vector index %d out of range (len %d)", i, count))
	}
	node := refAddr(uint32(word >> 32)) // the tail
	if i < tailOffset(count) {
		height := uint32(word)
		rootShape(root, count, height)
		p := indexPath(i, height)
		node = refAddr(dev.ReadU32(root + rootRef(1+p[height])))
		for h := height - 1; h > 0; h-- {
			node = childOf(v.h, node, p[h])
		}
	}
	v.h.VerifyRef(node) // direct slot read, as in childOf
	return dev.ReadU64(node + pmem.Addr((i&leafMask)*8))
}

// Update returns a new version with element i replaced by val, copying
// the tail leaf or path-copying one trie node per level, and the root —
// or mutating in place where the edit context owns the nodes.
func (v Vector) Update(i uint64, val uint64) Vector {
	root := v.root()
	var r vecRoot
	readRoot(v.h, v.ed, v.ed.Scratch(), root, &r)
	if i >= r.count {
		panic(fmt.Sprintf("funcds: vector update index %d out of range (len %d)", i, r.count))
	}
	rec := v.record(RecVecUpdate, i, val)
	ref, height := 0, uint32(0) // the tail, a leaf
	var p vecPath
	if i < tailOffset(r.count) {
		p = indexPath(i, r.height)
		ref, height = 1+p[r.height], r.height-1
	}
	next := v.setRootRef(root, &r, ref, v.assoc(r.refs[ref], height, &p, i, val), r.count)
	return v.advance(next, root, rec)
}

// assoc sets element i, whose path is p, below node, a subtree of the
// given height.
func (v Vector) assoc(node pmem.Addr, height uint32, p *vecPath, i uint64, val uint64) pmem.Addr {
	if height == 0 {
		if v.ed.Owns(node) {
			v.h.Device().WriteU64(node+pmem.Addr((i&leafMask)*8), val)
			recordEdit(v.ed, node+pmem.Addr((i&leafMask)*8), 8, v.sel)
			return node
		}
		slots := readLeaf(v.h, v.ed, v.ed.Scratch(), node)
		slots[i&leafMask] = val
		return writeLeaf(v.h, v.ed, v.sel, slots)
	}
	idx := p[height]
	child := childOf(v.h, node, idx)
	newChild := v.assoc(child, height-1, p, i, val)
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
	root := v.root()
	var r vecRoot
	readRoot(v.h, v.ed, v.ed.Scratch(), root, &r)
	rec := v.record(RecVecPush, val, 0)
	if r.count == 0 {
		next := v.setRootRef(root, &r, 0, newVecLeaf(v.h, v.ed, v.sel, []uint64{val}), 1)
		return v.advance(next, root, rec)
	}
	if tailLen := r.count - tailOffset(r.count); tailLen < leafWidth {
		tail := r.refs[0]
		if v.ed.Owns(tail) {
			v.h.Device().WriteU64(tail+pmem.Addr(tailLen*8), val)
			recordEdit(v.ed, tail+pmem.Addr(tailLen*8), 8, v.sel)
		} else {
			slots := readLeaf(v.h, v.ed, v.ed.Scratch(), tail)
			slots[tailLen] = val
			tail = writeLeaf(v.h, v.ed, v.sel, slots)
		}
		return v.advance(v.setRootRef(root, &r, 0, tail, r.count+1), root, rec)
	}
	return v.advance(v.spill(root, &r, val), root, rec)
}

// spill appends val to the vector whose root, decoded as r, has a full
// tail: the tail joins the trie and a fresh leaf holding val becomes the
// tail. The trie takes a reference of its own on the old tail. An
// edit-owned root whose height stays and whose block has room for its
// children is rewritten in place and drops its tail reference; otherwise
// spill builds a new root, which counts every reference it shares with
// root — a spill changes two references, more than a borrow records — and
// leaves root as it was.
func (v Vector) spill(root pmem.Addr, r *vecRoot, val uint64) pmem.Addr {
	old := *r
	to := tailOffset(r.count) // index the full tail's elements start at
	tail := old.refs[0]
	v.h.RetainRef(tail)
	r.count++
	r.refs[0] = newVecLeaf(v.h, v.ed, v.sel, []uint64{val})
	fresh := 0 // the child reference spill built, if any
	p := indexPath(to, r.height)
	switch i := 1 + p[r.height]; {
	case to == vecSpan[r.height]:
		// The trie is full: grow a level over a node holding the root's
		// children, which counts a reference on each.
		var kids [vecWidth]pmem.Addr
		for j, c := range old.kids() {
			v.h.RetainRef(c)
			kids[j] = c
		}
		r.refs[1], r.refs[2] = writeNode(v.h, v.ed, v.sel, kids), v.wrapLeaf(r.height, tail)
		r.height++
		r.k = 2
		return writeRoot(v.h, v.ed, v.sel, r)
	case i == 1+r.k:
		// Whole subtree at i is missing: graft a singleton path.
		r.refs[i] = v.wrapLeaf(r.height-1, tail)
		r.k++
		fresh = i
	default:
		if c := v.pushLeaf(r.refs[i], r.height-1, &p, to, tail); c != r.refs[i] {
			r.refs[i] = c
			fresh = i
		}
	}

	if v.ed.Owns(root) && int(rootRef(1+r.k)) <= v.h.PayloadSize(root) {
		v.h.Settle(root)
		dev := v.h.Device()
		dev.WriteU64(root, r.count)
		dev.WriteU32(root+rootRef(0), ref32(r.refs[0]))
		if fresh > 0 {
			dev.WriteU32(root+rootRef(fresh), ref32(r.refs[fresh]))
		}
		if !v.sel {
			v.ed.RecordNode(root, int(rootRef(1+r.k))) // a new child widens what the checksum covers
		}
		v.ed.NoteCopyElided()
		v.h.Release(tail)
		if fresh > 0 && fresh <= old.k {
			v.h.Release(old.refs[fresh])
		}
		return root
	}
	for i, c := range r.refs[1 : 1+r.k] {
		if 1+i != fresh {
			v.h.RetainRef(c)
		}
	}
	return writeRoot(v.h, v.ed, v.sel, r)
}

// wrapLeaf wraps a leaf in singleton interior nodes so it roots a subtree
// of the given height (0 returns the leaf itself).
func (v Vector) wrapLeaf(height uint32, leaf pmem.Addr) pmem.Addr {
	node := leaf
	for ; height > 0; height-- {
		node = writeNode(v.h, v.ed, v.sel, [vecWidth]pmem.Addr{node})
	}
	return node
}

// pushLeaf inserts the full tail leaf at trie index to (a multiple of 8),
// whose path is p, below node, an interior node of height > 0 whose
// subtree is not full, path-copying — or mutating in place where owned —
// one node per level. The leaf's reference transfers in.
func (v Vector) pushLeaf(node pmem.Addr, height uint32, p *vecPath, to uint64, leaf pmem.Addr) pmem.Addr {
	idx := p[height]
	if height == 1 {
		// Children of this node are leaves; slot idx is empty.
		return v.replaceChild(node, idx, leaf, pmem.Nil)
	}
	if to%vecSpan[height-1] == 0 {
		// Whole subtree at idx is missing: graft a singleton path.
		return v.replaceChild(node, idx, v.wrapLeaf(height-1, leaf), pmem.Nil)
	}
	child := childOf(v.h, node, idx)
	newChild := v.pushLeaf(child, height-1, p, to, leaf)
	if newChild == child {
		return node
	}
	return v.replaceChild(node, idx, newChild, child)
}

// Elements returns the vector contents, reading each leaf once: the trie
// left to right, then the tail.
func (v Vector) Elements() []uint64 {
	var sc alloc.Scratch
	var r vecRoot
	readRoot(v.h, v.ed, &sc, v.root(), &r)
	out := make([]uint64, 0, r.count)
	if r.count == 0 {
		return out
	}
	var walk func(node pmem.Addr, height uint32)
	walk = func(node pmem.Addr, height uint32) {
		if height == 0 {
			leaf := readLeaf(v.h, v.ed, &sc, node)
			out = append(out, leaf[:]...)
			return
		}
		for _, c := range readNode(v.h, v.ed, &sc, node) {
			if c == pmem.Nil {
				break // children fill left to right
			}
			walk(c, height-1)
		}
	}
	for _, c := range r.kids() {
		walk(c, r.height-1)
	}
	last := readLeaf(v.h, v.ed, &sc, r.refs[0])
	return append(out, last[:r.count-tailOffset(r.count)]...)
}

// walkVecRoot visits a root's children and tail. Recovery's mark pass
// walks a root before verification checks it, so the walk reads no
// child slot past what the block's checksum covers: a damaged count or
// height must leave the root for verification to report, not send the
// walk into the block behind it.
func walkVecRoot(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	k := min((h.Extent(a, sc)-int(rootRef(1)))/refSize, vecWidth)
	pre := h.ReadCached(a, int(rootRef(1)), nil, sc)
	if count, height := binary.LittleEndian.Uint64(pre), binary.LittleEndian.Uint32(pre[8:]); validHeight(height) {
		k = min(k, rootKids(count, height))
	}
	refs := h.ReadCached(a, int(rootRef(1+max(k, 0))), nil, sc)
	for i := 0; i <= k; i++ {
		if c := getRef(refs[rootRef(i):]); c != pmem.Nil {
			visit(c)
		}
	}
}

func walkVecNode(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	for _, c := range readNode(h, nil, sc, a) {
		if c != pmem.Nil {
			visit(c)
		}
	}
}
