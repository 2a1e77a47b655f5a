package funcds

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Map is a purely functional hash map from byte-string keys to byte-string
// values, implemented as a Compressed Hash-Array Mapped Prefix-tree
// (CHAMP, Steindorfer & Vinju), the structure the paper uses for its map
// and set datastructures (§4.2). Nodes carry two bitmaps — one for inline
// key/value entries, one for child nodes — so the trie is broad (32-way)
// but shallow, and an update path-copies only O(log32 n) small nodes.
//
// Layouts (ref = 4-byte node reference, funcds.go):
//
//	root      (TagMapRoot):      [count u64][dataMap u32][nodeMap u32]
//	                             d × [binding ref] c × [child ref]
//	node      (TagMapNode):      [dataMap u32][nodeMap u32]
//	                             d × [binding ref] c × [child ref]
//	collision (TagMapCollision): [n u32][pad u32] n × [binding ref]
//
// A plain map's version is its root node (heap layout v12): root cells,
// parent fields, snapshots and stage-slot digests name it, and an update
// writes the new count into the root it copies anyway, so a version costs
// no block of its own. The empty map is a 16-byte root. A selective map's
// version is its header (record.go), whose first word names its root.
//
// A bitmap position is an entry or a child, never both, so d+c <= 32: a
// full node is 136 bytes (a full root 144) whatever its mix. An entry
// names one binding block holding key and value (heap layout v14,
// newPair); a set's bindings hold no value.
//
// The trie is canonical: a node below the root never holds a single
// binding and nothing else — its parent holds that binding inline — so
// after any sequence of updates the trie is the one its keys would build.
type Map struct {
	h    *alloc.Heap
	addr pmem.Addr
	ed   *alloc.Edit
	sel  bool // selective persistence: volatile trie, record chain (record.go)
}

const (
	mapBits        = 5 // hash bits consumed per trie level
	mapWidth       = 1 << mapBits
	mapMask        = mapWidth - 1
	mapNodeHdrSize = 8 // the two bitmaps, or a collision bucket's count word
	// rootPrefix is the count word ahead of a root node's bitmaps.
	rootPrefix = 8
	// collisionShift is the trie depth at which the 64-bit hash is
	// exhausted and equal-hash keys fall into a collision bucket.
	collisionShift = 60
)

// entryOff and childOff locate the i-th entry, and the i-th child of a
// node holding d entries, from the start of the node's bitmaps.
func entryOff(i int) pmem.Addr    { return mapNodeHdrSize + pmem.Addr(i*refSize) }
func childOff(d, i int) pmem.Addr { return entryOff(d) + pmem.Addr(i*refSize) }

// mapNodeSize is the encoded size of a node body with d entries and c
// children (c = 0 for a collision bucket); a root adds rootPrefix.
func mapNodeSize(d, c int) int { return int(childOff(d, c)) }

// nodePrefix is the prefix ahead of the bitmaps of a trie node at shift:
// the root's count word, nothing below it.
func nodePrefix(shift uint) pmem.Addr {
	if shift == 0 {
		return rootPrefix
	}
	return 0
}

// tagPrefix is nodePrefix by a node's tag.
func tagPrefix(tag uint8) pmem.Addr {
	if tag == TagMapRoot {
		return rootPrefix
	}
	return 0
}

func getRef(b []byte) pmem.Addr { return refAddr(binary.LittleEndian.Uint32(b)) }

// NewMap allocates an empty durable map, a root node with no entries
// (flushed, not fenced).
func NewMap(h *alloc.Heap) Map {
	return Map{h: h, addr: buildMapNode(h, nil, false, rootPrefix, 0, 0, 0, nil, nil)}
}

// NewMapSelective allocates an empty selectively persisted map: trie nodes
// stay volatile-clean, every update appends a durable record cell, and the
// empty root is both the live state and the checkpoint (flushed, not
// fenced).
func NewMapSelective(h *alloc.Heap) Map {
	return Map{h: h, addr: selHdrOver(h, NewMap(h).Addr(), TagMapHdrSel), sel: true}
}

// MapAt adopts an existing map version, e.g. after recovery: a root node,
// or a selective header, recognized by its tag.
func MapAt(h *alloc.Heap, addr pmem.Addr) Map {
	return Map{h: h, addr: addr, sel: h.Tag(addr) == TagMapHdrSel}
}

// WithEdit binds the version to a per-FASE edit context (DESIGN.md §8).
func (m Map) WithEdit(ed *alloc.Edit) Map {
	return Map{h: m.h, addr: m.addr, ed: ed, sel: m.sel}
}

// Addr returns the address of this version: its root node, or its
// selective header.
func (m Map) Addr() pmem.Addr { return m.addr }

// Heap returns the owning heap.
func (m Map) Heap() *alloc.Heap { return m.h }

// Len returns the number of entries: the root's count word.
func (m Map) Len() uint64 { return m.h.Device().ReadU64(m.root()) }

// root returns the version's root node: the version itself, or the live
// root its selective header names.
func (m Map) root() pmem.Addr {
	if m.sel {
		return pmem.Addr(m.h.Device().ReadU64(m.addr))
	}
	return m.addr
}

// advance returns the plain version whose root is next. An edit-owned
// receiver is the edit's running version, which nothing else references:
// when next supersedes it, it is released here, so a chain of updates
// under one edit leaves its caller no intermediate version to retire.
func (m Map) advance(next pmem.Addr) Map {
	if next != m.addr && m.ed.Owns(m.addr) {
		m.h.Release(m.addr)
	}
	return Map{h: m.h, addr: next, ed: m.ed}
}

// setSel produces the selective header naming newRoot, with rec at the
// head of its record chain (setSelRoot).
func (m Map) setSel(newRoot, oldRoot, rec pmem.Addr) Map {
	return Map{h: m.h, addr: setSelRoot(m.h, m.ed, m.addr, TagMapHdrSel, newRoot, oldRoot, rec), ed: m.ed, sel: true}
}

// mapNode is a trie node decoded into volatile form. The arrays are
// fixed-size (a node has at most 32 slots of either kind), so a decoded
// node is a plain value in its reader's frame: an update mutates the
// decoded copy and encodes it back out, with no slice to allocate.
type mapNode struct {
	pre              pmem.Addr // rootPrefix for a root, 0 below it
	count            uint64    // a root's entry count; unused below it
	dataMap, nodeMap uint32
	eb, cb           [mapWidth]pmem.Addr // bindings, children
}

func (n *mapNode) entries() []pmem.Addr  { return n.eb[:bits.OnesCount32(n.dataMap)] }
func (n *mapNode) children() []pmem.Addr { return n.cb[:bits.OnesCount32(n.nodeMap)] }

// insertEntry adds e as the di-th entry, under bitmap position bit.
func (n *mapNode) insertEntry(bit uint32, di int, e pmem.Addr) {
	d := len(n.entries())
	copy(n.eb[di+1:d+1], n.eb[di:d])
	n.eb[di] = e
	n.dataMap |= bit
}

// removeEntry drops the di-th entry, at bitmap position bit.
func (n *mapNode) removeEntry(bit uint32, di int) {
	copy(n.eb[di:], n.entries()[di+1:])
	n.dataMap &^= bit
}

// insertChild adds c as the ni-th child, under bitmap position bit.
func (n *mapNode) insertChild(bit uint32, ni int, c pmem.Addr) {
	k := len(n.children())
	copy(n.cb[ni+1:k+1], n.cb[ni:k])
	n.cb[ni] = c
	n.nodeMap |= bit
}

// removeChild drops the ni-th child, at bitmap position bit.
func (n *mapNode) removeChild(bit uint32, ni int) {
	copy(n.cb[ni:], n.children()[ni+1:])
	n.nodeMap &^= bit
}

// readMapNode loads the trie node at a, whose bitmaps follow pre bytes (a
// root's count word), into n with bulk accesses, served from the DRAM node
// cache when it is enabled (edit-owned nodes — still mutable this FASE —
// bypass it).
func readMapNode(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a, pre pmem.Addr, n *mapNode) {
	n.pre = pre
	hdr := h.ReadCached(a, int(pre)+mapNodeHdrSize, ed, sc)
	if pre != 0 {
		n.count = binary.LittleEndian.Uint64(hdr)
	}
	n.dataMap = binary.LittleEndian.Uint32(hdr[pre:])
	n.nodeMap = binary.LittleEndian.Uint32(hdr[pre+4:])
	d := bits.OnesCount32(n.dataMap)
	c := bits.OnesCount32(n.nodeMap)
	if d+c == 0 {
		return
	}
	// Re-read the whole node under its block-start key: the cache is
	// invalidated by payload address on free, so a separate entry keyed
	// mid-block would survive free-and-reallocate and serve stale bytes.
	// (The fixed arrays bound a damaged node's bitmaps: d, c <= 32.)
	node := h.ReadCached(a, int(pre)+mapNodeSize(d, c), ed, sc)[pre:]
	for i := 0; i < d; i++ {
		n.eb[i] = getRef(node[entryOff(i):])
	}
	for i := 0; i < c; i++ {
		n.cb[i] = getRef(node[childOff(d, i):])
	}
}

// putEntries encodes entries into a node image.
func putEntries(node []byte, entries []pmem.Addr) {
	for i, e := range entries {
		binary.LittleEndian.PutUint32(node[entryOff(i):], ref32(e))
	}
}

// buildMapNode allocates, writes, and flushes a trie node (volatile under
// selective persistence): a root carrying count when pre is rootPrefix,
// an interior node when it is 0. Reference transfers are the caller's
// responsibility.
func buildMapNode(h *alloc.Heap, ed *alloc.Edit, vol bool, pre pmem.Addr, count uint64, dataMap, nodeMap uint32, entries, children []pmem.Addr) pmem.Addr {
	size := int(pre) + mapNodeSize(len(entries), len(children))
	tag := TagMapNode
	if pre != 0 {
		tag = TagMapRoot
	}
	a := nodeAlloc(h, ed, size, tag, vol)
	buf := ed.Scratch().Bytes(size)
	if pre != 0 {
		binary.LittleEndian.PutUint64(buf, count)
	}
	body := buf[pre:]
	binary.LittleEndian.PutUint32(body, dataMap)
	binary.LittleEndian.PutUint32(body[4:], nodeMap)
	putEntries(body, entries)
	for i, c := range children {
		binary.LittleEndian.PutUint32(body[childOff(len(entries), i):], ref32(c))
	}
	h.Device().Write(a, buf)
	flushNode(h, ed, a, size, vol)
	return a
}

// build encodes the decoded (and possibly mutated) node as a new block.
func (n *mapNode) build(h *alloc.Heap, ed *alloc.Edit, vol bool) pmem.Addr {
	return buildMapNode(h, ed, vol, n.pre, n.count, n.dataMap, n.nodeMap, n.entries(), n.children())
}

// buildCollision allocates, writes, and flushes a collision bucket
// (volatile under selective persistence).
func buildCollision(h *alloc.Heap, ed *alloc.Edit, vol bool, entries []pmem.Addr) pmem.Addr {
	size := mapNodeSize(len(entries), 0)
	a := nodeAlloc(h, ed, size, TagMapCollision, vol)
	buf := ed.Scratch().Bytes(size)
	binary.LittleEndian.PutUint32(buf, uint32(len(entries)))
	binary.LittleEndian.PutUint32(buf[4:], 0)
	putEntries(buf, entries)
	h.Device().Write(a, buf)
	flushNode(h, ed, a, size, vol)
	return a
}

// collisionInline is the bucket size a reader's frame holds; a larger
// bucket (more than four keys sharing one 64-bit hash) spills to the Go
// heap through append.
const collisionInline = 4

// readCollision appends the bucket's entries to dst and returns it.
func readCollision(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a pmem.Addr, dst []pmem.Addr) []pmem.Addr {
	hdr := h.ReadCached(a, mapNodeHdrSize, ed, sc)
	n := int(binary.LittleEndian.Uint32(hdr))
	if n == 0 {
		return dst
	}
	// Whole-node read under the block-start key; see readMapNode.
	node := h.ReadCached(a, mapNodeSize(n, 0), ed, sc)
	for i := 0; i < n; i++ {
		dst = append(dst, getRef(node[entryOff(i):]))
	}
	return dst
}

// checkRefs requires every reference in refs to name a block, as a read
// through it would (alloc.Heap.CheckRef): a path copy carries the
// references it does not change into a new node without following them,
// and a damaged one must not be published a second time.
func checkRefs(h *alloc.Heap, refs []pmem.Addr) {
	for _, r := range refs {
		h.CheckRef(r)
	}
}

// copyOf builds the decoded and since mutated node n as a path copy of
// the node at src. The copy borrows what it shares with src instead of
// counting it (alloc/borrow.go): srcOnly is the reference n dropped,
// dstOnly the one it gained, either Nil for none; the caller's reference
// on dstOnly transfers into the copy.
func (m Map) copyOf(src pmem.Addr, n *mapNode, srcOnly, dstOnly pmem.Addr) pmem.Addr {
	checkRefs(m.h, n.entries())
	checkRefs(m.h, n.children())
	dst := n.build(m.h, m.ed, m.sel)
	m.h.Borrow(src, dst, srcOnly, dstOnly)
	return dst
}

// collisionCopyOf is copyOf for a collision bucket.
func (m Map) collisionCopyOf(src pmem.Addr, entries []pmem.Addr, srcOnly, dstOnly pmem.Addr) pmem.Addr {
	checkRefs(m.h, entries)
	dst := buildCollision(m.h, m.ed, m.sel, entries)
	m.h.Borrow(src, dst, srcOnly, dstOnly)
	return dst
}

// Get returns the value stored under key. The descent reads only the
// node bitmaps (one 8-byte word) and the one relevant slot per level — a
// 4-byte child or binding reference — not the whole node, matching how a
// real CHAMP lookup touches memory, and then the one binding block. It
// starts at the root node, which holds no collision bucket, so the root's
// tag is not read.
func (m Map) Get(key []byte) ([]byte, bool) {
	dev := m.h.Device()
	sc := m.ed.Scratch()
	hash := hash64(key)
	node, pre := m.root(), pmem.Addr(rootPrefix)
	shift := uint(0)
	for {
		// The slot reads below bypass the verified node-read funnel
		// (ReadCached), so the reference that led here and the node
		// behind it are checked before anything in it is followed.
		m.h.VerifyRef(node)
		if pre == 0 && m.h.Tag(node) == TagMapCollision {
			var cbuf [collisionInline]pmem.Addr
			for _, e := range readCollision(m.h, m.ed, sc, node, cbuf[:0]) {
				if k, v := pairAt(m.h, sc, e); bytes.Equal(k, key) {
					return detached(sc, v), true
				}
			}
			return nil, false
		}
		maps := dev.ReadU64(node + pre)
		dataMap, nodeMap := uint32(maps), uint32(maps>>32)
		bit := uint32(1) << ((hash >> shift) & mapMask)
		switch {
		case dataMap&bit != 0:
			di := bits.OnesCount32(dataMap & (bit - 1))
			k, v := pairAt(m.h, sc, refAddr(dev.ReadU32(node+pre+entryOff(di))))
			if !bytes.Equal(k, key) {
				return nil, false
			}
			return detached(sc, v), true
		case nodeMap&bit != 0:
			d := bits.OnesCount32(dataMap)
			ni := bits.OnesCount32(nodeMap & (bit - 1))
			node = refAddr(dev.ReadU32(node + pre + childOff(d, ni)))
			pre = 0
			shift += mapBits
		default:
			return nil, false
		}
	}
}

// detached returns a value pairAt read through sc as a slice of the
// caller's own: a copy, unless sc is nil and the read made one already.
func detached(sc *alloc.Scratch, v []byte) []byte {
	if sc == nil {
		return v[:len(v):len(v)]
	}
	return bytes.Clone(v)
}

// Contains reports whether key is present.
func (m Map) Contains(key []byte) bool {
	_, ok := m.Get(key)
	return ok
}

// Set returns a new version with key bound to val, and whether an existing
// binding was replaced. Pass a nil val for set semantics (no value). The
// binding is one new block, which a replaced binding's slot takes over —
// except that a set member set again keeps the block it has.
func (m Map) Set(key, val []byte) (Map, bool) {
	return m.setPair(key, val, pmem.Nil)
}

// setPair is Set of key to val, or, when p is not Nil, of key to the
// binding block p, whose reference transfers into the new version. A
// selective map's record cell names the binding the trie ends up holding.
func (m Map) setPair(key, val []byte, p pmem.Addr) (Map, bool) {
	root := m.root()
	newRoot, p, replaced := m.insertRec(root, 0, hash64(key), key, val, p)
	if !m.sel {
		return m.advance(newRoot), replaced
	}
	_, oldRec, _ := readSelExt(m.h, m.addr, selRootBase)
	rec := newRecord(m.h, m.ed, oldRec, RecMapSet, uint64(p), 0)
	return m.setSel(newRoot, root, rec), replaced
}

// setSlot overwrites the reference slot at node+off of an edit-owned node
// in place and drops the node's reference to the block it displaced. A
// node that borrows from the node it was copied from takes its own
// references first (alloc.Heap.Settle): the one it displaces may be shared.
func (m Map) setSlot(node, off pmem.Addr, v, displaced pmem.Addr) {
	m.h.Settle(node)
	m.h.Device().WriteU32(node+off, ref32(v))
	recordEdit(m.ed, node+off, refSize, m.sel)
	m.h.Release(displaced)
}

// replaceChild produces the node at node, decoded as n, with its ni-th
// child replaced by newChild — child itself when the update went in place
// below — and, for a root whose count the update changed (counted), the
// count n carries: the node unchanged when neither changed, rewritten in
// place when the edit owns it, a path copy otherwise. The reference on
// newChild transfers in.
func (m Map) replaceChild(node pmem.Addr, n *mapNode, ni int, child, newChild pmem.Addr, counted bool) pmem.Addr {
	counted = counted && n.pre != 0
	if newChild == child && !counted {
		return node
	}
	if m.ed.Owns(node) {
		if counted {
			m.h.Device().WriteU64(node, n.count)
		}
		if newChild == child {
			recordEdit(m.ed, node, rootPrefix, m.sel)
			return node
		}
		m.setSlot(node, n.pre+childOff(len(n.entries()), ni), newChild, child)
		if counted && !m.sel {
			m.ed.Record(node, rootPrefix)
		}
		return node
	}
	if newChild == child {
		return m.copyOf(node, n, pmem.Nil, pmem.Nil)
	}
	n.cb[ni] = newChild
	return m.copyOf(node, n, child, newChild)
}

// insertRec returns a new node with key bound, the binding block it holds
// for key, and whether that replaced a binding of key. The binding is p
// when p is not Nil, else one built from val where the trie takes it in:
// a set member set again keeps its block, and only the path is copied, as
// for any Set. A new binding's reference transfers into the new trie. At
// shift 0 node is the root, and the result carries the new count.
func (m Map) insertRec(node pmem.Addr, shift uint, hash uint64, key, val []byte, p pmem.Addr) (pmem.Addr, pmem.Addr, bool) {
	h, sc := m.h, m.ed.Scratch()
	if shift != 0 && h.Tag(node) == TagMapCollision {
		var cbuf [collisionInline]pmem.Addr
		entries := readCollision(h, m.ed, sc, node, cbuf[:0])
		for i, e := range entries {
			if k, v := pairAt(h, sc, e); bytes.Equal(k, key) {
				if p == pmem.Nil && val == nil && v == nil { // a member kept
					if m.ed.Owns(node) {
						return node, e, true
					}
					return m.collisionCopyOf(node, entries, pmem.Nil, pmem.Nil), e, true
				}
				p = m.pair(key, val, p)
				if m.ed.Owns(node) {
					m.setSlot(node, entryOff(i), p, e)
					return node, p, true
				}
				entries[i] = p
				return m.collisionCopyOf(node, entries, e, p), p, true
			}
		}
		p = m.pair(key, val, p)
		entries = append(entries, p)
		return m.collisionCopyOf(node, entries, pmem.Nil, p), p, false
	}

	var n mapNode
	readMapNode(h, m.ed, sc, node, nodePrefix(shift), &n)
	bit := uint32(1) << ((hash >> shift) & mapMask)
	di := bits.OnesCount32(n.dataMap & (bit - 1))
	ni := bits.OnesCount32(n.nodeMap & (bit - 1))

	switch {
	case n.dataMap&bit != 0:
		e := n.eb[di]
		k, v := pairAt(h, sc, e)
		if bytes.Equal(k, key) {
			if p == pmem.Nil && val == nil && v == nil { // a member kept
				if m.ed.Owns(node) {
					return node, e, true
				}
				return m.copyOf(node, &n, pmem.Nil, pmem.Nil), e, true
			}
			p = m.pair(key, val, p)
			if m.ed.Owns(node) {
				// Same shape: a single in-place slot write.
				m.setSlot(node, n.pre+entryOff(di), p, e)
				return node, p, true
			}
			// Replace the binding (new node, same shape).
			n.eb[di] = p
			return m.copyOf(node, &n, e, p), p, true
		}
		// Hash conflict at this level: push both entries one level down.
		// The node's shape changes, so an owned node is rebuilt too (its
		// replacement transfers in via the parent's in-place slot write).
		// The subtree is a new parent of the displaced binding; the copy
		// of this node no longer holds it itself. (k lives in sc, which
		// the new binding's write reuses: hash it first.)
		exHash := hash64(k)
		p = m.pair(key, val, p)
		h.RetainRef(e)
		sub := m.mergeTwo(shift+mapBits, e, exHash, p, hash)
		n.removeEntry(bit, di)
		n.insertChild(bit, ni, sub)
		n.count++
		return m.copyOf(node, &n, e, sub), p, false

	case n.nodeMap&bit != 0:
		child := n.cb[ni]
		newChild, p, replaced := m.insertRec(child, shift+mapBits, hash, key, val, p)
		if !replaced {
			n.count++
		}
		return m.replaceChild(node, &n, ni, child, newChild, !replaced), p, replaced

	default:
		p = m.pair(key, val, p)
		n.insertEntry(bit, di, p)
		n.count++
		return m.copyOf(node, &n, pmem.Nil, p), p, false
	}
}

// pair returns p, or when it is Nil the new binding of key to val.
func (m Map) pair(key, val []byte, p pmem.Addr) pmem.Addr {
	if p == pmem.Nil {
		p = newPair(m.h, m.ed, key, val)
	}
	return p
}

// mergeTwo builds the smallest subtree separating two distinct keys whose
// hashes collide at the parent level. Both bindings' references transfer
// into the result (the caller retains the pre-existing one beforehand).
func (m Map) mergeTwo(shift uint, e1 pmem.Addr, h1 uint64, e2 pmem.Addr, h2 uint64) pmem.Addr {
	h := m.h
	if shift >= collisionShift {
		return buildCollision(h, m.ed, m.sel, []pmem.Addr{e1, e2})
	}
	i1 := uint32((h1 >> shift) & mapMask)
	i2 := uint32((h2 >> shift) & mapMask)
	if i1 == i2 {
		sub := m.mergeTwo(shift+mapBits, e1, h1, e2, h2)
		return buildMapNode(h, m.ed, m.sel, 0, 0, 0, uint32(1)<<i1, nil, []pmem.Addr{sub})
	}
	if i1 < i2 {
		return buildMapNode(h, m.ed, m.sel, 0, 0, uint32(1)<<i1|uint32(1)<<i2, 0, []pmem.Addr{e1, e2}, nil)
	}
	return buildMapNode(h, m.ed, m.sel, 0, 0, uint32(1)<<i1|uint32(1)<<i2, 0, []pmem.Addr{e2, e1}, nil)
}

// Delete returns a new version without key, and whether the key was
// present. Deleting an absent key returns the receiver unchanged with no
// new version allocated.
func (m Map) Delete(key []byte) (Map, bool) {
	root := m.root()
	newRoot, _, gone := m.deleteRec(root, 0, hash64(key), key)
	if gone == pmem.Nil {
		return m, false
	}
	if !m.sel {
		return m.advance(newRoot), true
	}
	// The record names the removed binding, which deleteRec kept alive for
	// it: newRecord takes its own reference, so that one is dropped here.
	_, oldRec, _ := readSelExt(m.h, m.addr, selRootBase)
	rec := newRecord(m.h, m.ed, oldRec, RecMapDelete, uint64(gone), 0)
	m.h.Release(gone)
	return m.setSel(newRoot, root, rec), true
}

// deleteRec removes key below node. It returns what takes node's place in
// its parent — a node or, with lone set, the one binding left in a
// subtree below the root, which an ancestor holds inline — and the removed
// binding, Nil when key is absent. A selective map's removed binding
// carries a reference for its record. In a canonical trie no node below
// the root holds fewer than two bindings, so none empties.
func (m Map) deleteRec(node pmem.Addr, shift uint, hash uint64, key []byte) (res pmem.Addr, lone bool, gone pmem.Addr) {
	h, sc := m.h, m.ed.Scratch()
	if shift != 0 && h.Tag(node) == TagMapCollision {
		var cbuf [collisionInline]pmem.Addr
		entries := readCollision(h, m.ed, sc, node, cbuf[:0])
		for i, e := range entries {
			if k, _ := pairAt(h, sc, e); bytes.Equal(k, key) {
				m.keepRemoved(e)
				entries = append(entries[:i], entries[i+1:]...)
				if len(entries) == 1 {
					return entries[0], true, e
				}
				return m.collisionCopyOf(node, entries, e, pmem.Nil), false, e
			}
		}
		return pmem.Nil, false, pmem.Nil
	}

	var n mapNode
	readMapNode(h, m.ed, sc, node, nodePrefix(shift), &n)
	bit := uint32(1) << ((hash >> shift) & mapMask)
	di := bits.OnesCount32(n.dataMap & (bit - 1))
	ni := bits.OnesCount32(n.nodeMap & (bit - 1))

	switch {
	case n.dataMap&bit != 0:
		e := n.eb[di]
		if k, _ := pairAt(h, sc, e); !bytes.Equal(k, key) {
			return pmem.Nil, false, pmem.Nil
		}
		m.keepRemoved(e)
		n.removeEntry(bit, di)
		n.count--
		return m.shrunk(node, &n, e, pmem.Nil), n.lone(), e

	case n.nodeMap&bit != 0:
		child := n.cb[ni]
		res, lone, gone := m.deleteRec(child, shift+mapBits, hash, key)
		if gone == pmem.Nil {
			return pmem.Nil, false, pmem.Nil
		}
		n.count--
		if !lone {
			return m.replaceChild(node, &n, ni, child, res, true), false, gone
		}
		n.removeChild(bit, ni)
		n.insertEntry(bit, di, res)
		return m.shrunk(node, &n, child, res), n.lone(), gone

	default:
		return pmem.Nil, false, pmem.Nil
	}
}

// keepRemoved gives a selective map's record a reference on the binding a
// delete removes, before the path copy can drop the last one.
func (m Map) keepRemoved(e pmem.Addr) {
	if m.sel {
		m.h.RetainRef(e)
	}
}

// lone reports whether n, a node below the root, holds one binding and
// nothing else: its parent holds that binding inline instead.
func (n *mapNode) lone() bool {
	return n.pre == 0 && n.nodeMap == 0 && len(n.entries()) == 1
}

// shrunk ends a delete at node, decoded as n after the delete took dropped
// out of it and put the inlined binding added (or Nil) in: n's one binding
// when it is lone (passed up; no node is built), a path copy otherwise.
func (m Map) shrunk(node pmem.Addr, n *mapNode, dropped, added pmem.Addr) pmem.Addr {
	if n.lone() {
		return n.eb[0]
	}
	if added != pmem.Nil {
		m.h.RetainRef(added)
	}
	return m.copyOf(node, n, dropped, added)
}

// Range calls f for every entry until f returns false. Iteration order is
// trie order (effectively hash order). Values are nil for set members.
func (m Map) Range(f func(key, val []byte) bool) {
	m.rangeRec(m.root(), rootPrefix, f)
}

func (m Map) rangeRec(node, pre pmem.Addr, f func(key, val []byte) bool) bool {
	h, sc := m.h, m.ed.Scratch()
	entries := func(es []pmem.Addr) bool {
		for _, e := range es {
			k, v := pairAt(h, sc, e)
			if !f(bytes.Clone(k), bytes.Clone(v)) {
				return false
			}
		}
		return true
	}
	if pre == 0 && h.Tag(node) == TagMapCollision {
		var cbuf [collisionInline]pmem.Addr
		return entries(readCollision(h, m.ed, sc, node, cbuf[:0]))
	}
	var n mapNode
	readMapNode(h, m.ed, sc, node, pre, &n)
	if !entries(n.entries()) {
		return false
	}
	for _, c := range n.children() {
		if !m.rangeRec(c, 0, f) {
			return false
		}
	}
	return true
}

func walkMapRoot(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	walkTrieNode(h, a, rootPrefix, sc, visit)
}

func walkMapNode(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	walkTrieNode(h, a, 0, sc, visit)
}

func walkTrieNode(h *alloc.Heap, a, pre pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	var n mapNode
	readMapNode(h, nil, sc, a, pre, &n)
	for _, e := range n.entries() {
		visit(e)
	}
	for _, c := range n.children() {
		visit(c)
	}
}

func walkMapCollision(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	var cbuf [collisionInline]pmem.Addr
	for _, e := range readCollision(h, nil, sc, a, cbuf[:0]) {
		visit(e)
	}
}

// Set is a purely functional hash set of byte-string keys, a Map whose
// value slots are Nil (§4.2 lists set among the CHAMP-backed structures).
type Set struct{ m Map }

// NewSet allocates an empty durable set.
func NewSet(h *alloc.Heap) Set { return Set{m: NewMap(h)} }

// NewSetSelective allocates an empty selectively persisted set.
func NewSetSelective(h *alloc.Heap) Set { return Set{m: NewMapSelective(h)} }

// SetDSAt adopts an existing set version, e.g. after recovery.
func SetDSAt(h *alloc.Heap, addr pmem.Addr) Set { return Set{m: MapAt(h, addr)} }

// WithEdit binds the version to a per-FASE edit context (DESIGN.md §8).
func (s Set) WithEdit(ed *alloc.Edit) Set { return Set{m: s.m.WithEdit(ed)} }

// Addr returns the address of this version (see Map.Addr).
func (s Set) Addr() pmem.Addr { return s.m.Addr() }

// Heap returns the owning heap.
func (s Set) Heap() *alloc.Heap { return s.m.Heap() }

// Len returns the number of members.
func (s Set) Len() uint64 { return s.m.Len() }

// Insert returns a new version containing key and whether key was already
// a member.
func (s Set) Insert(key []byte) (Set, bool) {
	m, existed := s.m.Set(key, nil)
	return Set{m: m}, existed
}

// Contains reports membership.
func (s Set) Contains(key []byte) bool { return s.m.Contains(key) }

// Delete returns a new version without key and whether it was a member.
func (s Set) Delete(key []byte) (Set, bool) {
	m, removed := s.m.Delete(key)
	return Set{m: m}, removed
}

// Range calls f for every member until f returns false.
func (s Set) Range(f func(key []byte) bool) {
	s.m.Range(func(k, _ []byte) bool { return f(k) })
}
