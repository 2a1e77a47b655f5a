package funcds

import (
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
//	header    (TagMapHdr):       [count u64][root u64]
//	node      (TagMapNode):      [dataMap u32][nodeMap u32]
//	                             d × [keyBlob ref][valBlob ref]
//	                             c × [child ref]
//	collision (TagMapCollision): [n u32][pad u32] n × [keyBlob ref][valBlob ref]
//
// A bitmap position is an entry or a child, never both, so d+c <= 32: a
// full 32-child node is 136 bytes and the widest node (32 entries) 264.
// Keys and values are boxed in Blob blocks; a set stores Nil value slots.
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
	mapHdrSize     = 16
	mapNodeHdrSize = 8           // the two bitmaps, or a collision bucket's count word
	mapEntrySize   = 2 * refSize // [keyBlob ref][valBlob ref]
	// collisionShift is the trie depth at which the 64-bit hash is
	// exhausted and equal-hash keys fall into a collision bucket.
	collisionShift = 60
)

type mapEntry struct{ key, val pmem.Addr }

// entryOff and childOff locate the i-th entry, and the i-th child of a
// node holding d entries, from the node's payload address.
func entryOff(i int) pmem.Addr    { return mapNodeHdrSize + pmem.Addr(i*mapEntrySize) }
func childOff(d, i int) pmem.Addr { return entryOff(d) + pmem.Addr(i*refSize) }

// mapNodeSize is the encoded size of a node with d entries and c children
// (c = 0 for a collision bucket).
func mapNodeSize(d, c int) int { return int(childOff(d, c)) }

func getEntry(b []byte) mapEntry {
	return mapEntry{refAddr(binary.LittleEndian.Uint32(b)), refAddr(binary.LittleEndian.Uint32(b[refSize:]))}
}

// NewMap allocates an empty durable map (flushed, not fenced).
func NewMap(h *alloc.Heap) Map {
	a := h.AllocNode(mapHdrSize, TagMapHdr)
	h.Device().Zero(a, mapHdrSize)
	h.SealNode(a, mapHdrSize)
	return Map{h: h, addr: a}
}

// NewMapSelective allocates an empty selectively persisted map: trie nodes
// stay volatile-clean, every update appends a durable record cell, and the
// checkpoint clone starts as an empty normal map (flushed, not fenced).
func NewMapSelective(h *alloc.Heap) Map {
	ckpt := NewMap(h).Addr()
	a := h.AllocNode(mapHdrSize+selExtSize, TagMapHdrSel)
	h.Device().Zero(a, mapHdrSize)
	writeSelExt(h, a, mapHdrSize, ckpt, pmem.Nil, 0)
	h.SealNode(a, mapHdrSize+selExtSize)
	return Map{h: h, addr: a, sel: true}
}

// MapAt adopts an existing map header, e.g. after recovery. The selective
// variant is recognized by its tag.
func MapAt(h *alloc.Heap, addr pmem.Addr) Map {
	return Map{h: h, addr: addr, sel: h.Tag(addr) == TagMapHdrSel}
}

// WithEdit binds the version to a per-FASE edit context (DESIGN.md §8).
func (m Map) WithEdit(ed *alloc.Edit) Map {
	return Map{h: m.h, addr: m.addr, ed: ed, sel: m.sel}
}

// Addr returns the header address of this version.
func (m Map) Addr() pmem.Addr { return m.addr }

// Heap returns the owning heap.
func (m Map) Heap() *alloc.Heap { return m.h }

// Len returns the number of entries.
func (m Map) Len() uint64 { return m.h.Device().ReadU64(m.addr) }

func (m Map) root() pmem.Addr { return pmem.Addr(m.h.Device().ReadU64(m.addr + 8)) }

func newMapHdr(h *alloc.Heap, ed *alloc.Edit, count uint64, root pmem.Addr) pmem.Addr {
	a := nodeAlloc(h, ed, mapHdrSize, TagMapHdr, false)
	dev := h.Device()
	dev.WriteU64(a, count)
	dev.WriteU64(a+8, uint64(root))
	flushNode(h, ed, a, mapHdrSize, false)
	return a
}

// setHdr produces a map header with the given count and root: an in-place
// rewrite when the receiver's header is edit-owned (releasing its
// reference to a displaced old root), a fresh header otherwise. The new
// root's reference transfers in. Selective maps additionally install rec
// at the head of the record chain (rec already holds a reference on the
// previous head, so the old header's own reference is dropped in the
// in-place case).
func (m Map) setHdr(count uint64, newRoot, oldRoot, rec pmem.Addr) Map {
	if m.ed.Owns(m.addr) {
		dev := m.h.Device()
		dev.WriteU64(m.addr, count)
		dev.WriteU64(m.addr+8, uint64(newRoot))
		size := mapHdrSize
		if m.sel {
			ckpt, oldRec, recCount := readSelExt(m.h, m.addr, mapHdrSize)
			writeSelExt(m.h, m.addr, mapHdrSize, ckpt, rec, recCount+1)
			size += selExtSize
			if oldRec != pmem.Nil {
				m.h.Release(oldRec)
			}
		}
		recordEdit(m.ed, m.addr, size, false)
		if newRoot != oldRoot {
			m.h.Release(oldRoot)
		}
		return m
	}
	if newRoot == oldRoot && newRoot != pmem.Nil {
		// Deep in-place update left the root pointer unchanged; the new
		// header is a second parent.
		m.h.Retain(newRoot)
	}
	if m.sel {
		ckpt, _, recCount := readSelExt(m.h, m.addr, mapHdrSize)
		hdr := nodeAlloc(m.h, m.ed, mapHdrSize+selExtSize, TagMapHdrSel, false)
		dev := m.h.Device()
		dev.WriteU64(hdr, count)
		dev.WriteU64(hdr+8, uint64(newRoot))
		writeSelExt(m.h, hdr, mapHdrSize, ckpt, rec, recCount+1)
		flushNode(m.h, m.ed, hdr, mapHdrSize+selExtSize, false)
		m.h.Retain(ckpt)
		return Map{h: m.h, addr: hdr, ed: m.ed, sel: true}
	}
	hdr := newMapHdr(m.h, m.ed, count, newRoot)
	return Map{h: m.h, addr: hdr, ed: m.ed}
}

// mapNode is a trie node decoded into volatile form. The arrays are
// fixed-size (a node has at most 32 slots of either kind), so a decoded
// node is a plain value in its reader's frame: an update mutates the
// decoded copy and encodes it back out, with no slice to allocate.
type mapNode struct {
	dataMap, nodeMap uint32
	eb               [mapWidth]mapEntry
	cb               [mapWidth]pmem.Addr
}

func (n *mapNode) entries() []mapEntry   { return n.eb[:bits.OnesCount32(n.dataMap)] }
func (n *mapNode) children() []pmem.Addr { return n.cb[:bits.OnesCount32(n.nodeMap)] }

// insertEntry adds e as the di-th entry, under bitmap position bit.
func (n *mapNode) insertEntry(bit uint32, di int, e mapEntry) {
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

// readMapNode loads a trie node into n with bulk accesses, served from
// the DRAM node cache when it is enabled (edit-owned nodes — still
// mutable this FASE — bypass it).
func readMapNode(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a pmem.Addr, n *mapNode) {
	hdr := h.ReadCached(a, mapNodeHdrSize, ed, sc)
	n.dataMap = binary.LittleEndian.Uint32(hdr)
	n.nodeMap = binary.LittleEndian.Uint32(hdr[4:])
	d := bits.OnesCount32(n.dataMap)
	c := bits.OnesCount32(n.nodeMap)
	if d+c == 0 {
		return
	}
	// Re-read the whole node under its block-start key: the cache is
	// invalidated by payload address on free, so a separate entry keyed
	// mid-block would survive free-and-reallocate and serve stale bytes.
	// (The fixed arrays bound a damaged node's bitmaps: d, c <= 32.)
	node := h.ReadCached(a, mapNodeSize(d, c), ed, sc)
	for i := 0; i < d; i++ {
		n.eb[i] = getEntry(node[entryOff(i):])
	}
	for i := 0; i < c; i++ {
		n.cb[i] = refAddr(binary.LittleEndian.Uint32(node[childOff(d, i):]))
	}
}

// putEntries encodes entries into a node image.
func putEntries(node []byte, entries []mapEntry) {
	for i, e := range entries {
		binary.LittleEndian.PutUint32(node[entryOff(i):], ref32(e.key))
		binary.LittleEndian.PutUint32(node[entryOff(i)+refSize:], ref32(e.val))
	}
}

// buildMapNode allocates, writes, and flushes a trie node (volatile under
// selective persistence). Reference transfers are the caller's
// responsibility.
func buildMapNode(h *alloc.Heap, ed *alloc.Edit, vol bool, dataMap, nodeMap uint32, entries []mapEntry, children []pmem.Addr) pmem.Addr {
	size := mapNodeSize(len(entries), len(children))
	a := nodeAlloc(h, ed, size, TagMapNode, vol)
	buf := ed.Scratch().Bytes(size)
	binary.LittleEndian.PutUint32(buf, dataMap)
	binary.LittleEndian.PutUint32(buf[4:], nodeMap)
	putEntries(buf, entries)
	for i, c := range children {
		binary.LittleEndian.PutUint32(buf[childOff(len(entries), i):], ref32(c))
	}
	h.Device().Write(a, buf)
	flushNode(h, ed, a, size, vol)
	return a
}

// build encodes the decoded (and possibly mutated) node as a new block.
func (n *mapNode) build(h *alloc.Heap, ed *alloc.Edit, vol bool) pmem.Addr {
	return buildMapNode(h, ed, vol, n.dataMap, n.nodeMap, n.entries(), n.children())
}

// buildCollision allocates, writes, and flushes a collision bucket
// (volatile under selective persistence).
func buildCollision(h *alloc.Heap, ed *alloc.Edit, vol bool, entries []mapEntry) pmem.Addr {
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
func readCollision(h *alloc.Heap, ed *alloc.Edit, sc *alloc.Scratch, a pmem.Addr, dst []mapEntry) []mapEntry {
	hdr := h.ReadCached(a, mapNodeHdrSize, ed, sc)
	n := int(binary.LittleEndian.Uint32(hdr))
	if n == 0 {
		return dst
	}
	// Whole-node read under the block-start key; see readMapNode.
	node := h.ReadCached(a, mapNodeSize(n, 0), ed, sc)
	for i := 0; i < n; i++ {
		dst = append(dst, getEntry(node[entryOff(i):]))
	}
	return dst
}

// checkEntries requires every reference in entries to name a block, as a
// read through it would (alloc.Heap.CheckRef): a path copy carries the
// references it does not change into a new node without following them,
// and a damaged one must not be published a second time.
func checkEntries(h *alloc.Heap, entries []mapEntry) {
	for _, e := range entries {
		h.CheckRef(e.key)
		if e.val != pmem.Nil {
			h.CheckRef(e.val)
		}
	}
}

// copyOf builds the decoded and since mutated node n as a path copy of
// the node at src. The copy borrows what it shares with src instead of
// counting it (alloc/borrow.go): srcOnly are the references n dropped,
// dstOnly the ones it gained, each in node layout order; the caller's
// references on dstOnly transfer into the copy.
func (m Map) copyOf(src pmem.Addr, n *mapNode, srcOnly, dstOnly only) pmem.Addr {
	checkEntries(m.h, n.entries())
	for _, c := range n.children() {
		m.h.CheckRef(c)
	}
	dst := n.build(m.h, m.ed, m.sel)
	m.h.Borrow(src, dst, srcOnly, dstOnly)
	return dst
}

// collisionCopyOf is copyOf for a collision bucket.
func (m Map) collisionCopyOf(src pmem.Addr, entries []mapEntry, srcOnly, dstOnly only) pmem.Addr {
	checkEntries(m.h, entries)
	dst := buildCollision(m.h, m.ed, m.sel, entries)
	m.h.Borrow(src, dst, srcOnly, dstOnly)
	return dst
}

// Get returns the value stored under key. The descent reads only the
// node bitmaps (one 8-byte word) and the one relevant slot per level — a
// 4-byte child reference, or an entry's key and value references as one
// 8-byte word — not the whole node, matching how a real CHAMP lookup
// touches memory.
func (m Map) Get(key []byte) ([]byte, bool) {
	node := m.root()
	if node == pmem.Nil {
		return nil, false
	}
	dev := m.h.Device()
	sc := m.ed.Scratch()
	hash := hash64(key)
	shift := uint(0)
	for {
		// The slot reads below bypass the verified node-read funnel
		// (ReadCached), so the reference that led here and the node
		// behind it are checked before anything in it is followed.
		m.h.VerifyRef(node)
		if m.h.Tag(node) == TagMapCollision {
			var cbuf [collisionInline]mapEntry
			for _, e := range readCollision(m.h, m.ed, sc, node, cbuf[:0]) {
				if blobEqual(m.h, sc, e.key, key) {
					if e.val == pmem.Nil {
						return nil, true
					}
					return blobBytes(m.h, e.val), true
				}
			}
			return nil, false
		}
		maps := dev.ReadU64(node)
		dataMap, nodeMap := uint32(maps), uint32(maps>>32)
		bit := uint32(1) << ((hash >> shift) & mapMask)
		switch {
		case dataMap&bit != 0:
			di := bits.OnesCount32(dataMap & (bit - 1))
			e := dev.ReadU64(node + entryOff(di))
			if !blobEqual(m.h, sc, refAddr(uint32(e)), key) {
				return nil, false
			}
			valBlob := refAddr(uint32(e >> 32))
			if valBlob == pmem.Nil {
				return nil, true
			}
			return blobBytes(m.h, valBlob), true
		case nodeMap&bit != 0:
			d := bits.OnesCount32(dataMap)
			ni := bits.OnesCount32(nodeMap & (bit - 1))
			node = refAddr(dev.ReadU32(node + childOff(d, ni)))
			shift += mapBits
		default:
			return nil, false
		}
	}
}

// Contains reports whether key is present.
func (m Map) Contains(key []byte) bool {
	_, ok := m.Get(key)
	return ok
}

// Set returns a new version with key bound to val, and whether an existing
// binding was replaced. Pass a nil val for set semantics (no value blob).
func (m Map) Set(key, val []byte) (Map, bool) {
	// The key is boxed only where the trie installs a new entry: replacing
	// a binding reuses the blob already there, so boxing up front would
	// allocate, write, checksum, flush and free a blob that is never
	// linked. A selective map's record cell references whichever key blob
	// the binding ends up with, so it is created after the insert.
	valBlob := pmem.Nil
	if val != nil {
		valBlob = newBlob(m.h, m.ed, val)
	}
	root := m.root()
	var newRoot, keyBlob pmem.Addr
	var replaced bool
	if root == pmem.Nil {
		hash := hash64(key)
		keyBlob = newBlob(m.h, m.ed, key)
		newRoot = buildMapNode(m.h, m.ed, m.sel, uint32(1)<<(hash&mapMask), 0, []mapEntry{{keyBlob, valBlob}}, nil)
	} else {
		newRoot, keyBlob, replaced = m.insertRec(root, 0, hash64(key), key, valBlob)
	}
	rec := pmem.Nil
	if m.sel {
		_, oldRec, _ := readSelExt(m.h, m.addr, mapHdrSize)
		rec = newRecord(m.h, m.ed, oldRec, RecMapSet, uint64(keyBlob), uint64(valBlob))
	}
	count := m.Len()
	if !replaced {
		count++
	}
	return m.setHdr(count, newRoot, root, rec), replaced
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

// insertRec returns a new node with the binding applied, the key blob the
// binding uses — the existing one when replaced is true, otherwise a fresh
// box now linked in the new trie — and whether a binding was replaced. The
// valBlob reference transfers into the new trie.
func (m Map) insertRec(node pmem.Addr, shift uint, hash uint64, key []byte, valBlob pmem.Addr) (pmem.Addr, pmem.Addr, bool) {
	h, sc := m.h, m.ed.Scratch()
	if h.Tag(node) == TagMapCollision {
		var cbuf [collisionInline]mapEntry
		entries := readCollision(h, m.ed, sc, node, cbuf[:0])
		for i, e := range entries {
			if blobEqual(h, sc, e.key, key) {
				if m.ed.Owns(node) {
					m.setSlot(node, entryOff(i)+refSize, valBlob, e.val)
					return node, e.key, true
				}
				entries[i].val = valBlob
				return m.collisionCopyOf(node, entries, only{e.val}, only{valBlob}), e.key, true
			}
		}
		keyBlob := newBlob(h, m.ed, key)
		entries = append(entries, mapEntry{keyBlob, valBlob})
		return m.collisionCopyOf(node, entries, only{}, only{keyBlob, valBlob}), keyBlob, false
	}

	var n mapNode
	readMapNode(h, m.ed, sc, node, &n)
	bit := uint32(1) << ((hash >> shift) & mapMask)
	di := bits.OnesCount32(n.dataMap & (bit - 1))
	ni := bits.OnesCount32(n.nodeMap & (bit - 1))

	switch {
	case n.dataMap&bit != 0:
		e := n.eb[di]
		if blobEqual(h, sc, e.key, key) {
			if m.ed.Owns(node) {
				// Same shape: a single in-place value-slot write.
				m.setSlot(node, entryOff(di)+refSize, valBlob, e.val)
				return node, e.key, true
			}
			// Replace the value (new node, same shape).
			n.eb[di].val = valBlob
			return m.copyOf(node, &n, only{e.val}, only{valBlob}), e.key, true
		}
		// Hash conflict at this level: push both entries one level down.
		// The node's shape changes, so an owned node is rebuilt too (its
		// replacement transfers in via the parent's in-place slot write).
		// The subtree is a new parent of the displaced entry's blobs; the
		// copy of this node no longer holds them itself.
		exHash := hash64(blobInto(h, sc, e.key))
		h.RetainRef(e.key)
		h.RetainRef(e.val)
		keyBlob := newBlob(h, m.ed, key)
		sub := m.mergeTwo(shift+mapBits, e, exHash, mapEntry{keyBlob, valBlob}, hash)
		n.removeEntry(bit, di)
		n.insertChild(bit, ni, sub)
		return m.copyOf(node, &n, only{e.key, e.val}, only{sub}), keyBlob, false

	case n.nodeMap&bit != 0:
		child := n.cb[ni]
		newChild, keyBlob, replaced := m.insertRec(child, shift+mapBits, hash, key, valBlob)
		if newChild == child {
			return node, keyBlob, replaced
		}
		if m.ed.Owns(node) {
			m.setSlot(node, childOff(len(n.entries()), ni), newChild, child)
			return node, keyBlob, replaced
		}
		n.cb[ni] = newChild
		return m.copyOf(node, &n, only{child}, only{newChild}), keyBlob, replaced

	default:
		keyBlob := newBlob(h, m.ed, key)
		n.insertEntry(bit, di, mapEntry{keyBlob, valBlob})
		return m.copyOf(node, &n, only{}, only{keyBlob, valBlob}), keyBlob, false
	}
}

// mergeTwo builds the smallest subtree separating two distinct keys whose
// hashes collide at the parent level. Both entries' references transfer
// into the result (the caller retains the pre-existing entry beforehand).
func (m Map) mergeTwo(shift uint, e1 mapEntry, h1 uint64, e2 mapEntry, h2 uint64) pmem.Addr {
	h := m.h
	if shift >= collisionShift {
		return buildCollision(h, m.ed, m.sel, []mapEntry{e1, e2})
	}
	i1 := uint32((h1 >> shift) & mapMask)
	i2 := uint32((h2 >> shift) & mapMask)
	if i1 == i2 {
		sub := m.mergeTwo(shift+mapBits, e1, h1, e2, h2)
		return buildMapNode(h, m.ed, m.sel, 0, uint32(1)<<i1, nil, []pmem.Addr{sub})
	}
	if i1 < i2 {
		return buildMapNode(h, m.ed, m.sel, uint32(1)<<i1|uint32(1)<<i2, 0, []mapEntry{e1, e2}, nil)
	}
	return buildMapNode(h, m.ed, m.sel, uint32(1)<<i1|uint32(1)<<i2, 0, []mapEntry{e2, e1}, nil)
}

// Delete returns a new version without key, and whether the key was
// present. Deleting an absent key returns the receiver unchanged with no
// new version allocated.
func (m Map) Delete(key []byte) (Map, bool) {
	root := m.root()
	if root == pmem.Nil {
		return m, false
	}
	newRoot, removed := m.deleteRec(root, 0, hash64(key), key)
	if !removed {
		return m, false
	}
	rec := pmem.Nil
	if m.sel {
		// The record operand is a fresh key blob owned by the record alone:
		// newRecord retains it, so the temporary reference is dropped here.
		kb := newBlob(m.h, m.ed, key)
		_, oldRec, _ := readSelExt(m.h, m.addr, mapHdrSize)
		rec = newRecord(m.h, m.ed, oldRec, RecMapDelete, uint64(kb), 0)
		m.h.Release(kb)
	}
	return m.setHdr(m.Len()-1, newRoot, root, rec), true
}

// deleteRec returns the replacement node (Nil if the subtree became empty)
// and whether the key was found. For simplicity nodes are not re-inlined
// into their parents on deletion (lookup correctness is unaffected; the
// trie is merely non-canonical afterwards).
func (m Map) deleteRec(node pmem.Addr, shift uint, hash uint64, key []byte) (pmem.Addr, bool) {
	h, sc := m.h, m.ed.Scratch()
	if h.Tag(node) == TagMapCollision {
		var cbuf [collisionInline]mapEntry
		entries := readCollision(h, m.ed, sc, node, cbuf[:0])
		for i, e := range entries {
			if blobEqual(h, sc, e.key, key) {
				if len(entries) == 1 {
					return pmem.Nil, true
				}
				entries = append(entries[:i], entries[i+1:]...)
				return m.collisionCopyOf(node, entries, only{e.key, e.val}, only{}), true
			}
		}
		return pmem.Nil, false
	}

	var n mapNode
	readMapNode(h, m.ed, sc, node, &n)
	bit := uint32(1) << ((hash >> shift) & mapMask)
	di := bits.OnesCount32(n.dataMap & (bit - 1))
	ni := bits.OnesCount32(n.nodeMap & (bit - 1))

	switch {
	case n.dataMap&bit != 0:
		if !blobEqual(h, sc, n.eb[di].key, key) {
			return pmem.Nil, false
		}
		if len(n.entries()) == 1 && n.nodeMap == 0 {
			return pmem.Nil, true
		}
		e := n.eb[di]
		n.removeEntry(bit, di)
		return m.copyOf(node, &n, only{e.key, e.val}, only{}), true

	case n.nodeMap&bit != 0:
		child := n.cb[ni]
		newChild, removed := m.deleteRec(child, shift+mapBits, hash, key)
		if !removed {
			return pmem.Nil, false
		}
		if newChild == pmem.Nil {
			if n.dataMap == 0 && len(n.children()) == 1 {
				return pmem.Nil, true
			}
			n.removeChild(bit, ni)
			return m.copyOf(node, &n, only{child}, only{}), true
		}
		if newChild == child {
			return node, true
		}
		if m.ed.Owns(node) {
			m.setSlot(node, childOff(len(n.entries()), ni), newChild, child)
			return node, true
		}
		n.cb[ni] = newChild
		return m.copyOf(node, &n, only{child}, only{newChild}), true

	default:
		return pmem.Nil, false
	}
}

// Range calls f for every entry until f returns false. Iteration order is
// trie order (effectively hash order). Values are nil for set members.
func (m Map) Range(f func(key, val []byte) bool) {
	root := m.root()
	if root == pmem.Nil {
		return
	}
	m.rangeRec(root, f)
}

func (m Map) rangeRec(node pmem.Addr, f func(key, val []byte) bool) bool {
	h := m.h
	if h.Tag(node) == TagMapCollision {
		var cbuf [collisionInline]mapEntry
		for _, e := range readCollision(h, m.ed, m.ed.Scratch(), node, cbuf[:0]) {
			if !emitEntry(h, e, f) {
				return false
			}
		}
		return true
	}
	var n mapNode
	readMapNode(h, m.ed, m.ed.Scratch(), node, &n)
	for _, e := range n.entries() {
		if !emitEntry(h, e, f) {
			return false
		}
	}
	for _, c := range n.children() {
		if !m.rangeRec(c, f) {
			return false
		}
	}
	return true
}

func emitEntry(h *alloc.Heap, e mapEntry, f func(key, val []byte) bool) bool {
	var val []byte
	if e.val != pmem.Nil {
		val = blobBytes(h, e.val)
	}
	return f(blobBytes(h, e.key), val)
}

func walkMapHdr(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	if root := pmem.Addr(h.Device().ReadU64(a + 8)); root != pmem.Nil {
		visit(root)
	}
}

func walkMapNode(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	var n mapNode
	readMapNode(h, nil, sc, a, &n)
	for _, e := range n.entries() {
		visit(e.key)
		if e.val != pmem.Nil {
			visit(e.val)
		}
	}
	for _, c := range n.children() {
		visit(c)
	}
}

func walkMapCollision(h *alloc.Heap, a pmem.Addr, sc *alloc.Scratch, visit func(pmem.Addr)) {
	var cbuf [collisionInline]mapEntry
	for _, e := range readCollision(h, nil, sc, a, cbuf[:0]) {
		visit(e.key)
		if e.val != pmem.Nil {
			visit(e.val)
		}
	}
}

// Set is a purely functional hash set of byte-string keys, a Map whose
// value slots are Nil (§4.2 lists set among the CHAMP-backed structures).
type Set struct{ m Map }

// NewSet allocates an empty durable set.
func NewSet(h *alloc.Heap) Set { return Set{m: NewMap(h)} }

// NewSetSelective allocates an empty selectively persisted set.
func NewSetSelective(h *alloc.Heap) Set { return Set{m: NewMapSelective(h)} }

// SetDSAt adopts an existing set header, e.g. after recovery.
func SetDSAt(h *alloc.Heap, addr pmem.Addr) Set { return Set{m: MapAt(h, addr)} }

// WithEdit binds the version to a per-FASE edit context (DESIGN.md §8).
func (s Set) WithEdit(ed *alloc.Edit) Set { return Set{m: s.m.WithEdit(ed)} }

// Addr returns the header address of this version.
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
