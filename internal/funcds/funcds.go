// Package funcds implements purely functional datastructures laid out in
// simulated persistent memory: a cons-list stack, a banker's two-list
// queue, a 32-way bit-partitioned trie vector, and a CHAMP hash-trie map
// and set. These are the "existing functional datastructures" of §4.2 of
// the MOD paper, already adapted per its recipe:
//
//  1. state is allocated from the persistent heap (package alloc),
//  2. nothing lives on the volatile stack across operations, and
//  3. every update operation flushes all modified PM cachelines with
//     weakly ordered clwbs and issues no ordering points — the single
//     fence belongs to the Commit step (package core).
//
// Every update is a pure function: it returns a new version (shadow) and
// leaves the original untouched, sharing unmodified subtrees structurally.
// Reference counts are maintained through the heap: a new node counts the
// children it is given, except that a path copy of a trie node borrows the
// children it shares with the node it replaces instead of counting them
// (alloc/borrow.go). The returned version owns one reference to its new
// root, which the caller releases when the version is discarded or
// superseded.
//
// Purity also makes every update replayable: applying the same operation
// again against a different base version yields an equivalent new version
// with no side effects beyond its own allocations. Package core's
// optimistic commit path depends on this — a writer that loses its
// publication CAS retires the losing shadow chain and re-applies the
// operation against the new committed base, and a commit-queue round may
// apply an enrolled operation against a base the submitter never saw.
package funcds

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Node type tags, used by the allocator's reachability walkers.
const (
	TagBlob uint8 = 1 + iota // a map binding, key and value in one block (newPair)
	TagStackHdr
	TagListNode
	TagQueueHdr
	TagVecRoot // a plain vector's version: [count][height][tail] then its children (vector.go)
	TagVecNode
	TagVecLeaf
	TagMapRoot // a plain map's version: [count] then a trie node (champ.go)
	TagMapNode
	TagMapCollision

	// TagParent is reserved for package core's parent objects
	// (CommitSiblings); its walker is registered there.
	TagParent

	// Selective persistence (record.go, DESIGN.md §10): one tag for the
	// durable operation-record cells, and a selective variant of each
	// structure header whose layout appends [ckptHdr][recHead][recCount]
	// to the base fields.
	TagRecord
	TagMapHdrSel
	TagVecHdrSel
	TagStackHdrSel
	TagQueueHdrSel
)

// layoutRow is one node type of the heap layout (DESIGN.md §2, whose
// node block names every row). walk lists the children recovery follows;
// a selective header also names its navigation words apart (nav), the
// size of the base fields its extension follows (base) and, for a stack
// or a queue, the plain tag its checkpoint clone takes (plain; a map's or
// a vector's clone is its root itself).
type layoutRow struct {
	name  string
	walk  alloc.Walker // nil for TagParent, whose walker package core registers
	nav   alloc.Walker
	base  int
	plain uint8
}

// layout is the heap layout, indexed by tag.
var layout = [256]layoutRow{
	TagBlob:         {name: "binding", walk: walkNone},
	TagStackHdr:     {name: "stack hdr", walk: walkStackHdr},
	TagListNode:     {name: "list cell", walk: walkListNode},
	TagQueueHdr:     {name: "queue hdr", walk: walkQueueHdr},
	TagVecRoot:      {name: "vec root", walk: walkVecRoot},
	TagVecNode:      {name: "vec node", walk: walkVecNode},
	TagVecLeaf:      {name: "vec leaf", walk: walkNone},
	TagMapRoot:      {name: "map root", walk: walkMapRoot},
	TagMapNode:      {name: "map node", walk: walkMapNode},
	TagMapCollision: {name: "collision", walk: walkMapCollision},
	TagParent:       {name: "parent"},
	TagRecord:       {name: "record", walk: walkRecord},
	TagMapHdrSel:    selRow("map sel hdr", selRootBase, walkSelRoot, 0),
	TagVecHdrSel:    selRow("vec sel hdr", selRootBase, walkSelRoot, 0),
	TagStackHdrSel:  selRow("stack sel hdr", stackHdrSize, walkStackHdr, TagStackHdr),
	TagQueueHdrSel:  selRow("queue sel hdr", queueHdrSize, walkQueueHdr, TagQueueHdr),
}

// selRow is a selective header's row: recovery follows its checkpoint and
// record chain, and nav names the base fields' navigation words.
func selRow(name string, base int, nav alloc.Walker, plain uint8) layoutRow {
	return layoutRow{name: name, walk: walkSelExt(base), nav: nav, base: base, plain: plain}
}

// RegisterWalkers installs every walker and navigation walker of the
// layout table on the heap. It must be called after Format or before
// Recover.
func RegisterWalkers(h *alloc.Heap) {
	for tag, r := range layout {
		if r.walk != nil {
			h.RegisterWalker(uint8(tag), r.walk)
		}
		if r.nav != nil {
			h.RegisterNavigation(uint8(tag), r.nav)
		}
	}
}

func walkNone(*alloc.Heap, pmem.Addr, *alloc.Scratch, func(pmem.Addr)) {}

// References stored inside trie nodes — CHAMP children and binding
// entries, collision entries, vector interior children — are 4 bytes
// (heap layout v5, DESIGN.md §2): the payload address shifted right by
// three, every payload being 8-aligned, with 0 for Nil. A path copy
// rewrites an interior node to change one reference, so halving the
// reference halves the lines that copy flushes. Structure headers, list
// cells and record cells keep full 8-byte addresses: they are small, and
// the root cell a commit swaps must stay one failure-atomic 8-byte word.
const (
	refSize = 4

	// MaxHeapBytes is the reach of a 4-byte reference, and so the largest
	// heap region these structures can live in (core.Open refuses a larger
	// one; shard beyond it).
	MaxHeapBytes = int64(1) << (32 + 3)
)

// ref32 encodes a payload address as a node reference. An address it
// cannot represent was never handed out by a heap of legal size: a bug,
// not an input.
func ref32(a pmem.Addr) uint32 {
	if a&7 != 0 || a >= pmem.Addr(MaxHeapBytes) {
		panic(fmt.Sprintf("funcds: address %#x is not encodable as a 4-byte reference", uint64(a)))
	}
	return uint32(a >> 3)
}

// refAddr decodes a node reference. Any 32-bit pattern decodes to an
// 8-aligned address below MaxHeapBytes; whether a block lives there is
// established where the address is used: alloc.Heap.VerifyRef before
// every node read (inside ReadCached, and explicitly before a direct slot
// or binding read), Heap.CheckRef where a path copy carries the reference
// into a new node, the bounds test behind Heap.Tag, and the recovery and
// verification walks all refuse an address that is outside the heap or
// not a block payload.
func refAddr(r uint32) pmem.Addr { return pmem.Addr(r) << 3 }

// Edit-context plumbing. Every structure value optionally carries an
// *alloc.Edit (WithEdit); node constructors allocate through it so the
// node is edit-owned — mutable in place for the rest of the FASE — and
// its flushes are deferred into the edit's dedup set. With a nil edit the
// constructors behave exactly as before: allocate eagerly and flush
// immediately.
//
// The edit also lends its node-image buffer (alloc.Scratch, DESIGN.md §8):
// every bulk Read and Write goes through it, so the bytes that cross the
// pmem.Backend interface never cost a Go allocation. Decoded nodes are
// fixed-size values in the frame that reads them — one frame per trie
// level of a recursive update — and are decoded before the buffer's next
// use. With a nil edit the buffer is nil and each image is a fresh slice.

// nodeAlloc allocates a node through the edit when one is active. A
// volatile node (selective persistence, record.go) is a navigation node:
// its header is flush-pending as usual, but its payload stays
// DRAM-resident until a checkpoint seals the crown.
func nodeAlloc(h *alloc.Heap, ed *alloc.Edit, size int, tag uint8, vol bool) pmem.Addr {
	if ed != nil {
		if vol {
			return ed.AllocVolatile(size, tag)
		}
		return ed.Alloc(size, tag)
	}
	if vol {
		return h.AllocVolatile(size, tag)
	}
	// Durable non-edit node: defer the header flush to flushNode's
	// SealNode, whose combined header+payload flush also stamps the
	// node's checksum word (DESIGN.md §13).
	return h.AllocNode(size, tag)
}

// flushNode makes a freshly written node's payload flush-pending. With an
// edit it is deferred into the edit's dedup set and registered for the
// Seal checksum pass; without one, SealNode stamps the checksum word and
// flushes header plus payload as one range — never more clwbs than the
// old eager-header-flush-plus-payload-flush pairing. Volatile node
// payloads are never flushed here — that is the point of selective
// persistence; the checkpoint seals them in bulk.
//
// size must cover every payload byte the caller initialized: it is the
// node's checksum coverage, and any byte outside it is neither flushed
// nor verified.
func flushNode(h *alloc.Heap, ed *alloc.Edit, a pmem.Addr, size int, vol bool) {
	if vol {
		return
	}
	if ed != nil {
		ed.RecordNode(a, size)
		return
	}
	h.SealNode(a, size)
}

// recordEdit defers a flush of an in-place mutation on an edit-owned node.
// Mutations of volatile nodes skip the flush set (their payloads stay
// unflushed) but still count as elided copies.
func recordEdit(ed *alloc.Edit, a pmem.Addr, size int, vol bool) {
	if !vol {
		ed.Record(a, size)
	}
	ed.NoteCopyElided()
}

// Binding blocks (TagBlob, heap layout v14): one block per map binding,
// [klen uvarint][vtag uvarint][key][value], where vtag is 0 for a set
// member, which has no value, and len(value)+1 otherwise, so an empty
// value is not a missing one. A 12-byte key and a 64-byte value take
// 2 + 76 bytes, inside the 96-byte class. A binding is immutable once
// flushed: replacing a value builds a new block.
//
// newPair allocates, writes, and flushes the binding of key to val (a set
// member when val is nil). Bindings are the leaf payloads of selective
// persistence and are always durable: record cells reference them, so
// recovered state never re-reads a volatile node to find user data.
func newPair(h *alloc.Heap, ed *alloc.Edit, key, val []byte) pmem.Addr {
	vtag := uint64(0)
	if val != nil {
		vtag = uint64(len(val)) + 1
	}
	lens := uvarintLen(uint64(len(key))) + uvarintLen(vtag)
	size := lens + len(key) + len(val)
	a := nodeAlloc(h, ed, size, TagBlob, false)
	buf := ed.Scratch().Bytes(size)
	i := binary.PutUvarint(buf, uint64(len(key)))
	binary.PutUvarint(buf[i:], vtag)
	copy(buf[lens:], key)
	copy(buf[lens+len(key):], val)
	h.Device().Write(a, buf)
	flushNode(h, ed, a, size, false)
	return a
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// pairAt reads the binding block at a through sc — the slices are valid
// until sc's next use — and returns its key and its value, nil for a set
// member. The lengths are data a reader trusts, so they are checked: one
// that runs past what the block's checksum covers (alloc.Heap.Extent)
// raises the typed corruption panic instead of reading a neighbour.
func pairAt(h *alloc.Heap, sc *alloc.Scratch, a pmem.Addr) (key, val []byte) {
	h.VerifyRef(a)
	b := sc.Bytes(h.Extent(a, sc))
	h.Device().Read(a, b)
	klen, i := binary.Uvarint(b)
	vtag, j := binary.Uvarint(b[max(i, 0):])
	rest := b[max(i, 0)+max(j, 0):]
	if i <= 0 || j <= 0 || klen > uint64(len(rest)) || vtag > uint64(len(rest))-klen+1 {
		panic(&alloc.CorruptionPanic{Block: alloc.BlockError{Addr: a, Tag: TagBlob, Reason: "binding lengths run past the block"}})
	}
	if vtag != 0 {
		val = rest[klen : klen+vtag-1]
	}
	return rest[:klen], val
}

// hash64 is FNV-1a, the hash used to place keys in the CHAMP trie.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= 1099511628211
	}
	return h
}
