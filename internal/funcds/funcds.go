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
	"bytes"
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Node type tags, used by the allocator's reachability walkers.
const (
	TagBlob uint8 = 1 + iota
	TagStackHdr
	TagListNode
	TagQueueHdr
	TagVecHdr
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

// RegisterWalkers installs the child-enumeration functions for every node
// type in this package on the heap, and names the types it allocates
// volatile. It must be called after Format or before Recover.
func RegisterWalkers(h *alloc.Heap) {
	h.RegisterWalker(TagBlob, walkNone)
	h.RegisterWalker(TagStackHdr, walkStackHdr)
	h.RegisterWalker(TagListNode, walkListNode)
	h.RegisterWalker(TagQueueHdr, walkQueueHdr)
	h.RegisterWalker(TagVecHdr, walkVecHdr)
	h.RegisterWalker(TagVecNode, walkVecNode)
	h.RegisterWalker(TagVecLeaf, walkNone)
	h.RegisterWalker(TagMapRoot, walkMapRoot)
	h.RegisterWalker(TagMapNode, walkMapNode)
	h.RegisterWalker(TagMapCollision, walkMapCollision)
	h.RegisterWalker(TagRecord, walkRecord)
	h.RegisterWalker(TagMapHdrSel, walkSelHdr(walkMapSelRoot, mapSelBase))
	h.RegisterWalker(TagVecHdrSel, walkSelHdr(walkVecHdr, vecHdrSize))
	h.RegisterWalker(TagStackHdrSel, walkSelHdr(walkStackHdr, stackHdrSize))
	h.RegisterWalker(TagQueueHdrSel, walkSelHdr(walkQueueHdr, queueHdrSize))
	// The navigation nodes selective persistence keeps volatile
	// (nodeAlloc's vol callers); blobs, records and headers never are.
	h.RegisterVolatile(TagListNode, TagVecNode, TagVecLeaf, TagMapRoot, TagMapNode, TagMapCollision)
}

func walkNone(*alloc.Heap, pmem.Addr, *alloc.Scratch, func(pmem.Addr)) {}

// References stored inside trie nodes — CHAMP children and [key,val]
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
// or blob read), Heap.CheckRef where a path copy carries the reference
// into a new node, the bounds test behind Heap.Tag, and the recovery and
// verification walks all refuse an address that is outside the heap or
// not a block payload.
func refAddr(r uint32) pmem.Addr { return pmem.Addr(r) << 3 }

// only lists the references one side of a path copy holds and the other
// does not, for alloc.Heap.Borrow: at most an entry's key and value blob,
// or one child, in node layout order; Nil entries are padding.
type only = [2]pmem.Addr

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
// volatile node (selective persistence, record.go) carries the heap's
// volatile-node bit: its header is flush-pending as usual, but its payload
// stays DRAM-resident until a checkpoint flushes the crown.
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
// persistence; the checkpoint flushes them in bulk.
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

// Blob layout: [len u32][pad u32][bytes...]. Blobs box variable-length
// keys and values; they are immutable once flushed.
const blobHdrSize = 8

// newBlob allocates, writes, and flushes a byte-string box. Blobs are the
// leaf payloads of selective persistence and are always durable: record
// cells reference them, so recovered state never re-reads a volatile node
// to find user data.
func newBlob(h *alloc.Heap, ed *alloc.Edit, b []byte) pmem.Addr {
	a := nodeAlloc(h, ed, blobHdrSize+len(b), TagBlob, false)
	dev := h.Device()
	dev.WriteU32(a, uint32(len(b)))
	dev.WriteU32(a+4, 0)
	if len(b) > 0 {
		dev.Write(a+blobHdrSize, b)
	}
	flushNode(h, ed, a, blobHdrSize+len(b), false)
	return a
}

// blobLen returns the length of the blob at a.
func blobLen(h *alloc.Heap, a pmem.Addr) int {
	h.VerifyRef(a)
	return int(h.Device().ReadU32(a))
}

// blobBytes reads the blob's contents.
func blobBytes(h *alloc.Heap, a pmem.Addr) []byte {
	n := blobLen(h, a)
	b := make([]byte, n)
	h.Device().Read(a+blobHdrSize, b)
	return b
}

// blobInto reads the blob's contents into sc; the result is valid until
// sc's next use.
func blobInto(h *alloc.Heap, sc *alloc.Scratch, a pmem.Addr) []byte {
	b := sc.Bytes(blobLen(h, a))
	h.Device().Read(a+blobHdrSize, b)
	return b
}

// blobEqual compares the blob at a with b, reading through sc.
func blobEqual(h *alloc.Heap, sc *alloc.Scratch, a pmem.Addr, b []byte) bool {
	if blobLen(h, a) != len(b) {
		return false
	}
	if len(b) == 0 {
		return true
	}
	got := sc.Bytes(len(b))
	h.Device().Read(a+blobHdrSize, got)
	return bytes.Equal(got, b)
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
