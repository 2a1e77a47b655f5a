// Package alloc implements a persistent-memory allocator playing the role
// nvm_malloc plays in the MOD paper (§4.2 step 1): it carves datastructure
// nodes out of a pmem arena, names recoverable roots so applications can
// find their data across process lifetimes, and reclaims memory — by
// volatile reference counting during normal operation (§5.3) and by a
// reachability scan during recovery after a crash.
//
// Layout. The arena begins with a superblock holding a magic number, the
// persistent bump pointer, and a table of named roots. Blocks follow, each
// a 16-byte header — one word of (magic, type tag, stride) and one
// checksum word carrying a CRC32-C over the node's initialized payload
// (DESIGN.md §13) — and a payload. Block headers are flushed without
// fences; recovery walks the header chain and discards anything
// unreachable from the roots, which is exactly the paper's treatment of
// allocations from interrupted FASEs.
//
// Reclamation. Reference counts live in volatile memory and are rebuilt on
// recovery, as §5.3 prescribes; they are atomic cells of an address-indexed
// table (table.go), so concurrent writers can retain and release shared
// subtrees without locks or lookups. A block whose count
// reaches zero is retired rather than freed, and becomes reusable only
// once two conditions hold (see epoch.go):
//
//  1. a device fence has executed after the retirement, so the root swap
//     that orphaned the block is durable and the durable image cannot
//     still need it (MOD's one-fence-per-FASE quarantine, DESIGN.md §4);
//  2. the epoch-based-reclamation grace period has passed, so no reader
//     that pinned an epoch before the block was unlinked can still hold a
//     pointer into it.
//
// Concurrency. A Heap value is a handle onto shared allocator state, in
// the same way a pmem.Device is a handle onto shared device state. Fork
// derives a handle with its own device clock for a worker goroutine; all
// handles share the free lists, reference counts, root table, and epoch
// machinery.
package alloc

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/pmem"
)

// Superblock layout (all offsets in bytes from arena start).
const (
	offMagic   = 0
	offVersion = 8
	offBumpTop = 16
	offShard   = 24 // the heap's index among the regions of its store
	offShards  = 32 // the number of regions of its store (1: a single heap)
	offRoots   = 64 // root table: RootSlots entries of {nameHash, cell word} (roots.go)

	// RootSlots is the number of named recoverable roots per heap.
	RootSlots = 62

	rootEntrySize = 16

	// offRuns is the open-run table: EditRunSlots entries of {start, end}
	// recording bump runs claimed by in-flight edit contexts whose block
	// headers are deferred-flushed (edit.go). Recovery consults it when
	// the header chain tears inside a run (recover.go).
	offRuns = offRoots + RootSlots*rootEntrySize

	// EditRunSlots bounds how many edits can hold unsealed bump runs at
	// once; further edits fall back to eagerly flushed allocations.
	EditRunSlots = 8

	runEntrySize   = 16
	superblockSize = offRuns + EditRunSlots*runEntrySize // 1184 -> padded
	heapBase       = (superblockSize + pmem.LineSize - 1) &^ (pmem.LineSize - 1)

	// stageTableSize is the stage table at the top of the arena, above the
	// bump heap: one line per root holding its two stage slots (roots.go).
	stageTableSize = RootSlots * pmem.LineSize

	magic = 0x4d4f442d48454150 // "MOD-HEAP"

	// version is the one heap layout Open accepts. 2: open-run table;
	// 3: volatile-node bit; 4: 16-byte header with checksum word;
	// 5: 4-byte references inside funcds trie nodes; 6: no commit-log
	// block or root, every multi-root commit rides the batch record
	// (package core); 7: 8-element vector leaves and the 80-byte size
	// class they live in; 8: two roll-forward slots in the batch record,
	// each carrying its own live status; 9: a publication counter in every
	// root cell's high bits and a stage table of two slots per root at the
	// top of the arena (roots.go); 10: 32-byte stage slots carrying a
	// group word, which carry every multi-root publication in place of the
	// batch record, and a stage table armed at Format; 11: the heap's
	// shard identity in the superblock, and a 16-bit member count in the
	// group word, whose sequence number a DB's shards share; 12: a plain
	// map's version is its CHAMP root node, which carries the count, in
	// place of a [count][root] header block (package funcds); 13: a
	// selective structure's staged publication carries a digest of its
	// durable blocks, and recovery applies it over its volatile navigation
	// nodes, where a v12 recovery refuses the member and would drop an
	// acknowledged write; 14: a map entry is one 4-byte reference to a
	// binding block holding key and value, in place of a key blob and a
	// value blob (package funcds); 15: no volatile-node bit (bit 41 is
	// reserved, written 0): recovery and verification never follow a
	// selective header's navigation words (RegisterNavigation), where a
	// v14 recovery follows them into any block whose bit reads clear;
	// 16: a plain vector's version is its root, [count][shift][tail ref]
	// then one reference per child, in place of a [count][shift][root]
	// [tail] header block over a 32-slot root node, and a selective
	// vector's header names that root (package funcds); 17: a vector's
	// interior nodes are 28-way, 28 references in a two-line block where
	// v16 had 32 in three, and its root's second word is the trie's
	// height where v16 stored the bit shift of the root's index digit
	// (package funcds); 18: a vector's interior nodes are 12-way, one
	// line each, and every vector root is at least a 64-byte block
	// (package funcds).
	// Every bump so far moved or re-encoded something a recovery depends
	// on, or changed what a recovery decides, so no older image is
	// readable.
	version = 18

	headerSize = 16
	headerMark = 0x4d4f // "MO", stored in the top 16 bits of a header's first word

	// HeaderSize is the block header width, exported for callers that
	// compute header addresses from payload addresses (package core's
	// trace-checker configuration).
	HeaderSize = headerSize
)

// strides are the size classes (full block size including header). 80 is
// the vector leaf's: 16 + 64 bytes, the most-allocated block of a vector
// path copy. 64 = 1 line is a vector interior node's (16 + 12 × 4) and a
// small vector root's; 192 = 3 lines stays the class of a full map node
// (16 + 136): a block of a whole-line stride is carved on a line boundary
// (placeAt), so it spans exactly stride/64 lines, where a 160-byte block
// would straddle one line more than it fills.
var strides = []uint32{24, 32, 48, 64, 80, 96, 128, 192, 256, 384, 512, 768, 1024, 2048, 4096}

// fillerMin is the smallest free block: a header and one payload word.
const fillerMin = headerSize + 8

// placeAt returns the header address of a block of stride bytes carved
// from free space starting at cur. A durable block whose stride is a whole
// number of lines starts on a line, so it spans stride/64 lines and not
// one more; the gap left in front of it, if any, is at least fillerMin
// (a smaller one grows by a line) and becomes a free filler block (see
// carveFillerLocked and Edit.carveFiller). Sub-line strides are carved at
// cur. Volatile blocks are placed like durable ones: a fold that seals a
// navigation node flushes its stride/64 lines, and free lists are per
// stride, so a volatile block freed at a fold or swept at recovery is
// reused by a durable allocation of its stride. A block carved on a line
// is reused on one.
func placeAt(cur pmem.Addr, stride uint32) pmem.Addr {
	if stride%pmem.LineSize != 0 {
		return cur
	}
	gap := (pmem.LineSize - cur%pmem.LineSize) % pmem.LineSize
	if gap != 0 && gap < fillerMin {
		gap += pmem.LineSize
	}
	return cur + gap
}

// Walker enumerates the child pointers of a node so the heap can trace
// reachability and cascade reference-count releases. It receives the
// payload address and must invoke visit for every non-nil child payload
// address stored in the node. sc is the walk's node-image buffer, for
// walkers that read a node in bulk; it is never nil.
type Walker func(h *Heap, addr pmem.Addr, sc *Scratch, visit func(child pmem.Addr))

// Stats reports allocator activity.
type Stats struct {
	Allocs     uint64
	Frees      uint64
	LiveBytes  uint64 // bytes in allocated blocks (including headers)
	CumBytes   uint64 // bytes ever allocated (never decreases)
	HighWater  uint64 // max LiveBytes observed
	HeapUsed   uint64 // bytes between heap base and bump top
	Quarantine int    // retired blocks awaiting fence + epoch grace
	Borrows    int    // path copies still borrowing from their source (borrow.go)
	Settled    uint64 // path copies that had to count their shared children after all
}

// RecoveryStats reports what a post-crash Recover pass found.
type RecoveryStats struct {
	LiveBlocks   int
	LiveBytes    uint64
	LeakedBlocks int    // unreachable blocks reclaimed
	LeakedBytes  uint64 // bytes reclaimed from interrupted FASEs
	Roots        int    // non-nil roots found
	// StagedRoots counts roots recovery moved to a staged publication
	// whose cell write had not reached PM (roots.go, DESIGN.md §7).
	StagedRoots int
}

// heapShared is the allocator state common to all handles. The mutex
// guards the bump pointer, free lists, and counter stats; reference
// counts are atomic; retirement and epochs have their own lock (epoch.go).
type heapShared struct {
	mu   sync.Mutex
	top  pmem.Addr              // volatile mirror of the persistent bump pointer
	end  pmem.Addr              // the heap's end: the stage table's start
	free map[uint32][]pmem.Addr // stride -> header addrs (LIFO)

	// cells mirrors each root cell word plus one (0: not yet read), so a
	// publication computes its counter without reading the cell (roots.go).
	cells [RootSlots]atomic.Uint64
	// staged has bit slot set once a stage slot of that root has been
	// written since the heap was opened (roots.go's wrap guard).
	staged atomic.Uint64
	// groups is the last group sequence number NewGroup handed out,
	// shared by every heap of one store (ShareGroups), so a group word
	// names one publication across all of them. Every recovery consumes
	// every stage slot, so numbering restarts at each open.
	groups *atomic.Uint64
	// holds is, per stage slot, the FenceSeq a fence must pass before the
	// slot may be overwritten: set when the slot holds a member of a
	// multi-root publication (GroupSwapped), 0 otherwise.
	holds [RootSlots][stageSlots]atomic.Uint64

	blocks  blockTable  // reference counts and flag bits by payload address
	borrows borrowTable // path copies that share their source's references (borrow.go)
	walkers [256]Walker
	navs    [256]Walker // navigation words (RegisterNavigation)

	// runSlots mirrors the open-run table. A sealed slot's persistent
	// entry is NOT cleared at seal time — clearing is a plain clwb'd
	// write, and under partial-eviction crash policies the clear could
	// become durable while the run's deferred headers are still torn,
	// exposing the heap to truncation at the tear. Instead the entry
	// stays in place and the slot is reused (overwritten) only once a
	// fence has covered the seal sweep, at which point the old run's
	// headers are durable and can never tear (edit.go).
	runSlots [EditRunSlots]runSlotState

	// reserves holds sealed edit-run tails awaiting reuse as later
	// edits' runs (edit.go).
	reserves []reserveRegion

	// cache is the DRAM node cache fronting funcds interior-node reads
	// (cache.go); nil until EnableNodeCache.
	cache atomic.Pointer[nodeCache]

	// taintCount is the number of recovered-but-unverified blocks still
	// carrying slotTaint (verify.go); it gives readers a one-atomic fast
	// path once lazy verification drains.
	taintCount atomic.Int64

	stats Stats // Quarantine filled from ebr on read

	ebr ebrState
}

// Heap is a handle onto a persistent allocator over a pmem.Device. Derive
// one handle per goroutine with Fork; handles share all allocator state
// but carry their own device clock.
type Heap struct {
	dev pmem.Backend
	sh  *heapShared

	// Per-handle reusable working state, parked here between uses and
	// taken with an atomic swap so goroutines sharing the handle never
	// share one: the edit the last FASE sealed (edit.go) and the buffers
	// of the last retire cascade.
	spareEdit    atomic.Pointer[Edit]
	spareCascade atomic.Pointer[cascade]

	// DisableReclaim makes Release a no-op so every version is retained;
	// used by the Table 3 experiment to measure multi-version growth.
	// Set it before any concurrent use; the flag is per-handle.
	DisableReclaim bool
}

// ErrHeapVersion is returned (wrapped) by Open for a heap stamped with any
// layout version other than this build's.
var ErrHeapVersion = errors.New("unsupported heap layout version")

// Format initializes a fresh single heap on dev, overwriting any prior
// content, and returns it.
func Format(dev pmem.Backend) *Heap { return FormatShard(dev, 0, 1) }

// FormatShard initializes a fresh heap on dev as region shard of a store
// of shards regions, overwriting any prior content, and returns it. The
// superblock — the identity included — and the zeroed stage table are
// made durable before FormatShard returns: a recovery reads the table of
// every heap, and an arena formatted over an older heap must not show it
// that heap's stage slots.
func FormatShard(dev pmem.Backend, shard, shards int) *Heap {
	h := newHeap(dev)
	dev.WriteU64(offMagic, magic)
	dev.WriteU64(offVersion, version)
	dev.WriteU64(offBumpTop, uint64(heapBase))
	dev.WriteU64(offShard, uint64(shard))
	dev.WriteU64(offShards, uint64(shards))
	dev.Zero(offRoots, superblockSize-offRoots) // root table + run table
	dev.FlushRange(0, heapBase)
	dev.Zero(h.sh.end, stageTableSize)
	dev.FlushRange(h.sh.end, stageTableSize)
	dev.Sfence()
	h.sh.top = heapBase
	for i := range h.sh.cells {
		h.sh.cells[i].Store(1) // every cell word is 0
	}
	return h
}

// Open attaches to a previously formatted heap without scanning it. Most
// callers want Recover, which also rebuilds reachability state.
func Open(dev pmem.Backend) (*Heap, error) {
	if dev.Size() < int64(heapBase)+64+stageTableSize {
		return nil, fmt.Errorf("alloc: device too small (%d bytes)", dev.Size())
	}
	if dev.ReadU64(offMagic) != magic {
		return nil, fmt.Errorf("alloc: bad heap magic %#x", dev.ReadU64(offMagic))
	}
	if v := dev.ReadU64(offVersion); v != version {
		return nil, fmt.Errorf("alloc: heap is layout v%d, this build reads v%d: %w", v, version, ErrHeapVersion)
	}
	h := newHeap(dev)
	h.sh.top = pmem.Addr(dev.ReadU64(offBumpTop))
	if h.sh.top < heapBase || h.sh.top > h.sh.end {
		return nil, fmt.Errorf("alloc: corrupt bump pointer %#x", uint64(h.sh.top))
	}
	return h, nil
}

func newHeap(dev pmem.Backend) *Heap {
	end := pmem.Addr(dev.Size()-stageTableSize) &^ (pmem.LineSize - 1)
	sh := &heapShared{
		end:    end,
		free:   make(map[uint32][]pmem.Addr),
		groups: new(atomic.Uint64),
		blocks: newBlockTable(end),
	}
	sh.borrows.reset()
	return &Heap{dev: dev, sh: sh}
}

// Shard returns the identity FormatShard wrote: the heap's index among
// its store's regions and their number.
func (h *Heap) Shard() (shard, shards int) {
	return int(h.dev.ReadU64(offShard)), int(h.dev.ReadU64(offShards))
}

// ShareGroups makes h number its groups from o's counter, so the two
// heaps never stage two publications under one group word. Call it
// before either heap stages anything.
func (h *Heap) ShareGroups(o *Heap) { h.sh.groups = o.sh.groups }

// Fork returns a new handle onto the same heap whose device handle has a
// fresh per-goroutine clock (see pmem.Device.Fork).
func (h *Heap) Fork() *Heap {
	return &Heap{dev: h.dev.Fork(), sh: h.sh, DisableReclaim: h.DisableReclaim}
}

// Device returns this handle's underlying device handle.
func (h *Heap) Device() pmem.Backend { return h.dev }

// Stats returns a snapshot of allocator counters.
func (h *Heap) Stats() Stats {
	sh := h.sh
	sh.mu.Lock()
	s := sh.stats
	s.HeapUsed = uint64(sh.top) - heapBase
	sh.mu.Unlock()
	s.Quarantine = sh.ebr.pendingCount()
	sh.borrows.mu.Lock()
	s.Borrows = len(sh.borrows.lent)
	sh.borrows.mu.Unlock()
	s.Settled = sh.borrows.settled.Load()
	return s
}

// SuperblockRange returns the in-place-updated allocator metadata region,
// which trace checking exempts from the out-of-place invariant I1.
func SuperblockRange() [2]pmem.Addr { return [2]pmem.Addr{0, heapBase} }

// StageTableRange returns the stage table (roots.go), the heap's other
// in-place-updated region.
func (h *Heap) StageTableRange() [2]pmem.Addr {
	return [2]pmem.Addr{h.sh.end, h.sh.end + stageTableSize}
}

// RegisterWalker associates a child-enumeration function with a node type
// tag. Datastructure packages register their node layouts at init time,
// before any concurrent use of the heap.
func (h *Heap) RegisterWalker(tag uint8, w Walker) { h.sh.walkers[tag] = w }

// RegisterNavigation names the navigation words of a block of tag: the
// children nav visits are held by reference like the walker's, so a
// release cascades through both, but recovery and verification follow
// only the walker's (DESIGN.md §10). A selective structure's header names
// its navigation this way, so after a crash every navigation node is
// unreachable and recovery sweeps it; the structure is rebuilt from the
// checkpoint and record chain the walker names.
func (h *Heap) RegisterNavigation(tag uint8, nav Walker) { h.sh.navs[tag] = nav }

// walkRefs visits every child a block of tag holds a reference on: its
// navigation words, then its walker's children.
func (h *Heap) walkRefs(tag uint8, a pmem.Addr, sc *Scratch, visit func(pmem.Addr)) {
	if nav := h.sh.navs[tag]; nav != nil {
		nav(h, a, sc, visit)
	}
	if w := h.sh.walkers[tag]; w != nil {
		w(h, a, sc, visit)
	}
}

// strideFor returns the smallest size class holding payload bytes.
func strideFor(payload int) uint32 {
	need := uint32(payload + headerSize)
	for _, s := range strides {
		if s >= need {
			return s
		}
	}
	return (need + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
}

func packHeader(stride uint32, tag uint8, allocated bool) uint64 {
	v := uint64(headerMark)<<48 | uint64(tag)<<32 | uint64(stride)
	if allocated {
		v |= 1 << 40
	}
	return v
}

func unpackHeader(v uint64) (stride uint32, tag uint8, allocated, ok bool) {
	if v>>48 != headerMark {
		return 0, 0, false, false
	}
	return uint32(v), uint8(v >> 32), v>>40&1 == 1, true
}

// Checksum word (header word 1, DESIGN.md §13). A sealed node stores
//
//	bit 63     hasCRC flag
//	bits 32-62 covered length n (initialized payload bytes)
//	bits 0-31  CRC32-C over (header word 0 || n || payload[0:n])
//
// Covering the first header word and the length means a flipped tag,
// stride, or length is caught by the same check as flipped payload bytes;
// only a flip of the hasCRC bit itself can silence a node's check (the
// residual risk §13 documents). The word is written before the node's
// combined header+payload flush, so verification costs no extra ordering:
// the FASE's single fence covers payload, header, and checksum together.
// A zero word means "no checksum" — legacy allocation paths (Alloc) and
// navigation nodes not yet sealed by a checkpoint zero it so verification
// never mistakes a recycled block's stale checksum for a live one.
const hdrHasCRC = uint64(1) << 63

var crcTable = crc32.MakeTable(crc32.Castagnoli)

func packCheck(n int, crc uint32) uint64 {
	return hdrHasCRC | uint64(n)<<32&^hdrHasCRC | uint64(crc)
}

func unpackCheck(v uint64) (n int, crc uint32, has bool) {
	return int(v << 1 >> 33), uint32(v), v&hdrHasCRC != 0
}

// nodeCRC computes the checksum of the block at hdr covering n payload
// bytes. It reads through the raw arena view: checksum arithmetic models
// a CRC pipelined with the stores themselves (no extra simulated-time
// charge), and raw reads bypass poisoned-line faults so verification can
// classify damage instead of crashing on it. It IS the verify machinery,
// so it opens its own recovery bracket around the raw view.
func (h *Heap) nodeCRC(hdr pmem.Addr, n int) uint32 {
	defer h.dev.BeginRecovery()()
	raw := h.dev.Bytes(hdr, headerSize+n)
	crc := crc32.Update(0, crcTable, raw[:8])
	// The four length bytes, bytewise: a slice of a local handed to
	// crc32.Update would escape and cost an allocation per node sealed.
	crc = ^crc
	for i, v := 0, uint32(n); i < 4; i, v = i+1, v>>8 {
		crc = crcTable[byte(crc)^byte(v)] ^ crc>>8
	}
	return crc32.Update(^crc, crcTable, raw[headerSize:])
}

// Alloc returns the payload address of a new block of at least size bytes,
// typed by tag, with reference count 1. The payload is not zeroed (callers
// fully initialize their nodes). The header is written and flushed without
// a fence; recovery discards blocks whose owning FASE never committed.
func (h *Heap) Alloc(size int, tag uint8) pmem.Addr {
	return h.alloc(size, tag, false, true)
}

// AllocVolatile allocates a navigation node: like Alloc, header flushed
// (recovery must be able to walk the block chain), but the caller will
// not flush the payload. The block table marks it not yet durable
// (IsVolatile) until a checkpoint fold seals it (SealNode); nothing marks
// it in PM, because recovery never follows navigation words to reach it
// (RegisterNavigation, DESIGN.md §10).
func (h *Heap) AllocVolatile(size int, tag uint8) pmem.Addr {
	return h.alloc(size, tag, true, true)
}

// AllocNode allocates like Alloc but defers the header flush: the caller
// must finish initializing the payload and then SealNode, whose combined
// header+payload flush covers both. Checksummed node constructors use
// this pairing — it never issues more flushes than Alloc+FlushRange, and
// saves one when header and payload share a cacheline.
func (h *Heap) AllocNode(size int, tag uint8) pmem.Addr {
	return h.alloc(size, tag, false, false)
}

func (h *Heap) alloc(size int, tag uint8, volatile, flushHdr bool) pmem.Addr {
	if size < 0 {
		panic("alloc: negative size")
	}
	stride := strideFor(size)
	sh := h.sh
	sh.mu.Lock()
	hdr, ok := sh.popFreeLocked(stride)
	if !ok {
		start := sh.top
		hdr = placeAt(start, stride)
		h.bumpLocked(uint32(hdr-start) + stride)
		if hdr > start {
			h.carveFillerLocked(start, hdr)
		}
	}
	sh.noteAllocLocked(stride)
	sh.mu.Unlock()
	// Announce the allocation before touching the block so trace checking
	// sees the header write as part of the new block.
	if t := h.dev.Tracer(); t != nil {
		t.Alloc(hdr, uint64(stride), tag)
	}
	h.dev.WriteU64(hdr, packHeader(stride, tag, true))
	// Zero the checksum word: a recycled block's stale checksum must never
	// survive into a reachable header, or verification would flag a
	// perfectly healthy node. SealNode overwrites it on checksummed paths.
	h.dev.WriteU64(hdr+8, 0)
	if flushHdr {
		h.dev.FlushRange(hdr, headerSize)
	}
	return h.registerBlock(hdr, volatile)
}

// registerBlock starts tracking a freshly allocated block at reference
// count 1, a navigation node marked volatile, and returns its payload
// address.
func (h *Heap) registerBlock(hdr pmem.Addr, volatile bool) pmem.Addr {
	v := int32(slotFresh)
	if volatile {
		v |= slotVolatile
	}
	h.sh.blocks.install(hdr + headerSize).Store(v)
	return hdr + headerSize
}

// popFreeLocked takes the most recently freed block of exactly stride
// bytes off the free lists. Caller holds mu.
func (sh *heapShared) popFreeLocked(stride uint32) (hdr pmem.Addr, ok bool) {
	list := sh.free[stride]
	if len(list) == 0 {
		return pmem.Nil, false
	}
	sh.free[stride] = list[:len(list)-1]
	return list[len(list)-1], true
}

// pushFreeLocked files the free block at hdr under its stride. Caller
// holds mu.
func (sh *heapShared) pushFreeLocked(stride uint32, hdr pmem.Addr) {
	sh.free[stride] = append(sh.free[stride], hdr)
}

// noteAllocLocked counts one allocation of stride bytes. Caller holds mu —
// the critical section that popped the free list or bumped.
func (sh *heapShared) noteAllocLocked(stride uint32) {
	sh.stats.Allocs++
	sh.stats.LiveBytes += uint64(stride)
	sh.stats.CumBytes += uint64(stride)
	if sh.stats.LiveBytes > sh.stats.HighWater {
		sh.stats.HighWater = sh.stats.LiveBytes
	}
}

// bumpLocked claims n bytes at the top of the heap and persists the new
// bump pointer. Caller holds sh.mu: the persistent top write must stay
// inside the critical section, or two racing bumps could persist their
// tops out of order and a crash would recover a regressed bump pointer
// below committed allocations.
func (h *Heap) bumpLocked(n uint32) pmem.Addr {
	sh := h.sh
	if sh.top+pmem.Addr(n) > sh.end {
		panic(fmt.Sprintf("alloc: out of persistent memory (top=%#x, need %d, end=%#x)", uint64(sh.top), n, uint64(sh.end)))
	}
	hdr := sh.top
	sh.top += pmem.Addr(n)
	h.dev.WriteU64(offBumpTop, uint64(sh.top))
	h.dev.Clwb(offBumpTop)
	return hdr
}

// carveFillerLocked covers the placement gap [start, end) that a bump
// outside every edit run left in front of a line-aligned block with a
// free header, clwb'd before the gap joins the free lists. Anything a
// later FASE commits there or above is ordered after that clwb by its own
// fence, so the chain walk never meets the filler torn under a committed
// block. Caller holds sh.mu.
func (h *Heap) carveFillerLocked(start, end pmem.Addr) {
	n := h.writeFreeHeader(start, end)
	h.dev.Clwb(start)
	h.sh.pushFreeLocked(n, start)
}

// writeFreeHeader writes the header of a free block spanning [start,
// end), unflushed, and returns its stride. The carve is announced so
// trace checking attributes the header write to a block of this FASE.
func (h *Heap) writeFreeHeader(start, end pmem.Addr) uint32 {
	n := uint32(end - start)
	if t := h.dev.Tracer(); t != nil {
		t.Alloc(start, uint64(n), 0)
	}
	h.dev.WriteU64(start, packHeader(n, 0, false))
	return n
}

// header returns the parsed header of the block owning payload addr. A
// payload address outside the heap can only have been decoded from a
// damaged node: it raises the typed corruption panic before the device is
// touched (whose own range check panics with its lock held).
func (h *Heap) header(payload pmem.Addr) (stride uint32, tag uint8) {
	if payload < heapBase+headerSize || payload >= h.sh.end {
		panic(&CorruptionPanic{Block: BlockError{Addr: payload, Reason: "pointer outside heap"}})
	}
	raw := h.dev.ReadU64(payload - headerSize)
	stride, tag, _, ok := unpackHeader(raw)
	if !ok {
		panic(&CorruptionPanic{Block: BlockError{Addr: payload, Reason: fmt.Sprintf("bad header word %#x", raw)}})
	}
	return stride, tag
}

// PayloadSize returns the usable bytes of the block at payload addr.
func (h *Heap) PayloadSize(payload pmem.Addr) int {
	stride, _ := h.header(payload)
	return int(stride) - headerSize
}

// IsVolatile reports whether the block at payload is a navigation node
// whose payload no checkpoint has sealed yet. It reads the block table,
// not PM.
func (h *Heap) IsVolatile(payload pmem.Addr) bool {
	s := h.sh.blocks.slot(payload)
	return s != nil && s.Load()&slotVolatile != 0
}

// SealNode computes the checksum of the node at payload over its first n
// initialized bytes, writes the checksum word, and flushes header and
// payload as one range. It pairs with AllocNode: the pairing issues at
// most as many clwbs as the eager Alloc + FlushRange(payload, n) it
// replaces (one fewer when header and payload share a line), so
// steady-state flushes/op is unchanged by checksumming. n must cover
// every byte the caller wrote: in-place mutations after publication are
// only legal on edit-owned nodes (resealed by Edit.Seal) or via
// ResealNode. A navigation node it seals is no longer volatile: the mark
// clears after the flush is issued, and a fold seals children first, so a
// fold's fence orders every flush below a cleared mark (DESIGN.md §10).
func (h *Heap) SealNode(payload pmem.Addr, n int) {
	hdr := payload - headerSize
	h.dev.WriteU64(hdr+8, packCheck(n, h.nodeCRC(hdr, n)))
	h.dev.FlushRange(hdr, headerSize+n)
	if s := h.sh.blocks.slot(payload); s != nil && s.Load()&slotVolatile != 0 {
		s.And(^slotVolatile)
	}
}

// ResealNode recomputes the checksum of an already-sealed node after an
// in-place rewrite of its payload (the checkpoint path's selective-header
// ext rewrite, DESIGN.md §10) and flushes the checksum word's line. The
// caller flushes the rewritten payload range itself and orders both under
// its own fence.
func (h *Heap) ResealNode(payload pmem.Addr) {
	hdr := payload - headerSize
	n, _, has := unpackCheck(h.dev.ReadU64(hdr + 8))
	if !has {
		return
	}
	h.dev.WriteU64(hdr+8, packCheck(n, h.nodeCRC(hdr, n)))
	h.dev.Clwb(hdr + 8)
}

// SetChecksum writes the checksum word for the node at payload covering n
// bytes, without flushing: the caller owns the flush (Edit.Seal folds the
// word into the edit's deduplicated flush sweep).
func (h *Heap) SetChecksum(payload pmem.Addr, n int) {
	hdr := payload - headerSize
	h.dev.WriteU64(hdr+8, packCheck(n, h.nodeCRC(hdr, n)))
}

// Checksum reports the node's checksum word state: whether one is
// present, the covered length, and whether recomputation matches.
func (h *Heap) Checksum(payload pmem.Addr) (n int, ok, has bool) {
	hdr := payload - headerSize
	n, crc, has := unpackCheck(h.dev.ReadU64(hdr + 8))
	if !has {
		return 0, true, false
	}
	if n < 0 || n > int(h.strideOf(payload))-headerSize {
		return n, false, true
	}
	return n, h.nodeCRC(hdr, n) == crc, true
}

// Extent returns how many payload bytes of the block at payload a reader
// may take a length stored in it to reach: the checksum-covered length of
// a sealed block, the payload size of any other, and never past the
// block or the heap. Both header words come in one read through sc, or
// in two word reads without one (a fresh buffer would cost the caller a
// Go allocation). A malformed header raises the typed corruption panic,
// as Tag's does.
func (h *Heap) Extent(payload pmem.Addr, sc *Scratch) int {
	if payload < heapBase+headerSize || payload >= h.sh.end {
		panic(&CorruptionPanic{Block: BlockError{Addr: payload, Reason: "pointer outside heap"}})
	}
	var word, check uint64
	if sc == nil {
		word, check = h.dev.ReadU64(payload-headerSize), h.dev.ReadU64(payload-headerSize+8)
	} else {
		hdr := sc.Bytes(headerSize)
		h.dev.Read(payload-headerSize, hdr)
		word, check = leU64(hdr), leU64(hdr[8:])
	}
	stride, tag, _, ok := unpackHeader(word)
	size := int(stride) - headerSize
	if !ok || size < 0 || uint64(payload)+uint64(size) > uint64(h.sh.end) {
		panic(&CorruptionPanic{Block: BlockError{Addr: payload, Tag: tag, Reason: fmt.Sprintf("bad header word %#x", word)}})
	}
	if n, _, has := unpackCheck(check); has && n < size {
		return n
	}
	return size
}

// strideOf returns the stride of the block at payload (panics on a
// corrupt header; verification paths parse headers through raw reads
// instead).
func (h *Heap) strideOf(payload pmem.Addr) uint32 {
	stride, _ := h.header(payload)
	return stride
}

// Tag returns the type tag of the block at payload addr.
func (h *Heap) Tag(payload pmem.Addr) uint8 {
	_, tag := h.header(payload)
	return tag
}

// RefCount returns the current reference count of the block (0 if unknown).
func (h *Heap) RefCount(payload pmem.Addr) int32 {
	if s := h.sh.blocks.tracked(payload); s != nil {
		return s.Load()&slotCount - 1
	}
	return 0
}

// Retain increments the reference count of the block at payload addr.
// Reference counts are volatile (§5.3): they cost no flushes and are
// rebuilt from reachability during recovery.
func (h *Heap) Retain(payload pmem.Addr) {
	if payload == pmem.Nil {
		return
	}
	s := h.sh.blocks.tracked(payload)
	if s == nil {
		panic(fmt.Sprintf("alloc: retain of untracked block %#x", uint64(payload)))
	}
	s.Add(1)
}

// RetainRef is Retain for a reference decoded from a node's bytes, where
// "no block starts there" is damage to the node rather than a caller bug:
// it raises the typed panic VerifyRef does. Settling a borrowed path copy
// (borrow.go) takes its references this way.
func (h *Heap) RetainRef(payload pmem.Addr) {
	if payload == pmem.Nil {
		return
	}
	s := h.sh.blocks.tracked(payload)
	if s == nil {
		panic(nonBlockRef(payload))
	}
	s.Add(1)
}

// Release decrements the reference count; at zero the block and every
// block reachable only through it are retired until both a fence and the
// epoch grace period have passed (epoch.go). Release(Nil) is a no-op.
//
// The cascade happens eagerly, at retirement: once a version's root drops
// to zero references the whole dead subtree is unreachable from any root,
// and a reader that pinned an epoch before the unlink is protected by the
// same grace period for the children as for the root. Eager cascading
// keeps reclamation wait-free for other writers (no walker runs inside
// the reclaim pass) and keeps the trace-event order of invariant I4:
// every Free precedes the fence after which the block may be reused.
func (h *Heap) Release(payload pmem.Addr) {
	if payload == pmem.Nil || h.DisableReclaim {
		return
	}
	if h.decRef(payload, "release") {
		h.retireCascade(payload)
	}
}

// decRef drops one reference and reports whether the count hit zero; op
// names the caller in the panic raised for an untracked or dead block.
func (h *Heap) decRef(payload pmem.Addr, op string) bool {
	s := h.sh.blocks.tracked(payload)
	if s == nil {
		panic(fmt.Sprintf("alloc: %s of untracked block %#x", op, uint64(payload)))
	}
	n := s.Add(-1) & slotCount
	if n == 0 {
		s.Add(1) // keep the dead block tracked, as a plain counter would
		panic(fmt.Sprintf("alloc: %s of dead block %#x", op, uint64(payload)))
	}
	return n == 1
}

// ReleaseDeferred schedules a release of the block at payload addr to
// run only after the EBR epoch grace period has passed, instead of
// decrementing eagerly. Commit paths use it for the root version a
// publication just replaced: an optimistic writer that pinned the epoch
// and snapshotted that version lock-free may still be copying nodes out
// of it — registering a borrow on one, or Retaining its children — and an
// eager retire-time cascade could drop a shared child to zero an instant
// before such a Retain resurrects it (a double retire). Because the
// deferred decrement waits out the same grace period that protects
// readers, no builder based on the old version can still be pinned when
// the cascade finally runs — which is also what lets the cascade trust a
// dying block's borrow flags (borrow.go). The cascade stamps its
// blocks with the fence sequence at cascade time (see processDeferred),
// so with no pinned readers the chain is cascaded by one Fence and freed
// by the next — Drain fences as needed to finish the job in one call.
// ReleaseDeferred(Nil) is a no-op.
func (h *Heap) ReleaseDeferred(payload pmem.Addr) {
	if payload == pmem.Nil || h.DisableReclaim {
		return
	}
	h.sh.ebr.deferRelease(payload)
}

// retireCascade retires a zero-reference block and walks its subtree,
// dropping child counts and retiring those that reach zero. All retired
// blocks are tagged with the current epoch and fence sequence: they were
// orphaned by the same commit, so one fence covers them all.
//
// The cascade is collected locally and published to the retired list only
// after every walk has finished. Publishing earlier would race: a
// concurrent fence on another handle could reclaim and recycle a block
// this cascade is still reading child pointers from.
func (h *Heap) retireCascade(payload pmem.Addr) {
	c := h.takeCascade()
	c.collect(payload)
	h.sh.ebr.retireBatch(c.dead, h.dev.FenceSeq())
	h.putCascade(c)
}

// cascade is the working state of retire cascades on one handle: the
// walk stack, the dead list being collected and the walkers' node-image
// buffer. A handle parks it between cascades so a steady-state release
// allocates nothing. Settling a borrowed path copy (borrow.go) walks a
// node the same way and uses the same state.
type cascade struct {
	h     *Heap
	stack []pmem.Addr
	dead  []deadBlock
	sc    Scratch
	own   pmem.Addr // retainShared: the child keep passes over, once
	// The walkers' visit functions, bound once: drop releases a dead
	// node's child, keep retains a settled copy's.
	drop, keep func(child pmem.Addr)
}

// deadBlock is a zero-reference block a cascade collected, with the
// stride its header carried.
type deadBlock struct {
	addr   pmem.Addr
	stride uint32
}

// takeCascade returns the handle's parked cascade state, or fresh state
// when it is in use (a goroutine sharing the handle).
func (h *Heap) takeCascade() *cascade {
	if c := h.spareCascade.Swap(nil); c != nil {
		return c
	}
	c := &cascade{h: h}
	c.drop = func(child pmem.Addr) {
		if child != pmem.Nil && h.decRef(child, "cascade release") {
			c.stack = append(c.stack, child)
		}
	}
	c.keep = func(child pmem.Addr) {
		if child == c.own {
			c.own = pmem.Nil
			return
		}
		h.RetainRef(child)
	}
	return c
}

// putCascade parks c for the handle's next cascade.
func (h *Heap) putCascade(c *cascade) {
	c.dead = c.dead[:0]
	h.spareCascade.Store(c)
}

// collect appends payload and every block reachable only through it to
// c.dead, dropping child reference counts along the way. A block in a
// borrow record releases only the children it alone held (borrow.go), in
// the order its walker would have met them, so the dead list — and with
// it free-list order — is what walking every node produces.
func (c *cascade) collect(payload pmem.Addr) {
	h := c.h
	c.stack = append(c.stack[:0], payload)
	for len(c.stack) > 0 {
		a := c.stack[len(c.stack)-1]
		c.stack = c.stack[:len(c.stack)-1]
		stride, tag := h.header(a)
		if t := h.dev.Tracer(); t != nil {
			t.Free(a-headerSize, uint64(stride))
		}
		c.dead = append(c.dead, deadBlock{addr: a, stride: stride})
		// Unlocked: nothing copies a dead block, so its flags can only clear.
		if s := h.sh.blocks.slot(a); s.Load()&slotBorrowFlags != 0 && c.releaseOwn(a, s) {
			continue
		}
		h.walkRefs(tag, a, &c.sc, c.drop)
	}
}

// freeBlock returns a retired block to the free lists. Reference counts
// were already cascaded at retirement, so this is pure bookkeeping.
// Called with the ebr lock held; takes sh.mu for the free lists.
func (h *Heap) freeBlock(r retiredBlock) {
	sh := h.sh
	stride := r.stride
	if c := sh.cache.Load(); c != nil {
		c.invalidate(r.addr)
	}
	// Untrack before the block can be popped off a free list: a racing
	// allocation's registerBlock must never be overwritten by this clear.
	if sh.blocks.slot(r.addr).Swap(0)&slotTaint != 0 {
		sh.taintCount.Add(-1)
	}
	sh.mu.Lock()
	sh.pushFreeLocked(stride, r.addr-headerSize)
	sh.stats.Frees++
	sh.stats.LiveBytes -= uint64(stride)
	sh.mu.Unlock()
}

// fenceDeferBudget bounds how many deferred releases one Fence cascades.
// Steady-state production is about one deferred entry per commit (the
// superseded root version), so the budget drains any backlog left by a
// stretch of pinned epochs within a few dozen fences instead of lumping
// the whole backlog's cascade cost onto one caller.
const fenceDeferBudget = 64

// Reclaim runs one exhaustive reclamation pass — every retired block
// already fence-covered and past its epoch grace period is freed, and
// every eligible deferred release is cascaded, with no incremental
// budget — but issues no fences of its own: blocks whose stamp is not
// yet covered stay quarantined for a later pass. Use it to tidy
// opportunistically on a path whose fence count is meaningful; Drain
// below also completes the job with its own fences.
func (h *Heap) Reclaim() { h.sh.ebr.reclaim(h, int(^uint(0)>>1)) }

// Drain reclaims every retired block whose orphaning commit is durable
// (a fence has executed since its retirement) and whose epoch grace
// period has passed, cascading releases to children — including every
// queued deferred release whose grace period allows it, with no
// incremental budget. Deferred cascades are stamped with the fence
// sequence at cascade time, so fully emptying the quarantine can take a
// further fence; Drain issues its own and loops until it stops making
// progress (blocks held by a still-pinned reader stay quarantined, as
// they must). Call it at a quiescent point — Sync and Close use it;
// per-FASE fences run the budget-bounded reclaim instead.
func (h *Heap) Drain() {
	prev := -1
	for {
		h.Reclaim()
		n := h.sh.ebr.pendingCount()
		if n == 0 || n == prev {
			return
		}
		prev = n
		h.dev.Sfence()
	}
}

// Fence orders all outstanding flushes (the single ordering point a MOD
// FASE executes, §5.1) and then reclaims retired blocks now covered by
// it. Freeing after the sfence is safe — frees are volatile — and means a
// block orphaned by a commit earlier in this interval becomes reusable
// immediately, preserving the one-fence-per-FASE property. Deferred
// releases are cascaded incrementally (fenceDeferBudget per call) so no
// single fence absorbs an entire backlog's reclamation cost.
func (h *Heap) Fence() {
	h.dev.Sfence()
	h.sh.ebr.reclaim(h, fenceDeferBudget)
}
