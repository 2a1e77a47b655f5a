package alloc

import (
	"encoding/binary"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Stage slots and cell words (roots.go): the allocator half of the staged
// one-root publication. Package core drives the protocol end to end; these
// tests pin what recovery decides from a slot on images built by hand.

const tagLeaf = 3 // a test leaf: no walker, 8 payload bytes

// stagedVersion builds a two-block version in a sealed edit — a pair node
// whose first child is a leaf holding val — and returns the node and its
// fresh blocks.
func stagedVersion(h *Heap, val uint64) (pmem.Addr, []pmem.Addr) {
	ed := h.BeginEdit()
	leaf := ed.Alloc(8, tagLeaf)
	h.dev.WriteU64(leaf, val)
	ed.RecordNode(leaf, 8)
	node := ed.Alloc(16, tagPair)
	h.dev.WriteU64(node, uint64(leaf))
	h.dev.WriteU64(node+8, 0)
	ed.RecordNode(node, 16)
	fresh := ed.Fresh(node, nil)
	ed.Seal()
	return node, fresh
}

// armStaging makes h's stage-live flag durable, as the fence after a
// store's first staging attempt does.
func armStaging(t *testing.T, h *Heap) {
	t.Helper()
	h.StageReady()
	h.Fence()
	if !h.StageReady() {
		t.Fatal("the stage-live flag is not durable after a fence")
	}
}

// reopen recovers a crash image of h's device.
func reopen(t *testing.T, h *Heap, img []byte) (*Heap, RecoveryStats) {
	t.Helper()
	h2, err := Open(pmem.NewFromImage(pmem.DefaultConfig(int64(len(img))), img))
	if err != nil {
		t.Fatal(err)
	}
	registerPairWalker(h2)
	rs, err := h2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return h2, rs
}

// TestStagedGhostBlockFailsDigest builds the image hazard (a) leaves: a
// publication B staged and fenced, its cell write lost, and one of its
// fresh blocks holding — instead of its own bytes — another node's bytes
// with a checksum that verifies, as a recycled block whose rewrite never
// persisted does. The blocks' shape, count and checksums all check; only
// the fold of (address, stored checksum) the slot binds differs, and the
// slot must not apply. Without the ghost it applies, and recovery keeps
// B's blocks and sweeps the replaced version's.
func TestStagedGhostBlockFailsDigest(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	armStaging(t, h)
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()
	b, fresh := stagedVersion(h, 2)
	if len(fresh) != 2 || fresh[0] != b {
		t.Fatalf("fresh set %#x, want B's node then its leaf", fresh)
	}
	if !h.StageRoot(slot, a, b, fresh) {
		t.Fatal("StageRoot refused a checksummed publication")
	}
	h.Fence() // the publication's fence; its SetRoot never reaches PM
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)

	h2, rs := reopen(t, h, img)
	if h2.Root(slot) != b || rs.StagedRoots != 1 || rs.LiveBlocks != 2 || rs.LeakedBlocks != 2 {
		t.Fatalf("intact staged publication: root %#x (want B %#x), %d moved, %d live, %d leaked", uint64(h2.Root(slot)), uint64(b), rs.StagedRoots, rs.LiveBlocks, rs.LeakedBlocks)
	}

	aLeaf := pmem.Addr(binary.LittleEndian.Uint64(img[a:]))
	bLeaf := fresh[1]
	ghost := append([]byte(nil), img...)
	copy(ghost[bLeaf-headerSize:bLeaf+8], img[aLeaf-headerSize:aLeaf+8])
	h3, rs := reopen(t, h, ghost)
	if h3.Root(slot) != a || rs.StagedRoots != 0 {
		t.Fatalf("ghost leaf: root %#x (want A %#x), %d moved", uint64(h3.Root(slot)), uint64(a), rs.StagedRoots)
	}
	if err := h3.VerifyBlock(bLeaf); err != nil {
		t.Fatalf("the ghost must be a node whose own checksum verifies: %v", err)
	}
}

// TestStagedSlotsChainOldestFirst stages two publications back to back on
// one root, fences both, and loses both cell writes: recovery applies the
// older slot, then the newer one, whose old word is the older one's
// final, and the root ends on the newer version with exact counts.
// Damaging the newer slot's meta keeps the root on the older version; a
// cell word naming the same address with another counter applies nothing.
func TestStagedSlotsChainOldestFirst(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	armStaging(t, h)
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()
	cellA := dev.ReadU64(h.RootCellAddr(slot))
	b, fb := stagedVersion(h, 2)
	h.StageRoot(slot, a, b, fb)
	h.Fence()
	h.SetRoot(slot, b)
	c, fc := stagedVersion(h, 3)
	h.StageRoot(slot, b, c, fc)
	h.Fence()
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	binary.LittleEndian.PutUint64(img[h.RootCellAddr(slot):], cellA) // both cell writes lost

	h2, rs := reopen(t, h, img)
	if h2.Root(slot) != c || rs.StagedRoots != 1 || rs.LiveBlocks != 2 {
		t.Fatalf("root %#x (want C %#x), %d moved, %d live blocks", uint64(h2.Root(slot)), uint64(c), rs.StagedRoots, rs.LiveBlocks)
	}
	for _, blk := range append(fc, h2.Root(slot)) {
		if got := h2.RefCount(blk); got != 1 {
			t.Errorf("block %#x recovered with count %d, want 1", uint64(blk), got)
		}
	}
	for i := 0; i < stageSlots; i++ {
		if h2.readStage(slot, i).meta != 0 {
			t.Errorf("stage slot %d survived the recovery that decided it", i)
		}
	}

	torn := append([]byte(nil), img...)
	at := h.stageSlotAddr(slot, stageIndex(nextCellWord(nextCellWord(cellA, b), c))) + 16
	binary.LittleEndian.PutUint64(torn[at:], binary.LittleEndian.Uint64(torn[at:])^1<<40)
	if h3, _ := reopen(t, h, torn); h3.Root(slot) != b {
		t.Fatalf("newer slot torn: root %#x, want B %#x", uint64(h3.Root(slot)), uint64(b))
	}

	reused := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(reused[h.RootCellAddr(slot):], cellWord(a, cellA>>cellAddrBits+2))
	if h4, rs := reopen(t, h, reused); h4.Root(slot) != a || rs.StagedRoots != 0 {
		t.Fatalf("A's address under a later counter: root %#x, %d moved; want A, none", uint64(h4.Root(slot)), rs.StagedRoots)
	}
}

// TestCellWordCounter: every write of a root cell advances the root's
// publication counter — computed from the heap's mirror, so SetRoot reads
// nothing and CasRoot only its compare — Root reads the address alone, and
// a CAS compares the whole word.
func TestCellWordCounter(t *testing.T) {
	h := newTestHeap(t)
	slot, _ := h.RootSlot("r")
	cell := h.RootCellAddr(slot)
	var prev uint64
	for i, v := range []pmem.Addr{0x2000, 0x2000, 0x3008} {
		before := h.dev.Stats().Reads
		h.SetRoot(slot, v)
		if reads := h.dev.Stats().Reads - before; reads != 0 {
			t.Fatalf("write %d: SetRoot read PM %d times", i, reads)
		}
		w := h.dev.ReadU64(cell)
		if h.Root(slot) != v || w>>cellAddrBits != prev>>cellAddrBits+1 {
			t.Fatalf("write %d: cell word %#x, Root %#x; want %#x under counter %d", i, w, uint64(h.Root(slot)), uint64(v), prev>>cellAddrBits+1)
		}
		prev = w
	}
	if h.CasRoot(slot, 0x2000, 0x4000) {
		t.Fatal("CAS against a superseded address succeeded")
	}
	before := h.dev.Stats().Reads
	if !h.CasRoot(slot, 0x3008, 0x4000) || h.dev.Stats().Reads-before != 1 {
		t.Fatalf("CAS lost or read PM %d times besides its compare", h.dev.Stats().Reads-before-1)
	}
	if h.Root(slot) != 0x4000 || h.dev.ReadU64(cell)>>cellAddrBits != prev>>cellAddrBits+1 {
		t.Fatalf("CAS: cell word %#x", h.dev.ReadU64(cell))
	}
	// A reopened heap mirrors the cells recovery reads.
	h.SetRoot(slot, pmem.Nil) // no block behind 0x4000 for recovery to find
	h.Fence()
	h2, _ := reopen(t, h, h.dev.(*pmem.Device).CrashImage(pmem.CrashFencedOnly, 0))
	before = h2.dev.Stats().Reads
	h2.SetRoot(slot, pmem.Nil)
	if h2.dev.Stats().Reads != before || h2.dev.ReadU64(cell)>>cellAddrBits != prev>>cellAddrBits+3 {
		t.Fatalf("after recovery: cell word %#x, %d reads", h2.dev.ReadU64(cell), h2.dev.Stats().Reads-before)
	}
	if got, ok := RootSlotOfCell(cell); !ok || got != slot {
		t.Fatalf("RootSlotOfCell(%#x) = %d, %v", uint64(cell), got, ok)
	}
	for _, bad := range []pmem.Addr{cell + 8, cell - 8, rootEntryAddr(RootSlots) + 8, 0} {
		if _, ok := RootSlotOfCell(bad); ok {
			t.Errorf("RootSlotOfCell(%#x) accepted a non-cell", uint64(bad))
		}
	}
}

// TestStageLiveFlag: a heap's first StageRoot stages nothing and sets the
// version word's stage-live flag; only once a fence has made the flag
// durable do stage slots get written. A heap whose flag is clear recovers
// without reading its stage table (here every line of it is dead media),
// and one whose flag is set reads it.
func TestStageLiveFlag(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()

	deadTable := func(img []byte) *pmem.Device {
		d := pmem.NewFromImage(pmem.DefaultConfig(int64(len(img))), img)
		tb := h.StageTableRange()
		for at := tb[0]; at < tb[1]; at += pmem.LineSize {
			d.MarkLineDead(at)
		}
		return d
	}
	if h2, err := Open(deadTable(dev.CrashImage(pmem.CrashFencedOnly, 0))); err != nil {
		t.Fatal(err)
	} else {
		registerPairWalker(h2)
		if _, err := h2.Recover(); err != nil {
			t.Fatalf("a heap that never staged read its stage table: %v", err)
		}
	}

	b, fb := stagedVersion(h, 2)
	if h.StageRoot(slot, a, b, fb) {
		t.Fatal("the first StageRoot staged before the stage-live flag was durable")
	}
	if dev.ReadU64(offVersion) != version|stageLive || dev.ReadU64(h.stageSlotAddr(slot, 1)+16) != 0 {
		t.Fatalf("version word %#x after the first StageRoot, or a slot was written", dev.ReadU64(offVersion))
	}
	if h.StageRoot(slot, a, b, fb) {
		t.Fatal("StageRoot staged before a fence made the flag durable")
	}
	h.Fence()
	if !h.StageRoot(slot, a, b, fb) {
		t.Fatal("StageRoot refused after the flag's fence")
	}
	h.Fence()
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	if h2, rs := reopen(t, h, img); h2.Root(slot) != b || rs.StagedRoots != 1 {
		t.Fatalf("root %#x, %d moved; want the staged B", uint64(h2.Root(slot)), rs.StagedRoots)
	}
	h3, err := Open(deadTable(img))
	if err != nil {
		t.Fatal(err)
	}
	registerPairWalker(h3)
	func() {
		defer func() { recover() }()
		h3.Recover()
		t.Fatal("a heap whose flag is set recovered without reading its stage table")
	}()
}

// TestStageWrapGuard: a root that staged has its stage slots cleared as its
// publication counter passes each multiple of wrapGuard — the older slot
// at the multiple, the other one at the next publication, whose fence has
// covered the multiple's cell write — so no slot survives until the
// counter wraps back to its old word.
func TestStageWrapGuard(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	slot, _ := h.RootSlot("r")
	armStaging(t, h)
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()
	for n := 0; n < 2; n++ {
		b, fb := stagedVersion(h, uint64(n+2))
		if !h.StageRoot(slot, h.Root(slot), b, fb) {
			t.Fatal("StageRoot refused")
		}
		h.Fence()
		h.SetRoot(slot, b)
	}
	meta := func(i int) uint64 { return h.dev.ReadU64(h.stageSlotAddr(slot, i) + 16) }
	if meta(0) == 0 || meta(1) == 0 {
		t.Fatal("two staged publications left an empty slot")
	}
	// Jump the counter to just below the guard, as that many publications would.
	w := cellWord(h.Root(slot), wrapGuard-1)
	h.dev.WriteU64(h.RootCellAddr(slot), w)
	h.sh.cells[slot].Store(w + 1)
	h.Fence()
	h.SetRoot(slot, h.Root(slot)) // counter wrapGuard: parity 0
	if meta(1) != 0 || meta(0) == 0 {
		t.Fatalf("at the guard: slot metas %#x %#x, want slot 1 cleared only", meta(0), meta(1))
	}
	h.Fence()
	h.SetRoot(slot, h.Root(slot))
	if meta(0) != 0 {
		t.Fatalf("one past the guard: slot 0 meta %#x, want cleared", meta(0))
	}
}

// TestStagedSlotOfUnnamedRootConsumed: a root whose claim never reached PM
// may still have left a stage slot behind. Recovery must consume it too —
// a later root claiming that slot starts from the same empty cell word
// the slot names as its old one.
func TestStagedSlotOfUnnamedRootConsumed(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	armStaging(t, h)
	b, fb := stagedVersion(h, 1)
	if !h.StageRoot(slot, pmem.Nil, b, fb) {
		t.Fatal("StageRoot refused")
	}
	h.Fence()
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	binary.LittleEndian.PutUint64(img[rootEntryAddr(slot):], 0) // the claim lost
	h2, rs := reopen(t, h, img)
	if rs.StagedRoots != 0 || h2.HasRoot("r") {
		t.Fatalf("an unnamed root's slot was applied (%d moved)", rs.StagedRoots)
	}
	for i := 0; i < stageSlots; i++ {
		if h2.readStage(slot, i).meta != 0 {
			t.Fatalf("stage slot %d of an unnamed root survived recovery", i)
		}
	}
}

// TestStageTableZeroedWhenArmed: a heap formatted over an arena keeps the
// older heap's stage table bytes until its own first staging attempt
// zeroes them. Here the older heap staged a first publication and the new
// one builds the very same blocks at the same addresses but never
// publishes them: recovery must not find the older heap's slot.
func TestStageTableZeroedWhenArmed(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	armStaging(t, h)
	b, fb := stagedVersion(h, 1)
	if !h.StageRoot(slot, pmem.Nil, b, fb) {
		t.Fatal("StageRoot refused")
	}
	h.Fence()

	h2 := Format(dev)
	registerPairWalker(h2)
	if s2, _ := h2.RootSlot("r"); s2 != slot {
		t.Fatalf("root slot %d, want %d", s2, slot)
	}
	armStaging(t, h2)
	if b2, _ := stagedVersion(h2, 1); b2 != b {
		t.Fatalf("the new heap's version is at %#x, want the older one's %#x", uint64(b2), uint64(b))
	}
	h2.Fence()
	h3, rs := reopen(t, h2, dev.CrashImage(pmem.CrashFencedOnly, 0))
	if h3.Root(slot) != pmem.Nil || rs.StagedRoots != 0 {
		t.Fatalf("root %#x, %d moved: an older heap's stage slot was applied", uint64(h3.Root(slot)), rs.StagedRoots)
	}
}
