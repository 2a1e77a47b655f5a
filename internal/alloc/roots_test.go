package alloc

import (
	"encoding/binary"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Stage slots and cell words (roots.go): the allocator half of staged
// publication. Package core drives the protocol end to end; these tests
// pin what recovery decides from the slots of images built by hand.

const tagLeaf = 3 // a test leaf: no walker, 8 payload bytes

// stagedVersion builds a two-block version in a sealed edit — a pair node
// whose first child is a leaf holding val — and returns the node and its
// fresh blocks, the edit's ledger.
func stagedVersion(h *Heap, val uint64) (pmem.Addr, []pmem.Addr) {
	ed := h.BeginEdit()
	mark := ed.Mark()
	leaf := ed.Alloc(8, tagLeaf)
	h.dev.WriteU64(leaf, val)
	ed.RecordNode(leaf, 8)
	node := ed.Alloc(16, tagPair)
	h.dev.WriteU64(node, uint64(leaf))
	h.dev.WriteU64(node+8, 0)
	ed.RecordNode(node, 16)
	fresh := ed.Fresh(mark, nil)
	ed.Seal()
	return node, fresh
}

// stageOne stages the next publication of slot, final with its fresh
// blocks, as a group of one.
func stageOne(h *Heap, slot int, final pmem.Addr, fresh []pmem.Addr) bool {
	return h.StageGroup([]StagedRoot{{Slot: slot, Final: final, Fresh: fresh}}, 0)
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
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()
	b, fresh := stagedVersion(h, 2)
	if len(fresh) != 2 || fresh[1] != b {
		t.Fatalf("fresh set %#x, want B's leaf then its node (registration order)", fresh)
	}
	if !stageOne(h, slot, b, fresh) {
		t.Fatal("StageGroup refused a checksummed publication")
	}
	h.Fence() // the publication's fence; its SetRoot never reaches PM
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)

	h2, rs := reopen(t, h, img)
	if h2.Root(slot) != b || rs.StagedRoots != 1 || rs.LiveBlocks != 2 || rs.LeakedBlocks != 2 {
		t.Fatalf("intact staged publication: root %#x (want B %#x), %d moved, %d live, %d leaked", uint64(h2.Root(slot)), uint64(b), rs.StagedRoots, rs.LiveBlocks, rs.LeakedBlocks)
	}

	aLeaf := pmem.Addr(binary.LittleEndian.Uint64(img[a:]))
	bLeaf := fresh[0]
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
// A slot's old word is implied by its final's counter, so the second slot
// binds the first's publication without naming it.
func TestStagedSlotsChainOldestFirst(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()
	cellA := dev.ReadU64(h.RootCellAddr(slot))
	b, fb := stagedVersion(h, 2)
	stageOne(h, slot, b, fb)
	h.Fence()
	h.SetRoot(slot, b)
	c, fc := stagedVersion(h, 3)
	stageOne(h, slot, c, fc)
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
	at := h.stageSlotAddr(slot, stageIndex(nextCellWord(nextCellWord(cellA, b), c))) + 24
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
}

// TestStageTableArmedAtFormat: Format zeroes the stage table under its
// own fence, so recovery reads the table of every heap and a heap stages
// from its first publication on. Over an arena whose table is full of an
// older heap's slots, a fenced-only image taken right after Format holds
// a zero table and the plain version word; the first StageGroup writes its
// slot and pays no fence of its own.
func TestStageTableArmedAtFormat(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	tb := Format(dev).StageTableRange()
	for at := tb[0]; at < tb[1]; at += 8 {
		dev.WriteU64(at, 0xdead)
	}
	dev.FlushRange(tb[0], int(tb[1]-tb[0]))
	dev.Sfence()

	h := Format(dev)
	registerPairWalker(h)
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	if v := binary.LittleEndian.Uint64(img[offVersion:]); v != version {
		t.Fatalf("version word %#x after Format, want %d", v, version)
	}
	for at := tb[0]; at < tb[1]; at += 8 {
		if w := binary.LittleEndian.Uint64(img[at:]); w != 0 {
			t.Fatalf("stage table word %#x = %#x in the image right after Format", uint64(at), w)
		}
	}
	slot, _ := h.RootSlot("r")
	b, fb := stagedVersion(h, 1)
	fences := dev.Stats().Fences
	if !stageOne(h, slot, b, fb) || dev.Stats().Fences != fences {
		t.Fatalf("the first StageGroup after Format refused or fenced (%d fences)", dev.Stats().Fences-fences)
	}
	h.Fence()
	if h2, rs := reopen(t, h, dev.CrashImage(pmem.CrashFencedOnly, 0)); h2.Root(slot) != b || rs.StagedRoots != 1 {
		t.Fatalf("root %#x, %d moved; want the staged B", uint64(h2.Root(slot)), rs.StagedRoots)
	}
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
	a, _ := stagedVersion(h, 1)
	h.Fence()
	h.SetRoot(slot, a)
	h.Fence()
	for n := 0; n < 2; n++ {
		b, fb := stagedVersion(h, uint64(n+2))
		if !stageOne(h, slot, b, fb) {
			t.Fatal("StageGroup refused")
		}
		h.Fence()
		h.SetRoot(slot, b)
	}
	meta := func(i int) uint64 { return h.dev.ReadU64(h.stageSlotAddr(slot, i) + 24) }
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
	b, fb := stagedVersion(h, 1)
	if !stageOne(h, slot, b, fb) {
		t.Fatal("StageGroup refused")
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

// TestStageTableZeroedWhenArmed: the stage table is armed — zeroed and
// fenced — when the heap is formatted, so a heap formatted over an arena
// never shows recovery the older heap's slots. Here the older heap staged
// a first publication and the new one builds the very same blocks at the
// same addresses but never publishes them: recovery must not find the
// older heap's slot.
func TestStageTableZeroedWhenArmed(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	slot, _ := h.RootSlot("r")
	b, fb := stagedVersion(h, 1)
	if !stageOne(h, slot, b, fb) {
		t.Fatal("StageGroup refused")
	}
	h.Fence()

	h2 := Format(dev)
	registerPairWalker(h2)
	if s2, _ := h2.RootSlot("r"); s2 != slot {
		t.Fatalf("root slot %d, want %d", s2, slot)
	}
	if b2, _ := stagedVersion(h2, 1); b2 != b {
		t.Fatalf("the new heap's version is at %#x, want the older one's %#x", uint64(b2), uint64(b))
	}
	h2.Fence()
	h3, rs := reopen(t, h2, dev.CrashImage(pmem.CrashFencedOnly, 0))
	if h3.Root(slot) != pmem.Nil || rs.StagedRoots != 0 {
		t.Fatalf("root %#x, %d moved: an older heap's stage slot was applied", uint64(h3.Root(slot)), rs.StagedRoots)
	}
}

// TestStagedGroupDecidedWhole stages a two-root publication and decides it
// on images built by hand. While no swap has landed the group applies iff
// both members are found and both re-verify: a torn member or a damaged
// block keeps both roots, and without digests (a Batch.Commit's members)
// it never applies. Once one member's swap landed, the group's fence had
// completed, and the other member rolls forward unverified, digest or not.
func TestStagedGroupDecidedWhole(t *testing.T) {
	for _, digests := range []bool{true, false} {
		h := newTestHeap(t)
		registerPairWalker(h)
		dev := h.dev.(*pmem.Device)
		s1, _ := h.RootSlot("r1")
		s2, _ := h.RootSlot("r2")
		a1, _ := stagedVersion(h, 1)
		a2, _ := stagedVersion(h, 2)
		h.Fence()
		h.SetRoot(s1, a1)
		h.SetRoot(s2, a2)
		h.Fence()
		b1, f1 := stagedVersion(h, 3)
		b2, f2 := stagedVersion(h, 4)
		ms := []StagedRoot{{Slot: s1, Final: b1, Fresh: f1}, {Slot: s2, Final: b2, Fresh: f2}}
		if !digests {
			ms[0].Fresh, ms[1].Fresh = nil, nil
		}
		if got := h.StageGroup(ms, 0); got != digests {
			t.Fatalf("digests=%v: StageGroup reported %v", digests, got)
		}
		h.Fence()
		img := dev.CrashImage(pmem.CrashFencedOnly, 0)
		check := func(what string, img []byte, want1, want2 pmem.Addr) {
			t.Helper()
			h2, _ := reopen(t, h, img)
			if h2.Root(s1) != want1 || h2.Root(s2) != want2 {
				t.Fatalf("digests=%v, %s: roots %#x %#x, want %#x %#x", digests, what, uint64(h2.Root(s1)), uint64(h2.Root(s2)), uint64(want1), uint64(want2))
			}
		}
		if digests {
			check("no swap landed", img, b1, b2)
		} else {
			check("no swap landed", img, a1, a2)
		}
		torn := append([]byte(nil), img...)
		at := h.stageSlotAddr(s2, stageIndex(h.cellWordOf(s2)+1<<cellAddrBits)) + 24
		binary.LittleEndian.PutUint64(torn[at:], binary.LittleEndian.Uint64(torn[at:])^1)
		check("a member torn", torn, a1, a2)
		damaged := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(damaged[f2[0]:], 99) // b2's leaf no longer matches its checksum
		check("a member's block damaged", damaged, a1, a2)

		h.SetRoot(s1, b1) // the first swap reaches PM, the second does not
		landed := append([]byte(nil), img...)
		cell := h.RootCellAddr(s1) &^ (pmem.LineSize - 1)
		copy(landed[cell:cell+pmem.LineSize], dev.Snapshot()[cell:cell+pmem.LineSize])
		c2 := h.RootCellAddr(s2)
		copy(landed[c2:c2+8], img[c2:c2+8]) // the cells may share a line
		check("one swap landed", landed, b1, b2)
		if _, rs := reopen(t, h, landed); rs.StagedRoots != 1 || rs.LeakedBlocks != 4 {
			t.Fatalf("digests=%v, one swap landed: %d roots moved, %d blocks leaked; want 1 rolled forward, A1's and A2's 4 swept", digests, rs.StagedRoots, rs.LeakedBlocks)
		}
	}
}

// TestGroupMemberSlotHeldUntilCovered: once a two-root group's cells are
// written, its member slots are held until a fence passes the last write.
// A publication on one member's root that reuses the member's slot before
// then — possible when the publication in between was an optimistic CAS
// fenced ahead of the group's last write — fences first, so the other
// member's write is durable before the slot that ties it to the landed
// one is gone. Once a fence has passed, the slot is reused without one.
func TestGroupMemberSlotHeldUntilCovered(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.dev.(*pmem.Device)
	s1, _ := h.RootSlot("r1")
	s2, _ := h.RootSlot("r2")
	b1, f1 := stagedVersion(h, 1)
	b2, f2 := stagedVersion(h, 2)
	ms := []StagedRoot{{Slot: s1, Final: b1, Fresh: f1}, {Slot: s2, Final: b2, Fresh: f2}}
	h.StageGroup(ms, 0)
	h.Fence()
	h.SetRoot(s1, b1)
	h.SetRoot(s2, b2)
	h.GroupSwapped(ms)
	c1, _ := stagedVersion(h, 3)
	h.SetRoot(s1, c1) // a CAS whose fence came before the group's writes
	d1, fd := stagedVersion(h, 4)
	fences := dev.Stats().Fences
	if !stageOne(h, s1, d1, fd) || dev.Stats().Fences != fences+1 {
		t.Fatalf("reusing a held member slot paid %d fences, want 1", dev.Stats().Fences-fences)
	}
	if w := binary.LittleEndian.Uint64(dev.DurableBytes(h.RootCellAddr(s2), 8)); cellAddr(w) != b2 {
		t.Fatalf("r2's durable cell names %#x when r1's member slot is reused, want the group's %#x", uint64(cellAddr(w)), uint64(b2))
	}
	h.Fence()
	h.SetRoot(s1, d1)
	e1, _ := stagedVersion(h, 5)
	h.SetRoot(s1, e1)
	f, ff := stagedVersion(h, 6)
	fences = dev.Stats().Fences
	if !stageOne(h, s1, f, ff) || dev.Stats().Fences != fences {
		t.Fatalf("reusing a slot no group holds paid %d fences", dev.Stats().Fences-fences)
	}
}
