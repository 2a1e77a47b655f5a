package alloc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

func verifyHeapFor(t *testing.T) (*Heap, *pmem.Device) {
	t.Helper()
	dev := pmem.New(pmem.DefaultConfig(1 << 20))
	return Format(dev), dev
}

// rawArena opens a recovery bracket and returns a mutable raw view —
// the test-side stand-in for silent media damage landing on the arena.
func rawArena(dev *pmem.Device, addr pmem.Addr, n int) []byte {
	defer dev.BeginRecovery()()
	return dev.Bytes(addr, n)
}

func TestSealNodeChecksumRoundtrip(t *testing.T) {
	h, dev := verifyHeapFor(t)
	a := h.AllocNode(64, 7)
	for i := 0; i < 64; i += 8 {
		dev.WriteU64(a+pmem.Addr(i), uint64(i)*0x9E3779B97F4A7C15)
	}
	if _, _, has := h.Checksum(a); has {
		t.Fatal("unsealed node claims a checksum")
	}
	h.SealNode(a, 64)
	n, ok, has := h.Checksum(a)
	if !has || !ok || n != 64 {
		t.Fatalf("Checksum after seal: n=%d ok=%v has=%v", n, ok, has)
	}
	if err := h.VerifyBlock(a); err != nil {
		t.Fatalf("sealed node fails verification: %v", err)
	}

	// Any covered-byte flip must break the checksum.
	raw := rawArena(dev, a+17, 1)
	raw[0] ^= 0x10
	if _, ok, _ := h.Checksum(a); ok {
		t.Fatal("flipped covered byte left checksum valid")
	}
	err := h.VerifyBlock(a)
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("VerifyBlock after flip: %v", err)
	}
	raw[0] ^= 0x10
	if err := h.VerifyBlock(a); err != nil {
		t.Fatalf("restored node fails verification: %v", err)
	}

	// ResealNode recomputes over the same covered length.
	dev.WriteU64(a, 0xFEED)
	h.ResealNode(a)
	if err := h.VerifyBlock(a); err != nil {
		t.Fatalf("resealed node fails verification: %v", err)
	}
}

// The stored checksum is CRC32-C over header word 0, the covered length
// as a little-endian u32, and the covered payload — pinned against the
// library CRC so the on-media format cannot drift with nodeCRC's internals.
func TestNodeCRCMatchesReference(t *testing.T) {
	h, dev := verifyHeapFor(t)
	for _, n := range []int{0, 8, 24, 300, 1 << 16} {
		a := h.AllocNode(n, 7)
		for i := 0; i+8 <= n; i += 8 {
			dev.WriteU64(a+pmem.Addr(i), uint64(i+n)*0x9E3779B97F4A7C15)
		}
		raw := rawArena(dev, a-headerSize, headerSize+n)
		ref := append([]byte(nil), raw[:8]...)
		ref = binary.LittleEndian.AppendUint32(ref, uint32(n))
		ref = append(ref, raw[headerSize:]...)
		if got, want := h.nodeCRC(a-headerSize, n), crc32.Checksum(ref, crc32.MakeTable(crc32.Castagnoli)); got != want {
			t.Errorf("nodeCRC over %d bytes = %#x, reference %#x", n, got, want)
		}
	}
}

func TestChecksumCoversOnlyInitializedPrefix(t *testing.T) {
	h, dev := verifyHeapFor(t)
	a := h.AllocNode(128, 3)
	dev.WriteU64(a, 42)
	h.SealNode(a, 16) // only the first 16 bytes are initialized

	// Scribbling on the uncovered tail must not trip verification: the
	// tail was never flushed, so its content carries no promises.
	dev.WriteU64(a+64, 0xBADBADBAD)
	if err := h.VerifyBlock(a); err != nil {
		t.Fatalf("uncovered tail write broke verification: %v", err)
	}
	// But the covered prefix is protected.
	rawArena(dev, a+8, 1)[0] ^= 1
	if err := h.VerifyBlock(a); err == nil {
		t.Fatal("covered prefix flip went undetected")
	}
}

func TestLegacyAllocHasNoChecksum(t *testing.T) {
	h, dev := verifyHeapFor(t)
	a := h.Alloc(32, 0)
	dev.WriteU64(a, 7)
	if _, _, has := h.Checksum(a); has {
		t.Fatal("legacy Alloc block claims a checksum")
	}
	// Without a checksum only structural header checks apply.
	if err := h.VerifyBlock(a); err != nil {
		t.Fatalf("legacy block fails structural verification: %v", err)
	}
}

func TestVerifyBlockStructural(t *testing.T) {
	h, dev := verifyHeapFor(t)
	a := h.AllocNode(32, 3)
	dev.WriteU64(a, 1)
	h.SealNode(a, 32)

	if err := h.VerifyBlock(pmem.Addr(4)); err == nil {
		t.Fatal("pointer below heap base verified")
	}
	if err := h.VerifyBlock(a + 1<<30); err == nil {
		t.Fatal("pointer beyond bump top verified")
	}
	// A dead header line is structural damage, reported without panicking.
	dev.MarkLineDead(a - HeaderSize)
	err := h.VerifyBlock(a)
	if err == nil || !strings.Contains(err.Error(), "unreadable") {
		t.Fatalf("dead header line: %v", err)
	}
	dev.ClearDeadLines()
	if err := h.VerifyBlock(a); err != nil {
		t.Fatalf("cleared line still failing: %v", err)
	}
}

// chainTag builds a two-node parent->child chain under a root slot using
// a registered walker, for the walk-based verifier tests.
const chainTag = 41

func buildChain(t *testing.T, h *Heap, dev *pmem.Device) (root, child pmem.Addr, slot int) {
	t.Helper()
	h.RegisterWalker(chainTag, func(h *Heap, a pmem.Addr, _ *Scratch, visit func(pmem.Addr)) {
		visit(pmem.Addr(h.Device().ReadU64(a)))
	})
	child = h.AllocNode(24, chainTag)
	dev.WriteU64(child, uint64(pmem.Nil))
	h.SealNode(child, 8)
	root = h.AllocNode(24, chainTag)
	dev.WriteU64(root, uint64(child))
	h.SealNode(root, 8)
	slot, err := h.RootSlot("chain")
	if err != nil {
		t.Fatal(err)
	}
	h.Fence()
	h.SetRoot(slot, root)
	h.Fence()
	return root, child, slot
}

func TestVerifyRootWalksChildren(t *testing.T) {
	h, dev := verifyHeapFor(t)
	_, child, slot := buildChain(t, h, dev)
	if err := h.VerifyRoot(slot); err != nil {
		t.Fatalf("healthy chain: %v", err)
	}
	// Damage the child only: the walk must find it.
	rawArena(dev, child, 1)[0] ^= 4
	if err := h.VerifyRoot(slot); err == nil {
		t.Fatal("damaged child went undetected")
	}
	if dmg := h.VerifyRoots(); dmg[slot] == nil {
		t.Fatalf("VerifyRoots missed slot %d: %v", slot, dmg)
	}
}

func TestVerifyRootBeforeDescend(t *testing.T) {
	h, dev := verifyHeapFor(t)
	root, _, slot := buildChain(t, h, dev)
	// Corrupt the root's child pointer to a wild address AND its
	// checksum evidence: verify-before-descend must report the root
	// without ever dereferencing the wild pointer.
	dev.WriteU64(root, 0x7FFF8)
	if err := h.VerifyRoot(slot); err == nil {
		t.Fatal("corrupt root pointer went undetected")
	}
}

func TestVerifyRootDeadRootCell(t *testing.T) {
	h, dev := verifyHeapFor(t)
	_, _, slot := buildChain(t, h, dev)
	dev.MarkLineDead(rootEntryAddr(slot))
	err := h.VerifyRoot(slot)
	if err == nil || !strings.Contains(err.Error(), "root cell") {
		t.Fatalf("dead root cell: %v", err)
	}
}

func TestLazyVerifyOnRead(t *testing.T) {
	h, dev := verifyHeapFor(t)
	a := h.AllocNode(32, 3)
	dev.WriteU64(a, 99)
	h.SealNode(a, 32)
	b := h.AllocNode(32, 3)
	dev.WriteU64(b, 100)
	h.SealNode(b, 32)

	rawArena(dev, a, 1)[0] ^= 2 // silent damage before "recovery"
	h.ArmLazyVerify()

	// First read of the healthy block verifies and clears its taint.
	h.VerifyOnRead(b)
	// Second read is the steady-state fast path (no way to observe
	// directly here beyond not panicking).
	h.VerifyOnRead(b)

	func() {
		defer func() {
			cp, ok := recover().(*CorruptionPanic)
			if !ok {
				t.Fatal("read of damaged block did not raise *CorruptionPanic")
			}
			if cp.Block.Addr != a {
				t.Fatalf("CorruptionPanic block %#x, want %#x", uint64(cp.Block.Addr), uint64(a))
			}
		}()
		h.VerifyOnRead(a)
	}()
}

// TestVerifyRefRefusesNonBlocks: an address decoded from a damaged node
// may point anywhere. Outside the heap, inside the superblock, into the
// middle of a block or at free space it raises the typed corruption panic
// — from VerifyRef, RetainRef and the header parse behind Tag — and never
// reaches the device, whose own range check panics with its lock held.
func TestVerifyRefRefusesNonBlocks(t *testing.T) {
	h, dev := verifyHeapFor(t)
	a := h.AllocNode(32, 3)
	dev.WriteU64(a, 99)
	h.SealNode(a, 32)
	h.VerifyRef(a) // a live block passes

	mustCorrupt := func(what string, f func()) {
		t.Helper()
		defer func() {
			if _, ok := recover().(*CorruptionPanic); !ok {
				t.Errorf("%s: no *CorruptionPanic", what)
			}
		}()
		f()
	}
	_, top := h.DataBounds()
	size := pmem.Addr(dev.Size())
	for _, bad := range []pmem.Addr{pmem.Nil, 8, 0x1a0, heapBase, a + 8, a - headerSize, top + headerSize, size, size + 8, 1<<35 - 8} {
		mustCorrupt(fmt.Sprintf("VerifyRef(%#x)", uint64(bad)), func() { h.VerifyRef(bad) })
		if bad != pmem.Nil { // RetainRef(Nil) is a no-op, like Retain
			mustCorrupt(fmt.Sprintf("RetainRef(%#x)", uint64(bad)), func() { h.RetainRef(bad) })
		}
	}
	h.RetainRef(a)
	h.RetainRef(pmem.Nil)
	if got := h.RefCount(a); got != 2 {
		t.Errorf("RetainRef of a live block left its count at %d, want 2", got)
	}
	for _, bad := range []pmem.Addr{pmem.Nil, 8, heapBase, size, size + 8, 1<<35 - 8} {
		mustCorrupt(fmt.Sprintf("Tag(%#x)", uint64(bad)), func() { h.Tag(bad) })
	}
	mustCorrupt("Tag of a mid-block address", func() { h.Tag(a + 8) })
	if h.Tag(a) != 3 {
		t.Fatal("device unusable after refused references")
	}
}

func TestDataBounds(t *testing.T) {
	h, _ := verifyHeapFor(t)
	lo, hi := h.DataBounds()
	if lo != pmem.Addr(heapBase) {
		t.Fatalf("lo = %#x, want heap base %#x", uint64(lo), uint64(heapBase))
	}
	if hi < lo {
		t.Fatalf("hi %#x below lo %#x", uint64(hi), uint64(lo))
	}
	before := hi
	h.AllocNode(64, 1)
	if _, hi2 := h.DataBounds(); hi2 <= before {
		t.Fatal("DataBounds hi did not advance with the bump pointer")
	}
}
