package alloc

import (
	"errors"
	"testing"
	"testing/quick"

	"github.com/mod-ds/mod/internal/pmem"
)

func newTestHeap(t *testing.T) *Heap {
	t.Helper()
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	return Format(pmem.New(cfg))
}

// tagPair is a test node holding two child pointers at offsets 0 and 8.
const tagPair = 7

func registerPairWalker(h *Heap) {
	h.RegisterWalker(tagPair, func(h *Heap, addr pmem.Addr, _ *Scratch, visit func(pmem.Addr)) {
		visit(pmem.Addr(h.Device().ReadU64(addr)))
		visit(pmem.Addr(h.Device().ReadU64(addr + 8)))
	})
}

func TestFormatOpenRoundTrip(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	dev := pmem.New(cfg)
	Format(dev)
	h, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	if h.Stats().HeapUsed != 0 {
		t.Fatalf("fresh heap used %d bytes", h.Stats().HeapUsed)
	}
}

func TestOpenRejectsBadMagic(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(1 << 20))
	if _, err := Open(dev); err == nil {
		t.Fatal("Open of unformatted device must fail")
	}
}

// TestOpenRejectsOtherVersions: exactly one layout is readable. A heap
// stamped with the layout before this one, or with a version from the
// future, is refused with ErrHeapVersion and no handle.
func TestOpenRejectsOtherVersions(t *testing.T) {
	for _, v := range []uint64{0, version - 1, version + 1} {
		dev := pmem.New(pmem.DefaultConfig(1 << 20))
		Format(dev)
		dev.WriteU64(offVersion, v)
		h, err := Open(dev)
		if !errors.Is(err, ErrHeapVersion) || h != nil {
			t.Errorf("Open of a v%d heap: handle %v, error %v; want nil and ErrHeapVersion", v, h, err)
		}
	}
}

// TestFormatShardIdentity: a heap records its place in its store's
// region set under Format's fence — a fenced-only image right after
// FormatShard holds it — and a plain Format is shard 0 of 1.
func TestFormatShardIdentity(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	for _, want := range [][2]int{{0, 1}, {2, 3}} {
		dev := pmem.New(cfg)
		if want[1] == 1 {
			Format(dev)
		} else {
			FormatShard(dev, want[0], want[1])
		}
		h, err := Open(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 0)))
		if err != nil {
			t.Fatal(err)
		}
		if shard, shards := h.Shard(); shard != want[0] || shards != want[1] {
			t.Errorf("heap formatted as shard %d of %d reads back %d of %d", want[0], want[1], shard, shards)
		}
	}
}

func TestAllocDistinctAlignedTagged(t *testing.T) {
	h := newTestHeap(t)
	seen := map[pmem.Addr]bool{}
	for i := 0; i < 100; i++ {
		a := h.Alloc(40, 3)
		if a == pmem.Nil {
			t.Fatal("nil allocation")
		}
		if uint64(a)%8 != 0 {
			t.Fatalf("payload %#x not 8-byte aligned", uint64(a))
		}
		if seen[a] {
			t.Fatalf("address %#x returned twice", uint64(a))
		}
		seen[a] = true
		if got := h.Tag(a); got != 3 {
			t.Fatalf("Tag = %d, want 3", got)
		}
		if got := h.PayloadSize(a); got < 40 {
			t.Fatalf("PayloadSize = %d, want >= 40", got)
		}
	}
}

func TestStrideForClasses(t *testing.T) {
	cases := []struct {
		payload int
		stride  uint32
	}{
		{0, 24}, {8, 24}, {16, 32}, {24, 48}, {56, 80}, {64, 80}, {72, 96}, {100, 128},
		{4080, 4096}, {4088, 4160}, {5000, 5056},
	}
	for _, c := range cases {
		if got := strideFor(c.payload); got != c.stride {
			t.Errorf("strideFor(%d) = %d, want %d", c.payload, got, c.stride)
		}
	}
}

func TestReleaseQuarantinesUntilFence(t *testing.T) {
	h := newTestHeap(t)
	a := h.Alloc(16, 1)
	h.Release(a)
	if h.Stats().Quarantine != 1 {
		t.Fatalf("Quarantine = %d, want 1", h.Stats().Quarantine)
	}
	b := h.Alloc(16, 1)
	if b == a {
		t.Fatal("quarantined block reused before fence")
	}
	h.Fence()
	c := h.Alloc(16, 1)
	if c != a {
		t.Fatalf("freed block not reused after fence: got %#x, want %#x", uint64(c), uint64(a))
	}
}

func TestRetainReleaseCounts(t *testing.T) {
	h := newTestHeap(t)
	a := h.Alloc(16, 1)
	h.Retain(a)
	h.Retain(a)
	if got := h.RefCount(a); got != 3 {
		t.Fatalf("RefCount = %d, want 3", got)
	}
	h.Release(a)
	h.Release(a)
	if h.Stats().Quarantine != 0 {
		t.Fatal("block quarantined while references remain")
	}
	h.Release(a)
	if h.Stats().Quarantine != 1 {
		t.Fatal("block not quarantined at zero references")
	}
}

func TestDrainCascadesThroughWalker(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	leaf1 := h.Alloc(16, 0)
	leaf2 := h.Alloc(16, 0)
	parent := h.Alloc(16, tagPair)
	h.Device().WriteU64(parent, uint64(leaf1))
	h.Device().WriteU64(parent+8, uint64(leaf2))

	h.Release(parent)
	h.Fence()
	if h.RefCount(leaf1) != 0 || h.RefCount(leaf2) != 0 {
		t.Fatal("children not released when parent freed")
	}
	if got := h.Stats().Frees; got != 3 {
		t.Fatalf("Frees = %d, want 3", got)
	}
}

func TestSharedChildSurvivesSiblingFree(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	shared := h.Alloc(16, 0)
	p1 := h.Alloc(16, tagPair)
	p2 := h.Alloc(16, tagPair)
	h.Device().WriteU64(p1, uint64(shared))
	h.Device().WriteU64(p1+8, 0)
	h.Device().WriteU64(p2, uint64(shared))
	h.Device().WriteU64(p2+8, 0)
	h.Retain(shared) // second parent

	h.Release(p1)
	h.Fence()
	if h.RefCount(shared) != 1 {
		t.Fatalf("shared child RefCount = %d, want 1", h.RefCount(shared))
	}
	h.Release(p2)
	h.Fence()
	if h.RefCount(shared) != 0 {
		t.Fatal("shared child leaked after both parents freed")
	}
}

func TestDisableReclaim(t *testing.T) {
	h := newTestHeap(t)
	h.DisableReclaim = true
	a := h.Alloc(16, 1)
	h.Release(a)
	h.Fence()
	if h.Stats().Frees != 0 {
		t.Fatal("DisableReclaim must suppress frees")
	}
}

func TestReleaseUntrackedPanics(t *testing.T) {
	h := newTestHeap(t)
	defer func() {
		if recover() == nil {
			t.Fatal("release of untracked block should panic")
		}
	}()
	h.Release(12345)
}

func TestRootSlots(t *testing.T) {
	h := newTestHeap(t)
	s1, err := h.RootSlot("alpha")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := h.RootSlot("beta")
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("distinct names share a slot")
	}
	again, err := h.RootSlot("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if again != s1 {
		t.Fatalf("RootSlot(alpha) = %d on reopen, want %d", again, s1)
	}
	if !h.HasRoot("alpha") || h.HasRoot("gamma") {
		t.Fatal("HasRoot mismatch")
	}
	a := h.Alloc(16, 1)
	h.SetRoot(s1, a)
	if got := h.Root(s1); got != a {
		t.Fatalf("Root = %#x, want %#x", uint64(got), uint64(a))
	}
}

func TestRootTableFull(t *testing.T) {
	h := newTestHeap(t)
	for i := 0; i < RootSlots; i++ {
		if _, err := h.RootSlot(string(rune('a'+i%26)) + string(rune('A'+i/26))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.RootSlot("overflow"); err == nil {
		t.Fatal("full root table must return an error")
	}
}

// buildCrashableHeap commits a two-node list under root "r", then starts an
// uncommitted allocation, and returns the crash image.
func buildCrashableHeap(t *testing.T) ([]byte, pmem.Addr, pmem.Addr) {
	t.Helper()
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	registerPairWalker(h)

	leaf := h.Alloc(16, 0)
	dev.WriteU64(leaf, 0xfeed)
	dev.FlushRange(leaf, 16)
	parent := h.Alloc(16, tagPair)
	dev.WriteU64(parent, uint64(leaf))
	dev.WriteU64(parent+8, 0)
	dev.FlushRange(parent, 16)
	slot, err := h.RootSlot("r")
	if err != nil {
		t.Fatal(err)
	}
	dev.Sfence()
	h.SetRoot(slot, parent)
	dev.Sfence() // make the root swap itself durable

	// Interrupted FASE: allocate and write, flush, but never commit.
	orphan := h.Alloc(64, 0)
	dev.WriteU64(orphan, 0xdead)
	dev.FlushRange(orphan, 64)
	dev.Sfence()

	return dev.CrashImage(pmem.CrashFencedOnly, 1), parent, leaf
}

func TestRecoverMarksLiveSweepsLeaks(t *testing.T) {
	img, parent, leaf := buildCrashableHeap(t)
	dev := pmem.NewFromImage(pmem.DefaultConfig(1<<20), img)
	h, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	registerPairWalker(h)
	rs, err := h.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Roots != 1 {
		t.Fatalf("Roots = %d, want 1", rs.Roots)
	}
	if rs.LiveBlocks != 2 {
		t.Fatalf("LiveBlocks = %d, want 2 (parent+leaf)", rs.LiveBlocks)
	}
	if rs.LeakedBlocks != 1 {
		t.Fatalf("LeakedBlocks = %d, want 1 (the orphan)", rs.LeakedBlocks)
	}
	if h.RefCount(parent) != 1 || h.RefCount(leaf) != 1 {
		t.Fatalf("refcounts parent=%d leaf=%d, want 1/1", h.RefCount(parent), h.RefCount(leaf))
	}
	if got := dev.ReadU64(leaf); got != 0xfeed {
		t.Fatalf("leaf data corrupted: %#x", got)
	}
	// The swept orphan's space must be reusable.
	slot, _ := h.RootSlot("r")
	_ = slot
	re := h.Alloc(56, 0)
	if re == pmem.Nil {
		t.Fatal("allocation after recovery failed")
	}
}

func TestRecoverRebuildsSharedRefcounts(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	registerPairWalker(h)

	shared := h.Alloc(16, 0)
	dev.WriteU64(shared, 1)
	p1 := h.Alloc(16, tagPair)
	p2 := h.Alloc(16, tagPair)
	dev.WriteU64(p1, uint64(shared))
	dev.WriteU64(p1+8, 0)
	dev.WriteU64(p2, uint64(shared))
	dev.WriteU64(p2+8, 0)
	h.Retain(shared)
	dev.FlushRange(shared, 16)
	dev.FlushRange(p1, 16)
	dev.FlushRange(p2, 16)
	s1, _ := h.RootSlot("a")
	s2, _ := h.RootSlot("b")
	dev.Sfence()
	h.SetRoot(s1, p1)
	h.SetRoot(s2, p2)
	dev.Sfence()

	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	dev2 := pmem.NewFromImage(pmem.DefaultConfig(1<<20), img)
	h2, _, err := OpenAndRecover(dev2)
	if err != nil {
		t.Fatal(err)
	}
	registerPairWalker(h2)
	if _, err := h2.Recover(); err != nil { // walkers registered now
		t.Fatal(err)
	}
	if got := h2.RefCount(shared); got != 2 {
		t.Fatalf("shared RefCount after recovery = %d, want 2", got)
	}
}

func TestRecoverTruncatesTornBumpPointer(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)

	// Allocate a block whose header write never becomes durable, but force
	// the bump pointer update to become durable (adversarial eviction of
	// the superblock line only).
	a := h.Alloc(16, 1)
	_ = a
	dev.Clwb(offBumpTop)
	dev.Sfence() // bump pointer durable; header flush was issued at alloc
	// Note: Alloc flushed the header too, so to simulate the torn case we
	// instead corrupt the header region in the image.
	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	for i := 0; i < 8; i++ {
		img[heapBase+i] = 0 // tear the first block header
	}
	dev2 := pmem.NewFromImage(pmem.DefaultConfig(1<<20), img)
	h2, rs, err := OpenAndRecover(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LiveBlocks != 0 || rs.LeakedBlocks != 0 {
		t.Fatalf("recovery stats %+v, want empty heap", rs)
	}
	b := h2.Alloc(16, 1)
	if uint64(b) != heapBase+headerSize {
		t.Fatalf("post-truncation alloc at %#x, want heap base %#x", uint64(b), heapBase+headerSize)
	}
}

func TestQuickAllocAccounting(t *testing.T) {
	h := newTestHeap(t)
	f := func(sizes []uint16) bool {
		var addrs []pmem.Addr
		before := h.Stats()
		var want uint64
		for _, s := range sizes {
			sz := int(s % 3000)
			a := h.Alloc(sz, 1)
			addrs = append(addrs, a)
			want += uint64(strideFor(sz))
		}
		mid := h.Stats()
		if mid.LiveBytes-before.LiveBytes != want {
			return false
		}
		for _, a := range addrs {
			h.Release(a)
		}
		h.Fence()
		return h.Stats().LiveBytes == before.LiveBytes
	}
	cfgQ := &quick.Config{MaxCount: 30}
	if err := quick.Check(f, cfgQ); err != nil {
		t.Fatal(err)
	}
}
