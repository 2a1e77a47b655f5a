package alloc

import (
	"fmt"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

func TestEditOwnershipAndRuns(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(8 << 20))
	h := Format(dev)

	outside := h.Alloc(64, 1)
	ed := h.BeginEdit()
	if ed.Owns(outside) {
		t.Error("edit owns a block allocated outside it")
	}
	var mine []pmem.Addr
	for i := 0; i < 40; i++ { // spans multiple 4KB runs at stride 128
		mine = append(mine, ed.Alloc(100, 2))
	}
	for _, a := range mine {
		if !ed.Owns(a) {
			t.Fatalf("edit does not own its own block %#x", uint64(a))
		}
	}
	if ed.Owns(pmem.Nil) {
		t.Error("edit owns Nil")
	}
	var nilEd *Edit
	if nilEd.Owns(mine[0]) {
		t.Error("nil edit owns a block")
	}
	// A second edit must not own the first edit's blocks.
	ed2 := h.BeginEdit()
	if ed2.Owns(mine[0]) {
		t.Error("second edit owns first edit's block")
	}
	ed2.Seal()
	ed.Seal()
	ed.Seal() // idempotent
}

func TestEditLargeAllocationDedicatedRun(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(8 << 20))
	h := Format(dev)
	ed := h.BeginEdit()
	big := ed.Alloc(8000, 3) // stride > editRunBytes
	if !ed.Owns(big) {
		t.Error("edit does not own its large block")
	}
	if got := h.PayloadSize(big); got < 8000 {
		t.Errorf("PayloadSize = %d, want >= 8000", got)
	}
	ed.Seal()
}

func TestEditRunTableFullFallsBack(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(16 << 20))
	h := Format(dev)
	var edits []*Edit
	var addrs []pmem.Addr
	for i := 0; i < EditRunSlots+3; i++ {
		ed := h.BeginEdit()
		addrs = append(addrs, ed.Alloc(64, 1))
		edits = append(edits, ed)
	}
	for i, ed := range edits {
		if !ed.Owns(addrs[i]) {
			t.Errorf("edit %d does not own its block (fallback path)", i)
		}
		for j, other := range addrs {
			if j != i && ed.Owns(other) {
				t.Errorf("edit %d owns edit %d's block", i, j)
			}
		}
	}
	for _, ed := range edits {
		ed.Seal()
	}
	// Slots are reusable after sealing.
	ed := h.BeginEdit()
	ed.Alloc(64, 1)
	ed.Seal()
}

func TestEditFreeListReuseIsOwned(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(8 << 20))
	h := Format(dev)
	a := h.Alloc(64, 1)
	h.Release(a)
	h.Fence() // reclaim: the block returns to the free lists
	h.Fence()

	ed := h.BeginEdit()
	b := ed.Alloc(64, 1)
	if b != a {
		t.Fatalf("free-list block not reused: got %#x, want %#x", uint64(b), uint64(a))
	}
	if !ed.Owns(b) {
		t.Error("edit does not own a free-list-reused block")
	}
	ed.Seal()
}

// TestEditSealedHeapRecovers proves the sealed-run remainder header keeps
// the chain walkable: after edits seal and a fence runs, a re-opened heap
// recovers with no error and sees exactly the reachable state.
func TestEditSealedHeapRecovers(t *testing.T) {
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	h.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})

	slot, err := h.RootSlot("r")
	if err != nil {
		t.Fatal(err)
	}
	ed := h.BeginEdit()
	keep := ed.Alloc(40, 1)
	dev.WriteU64(keep, 0x11)
	ed.Record(keep, 8)
	for i := 0; i < 5; i++ {
		ed.Alloc(200, 1) // leaked: never rooted
	}
	ed.Seal()
	dev.Sfence()
	h.SetRoot(slot, keep)
	dev.Clwb(h.RootCellAddr(slot))
	dev.Sfence()

	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	dev2 := pmem.NewFromImage(cfg, img)
	h2, err := Open(dev2)
	if err != nil {
		t.Fatal(err)
	}
	h2.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})
	rs, err := h2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rs.LiveBlocks != 1 || rs.Roots != 1 {
		t.Errorf("recovered %d live blocks / %d roots, want 1/1", rs.LiveBlocks, rs.Roots)
	}
	if got := dev2.ReadU64(h2.Root(slot)); got != 0x11 {
		t.Errorf("recovered root payload = %#x, want 0x11", got)
	}
	if rs.LeakedBlocks == 0 {
		t.Error("unsealed-root leaks not detected")
	}
}

// TestEditCrashMidEditSkipsRun is the torn-header case: a crash while an
// edit's deferred headers are still volatile must not truncate committed
// blocks allocated after the edit's run — recovery skips the dead run via
// the open-run table.
func TestEditCrashMidEditSkipsRun(t *testing.T) {
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	h.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})

	slot, err := h.RootSlot("committed")
	if err != nil {
		t.Fatal(err)
	}

	// An edit claims a run and writes headers that never flush...
	ed := h.BeginEdit()
	inRun := ed.Alloc(100, 1)

	// ...while another allocation AFTER the run commits durably.
	after := h.Alloc(48, 1)
	dev.WriteU64(after, 0x22)
	dev.FlushRange(after, 8)
	dev.Sfence()
	h.SetRoot(slot, after)
	dev.Clwb(h.RootCellAddr(slot))
	dev.Sfence()
	if after < inRun {
		t.Fatalf("test setup: committed block %#x not after run block %#x", uint64(after), uint64(inRun))
	}

	// Crash with the edit unsealed: its headers are dirty, not durable.
	img := dev.CrashImage(pmem.CrashFencedOnly, 7)
	dev2 := pmem.NewFromImage(cfg, img)
	h2, err := Open(dev2)
	if err != nil {
		t.Fatal(err)
	}
	h2.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})
	rs, err := h2.Recover()
	if err != nil {
		t.Fatalf("Recover after mid-edit crash: %v", err)
	}
	if rs.LiveBlocks != 1 {
		t.Errorf("recovered %d live blocks, want 1 (the committed one)", rs.LiveBlocks)
	}
	if got := dev2.ReadU64(h2.Root(slot)); got != 0x22 {
		t.Errorf("committed payload = %#x, want 0x22 — run skip failed", got)
	}
	// The run table is consumed during recovery.
	for s := 0; s < EditRunSlots; s++ {
		if dev2.ReadU64(runEntryAddr(s)) != 0 {
			t.Errorf("run entry %d not cleared by recovery", s)
		}
	}
	// Recovered heap must keep working, including new edits.
	ed2 := h2.BeginEdit()
	p := ed2.Alloc(64, 1)
	if !ed2.Owns(p) {
		t.Error("post-recovery edit broken")
	}
	ed2.Seal()
}

// TestEditStatsAccounting checks allocator counters cover edit blocks and
// that CopiesElided reaches the device stats at Seal.
func TestEditStatsAccounting(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(8 << 20))
	h := Format(dev)
	before := h.Stats()
	ed := h.BeginEdit()
	for i := 0; i < 10; i++ {
		ed.Alloc(64, 1)
	}
	ed.NoteCopyElided()
	ed.NoteCopyElided()
	if got := ed.CopiesElided(); got != 2 {
		t.Errorf("CopiesElided = %d, want 2", got)
	}
	ed.Seal()
	after := h.Stats()
	if after.Allocs-before.Allocs != 10 {
		t.Errorf("Allocs delta = %d, want 10", after.Allocs-before.Allocs)
	}
	if dev.Stats().CopiesElided != 2 {
		t.Errorf("device CopiesElided = %d, want 2", dev.Stats().CopiesElided)
	}
}

func TestEditManySizesPackRuns(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(16 << 20))
	h := Format(dev)
	ed := h.BeginEdit()
	sizes := []int{16, 24, 40, 88, 120, 250, 376, 500, 1000, 2040, 4088, 16, 100}
	var got []pmem.Addr
	for _, sz := range sizes {
		a := ed.Alloc(sz, 2)
		if h.PayloadSize(a) < sz {
			t.Fatalf("payload %d < requested %d", h.PayloadSize(a), sz)
		}
		got = append(got, a)
	}
	ed.Seal()
	for i, a := range got {
		if h.Tag(a) != 2 {
			t.Errorf("block %d (%s): tag %d, want 2", i, fmt.Sprint(sizes[i]), h.Tag(a))
		}
	}
}

// TestEditCrashAfterSealBeforeFence covers the window between the seal
// sweep and the commit fence: the run entry must still protect the run
// (Seal must NOT have cleared it), because the sweep's clwbs are merely
// inflight and a crash can drop them while later committed blocks above
// the run survive.
func TestEditCrashAfterSealBeforeFence(t *testing.T) {
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	h.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})

	slot, err := h.RootSlot("committed")
	if err != nil {
		t.Fatal(err)
	}
	ed := h.BeginEdit()
	inRun := ed.Alloc(100, 1)

	// A block after the run commits durably while the edit is open.
	after := h.Alloc(48, 1)
	dev.WriteU64(after, 0x33)
	dev.FlushRange(after, 8)
	dev.Sfence()
	h.SetRoot(slot, after)
	dev.Clwb(h.RootCellAddr(slot))
	dev.Sfence()
	if after < inRun {
		t.Fatalf("test setup: %#x not after run block %#x", uint64(after), uint64(inRun))
	}

	// Seal issues the sweep's clwbs but no fence runs afterwards: under
	// the fenced-only policy every deferred header is lost.
	ed.Seal()
	img := dev.CrashImage(pmem.CrashFencedOnly, 3)
	dev2 := pmem.NewFromImage(cfg, img)
	h2, err := Open(dev2)
	if err != nil {
		t.Fatal(err)
	}
	h2.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})
	rs, err := h2.Recover()
	if err != nil {
		t.Fatalf("Recover after seal-but-unfenced crash: %v", err)
	}
	if got := dev2.ReadU64(h2.Root(slot)); got != 0x33 {
		t.Errorf("committed payload = %#x, want 0x33 — entry cleared too early?", got)
	}
	if rs.LiveBlocks != 1 {
		t.Errorf("recovered %d live blocks, want 1", rs.LiveBlocks)
	}
}

// sealHook runs once, from the device's Write hook, at the first write to
// addr — inside Seal, between capping the run's tail and issuing the
// sweep. The hook runs with no device or allocator lock held, so it can
// stand in for a concurrent goroutine's whole FASE.
type sealHook struct {
	*pmem.CrashCountdown // its Write is shadowed, so it only supplies the other, empty hooks
	addr                 pmem.Addr
	run                  func()
	done                 bool
}

func (s *sealHook) Write(addr pmem.Addr, _ int) {
	if addr == s.addr && !s.done {
		s.done = true
		s.run()
	}
}

// TestEditTailPublishedAfterSweep is the concurrent-seal race: while one
// edit seals — its tail capped, its sweep not yet issued — another edit
// commits a block. Had the tail already been published, the second edit
// would build inside it, and its commit fence would leave the first
// edit's headers volatile: recovery's walk, finding the first run torn,
// skips to the run's recorded end and over the committed block. The tail
// is published only after the sweep, so the second edit claims a run of
// its own and the committed block survives a fenced-only crash.
func TestEditTailPublishedAfterSweep(t *testing.T) {
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	h.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})
	slot, err := h.RootSlot("committed")
	if err != nil {
		t.Fatal(err)
	}
	dev.Sfence()

	ed := h.BeginEdit()
	a := ed.Alloc(64, 1)
	dev.WriteU64(a, 0x11)
	ed.RecordNode(a, 8)
	h.Alloc(48, 1) // above the run: its tail is capped, not un-bumped

	var img []byte
	var committed pmem.Addr
	other := h.Fork()
	tr := &sealHook{CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0), addr: a - headerSize + 8, run: func() { // a's checksum word: after capRun, before the sweep
		ed2 := other.BeginEdit()
		committed = ed2.Alloc(64, 1)
		dev.WriteU64(committed, 0x22)
		ed2.RecordNode(committed, 8)
		ed2.Seal()
		other.Fence()
		other.SetRoot(slot, committed)
		other.Fence()
		img = dev.CrashImage(pmem.CrashFencedOnly, 1)
	}}
	dev.SetTracer(tr)
	ed.Seal()
	dev.SetTracer(nil)
	if img == nil {
		t.Fatal("the seal never wrote a's checksum word")
	}

	dev2 := pmem.NewFromImage(cfg, img)
	h2, err := Open(dev2)
	if err != nil {
		t.Fatal(err)
	}
	h2.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})
	if _, err := h2.Recover(); err != nil {
		t.Fatalf("Recover: %v (committed block %#x, sealing edit's block %#x)", err, uint64(committed), uint64(a))
	}
	if got := dev2.ReadU64(h2.Root(slot)); got != 0x22 {
		t.Fatalf("committed payload = %#x, want 0x22", got)
	}
}

// TestEditRunSlotReuseWaitsForFence pins the reuse rule directly: a
// sealed slot must not be reclaimed (its entry overwritten) until a
// fence covers the seal sweep.
func TestEditRunSlotReuseWaitsForFence(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(16 << 20))
	h := Format(dev)

	// Occupy every slot with sealed-but-unfenced runs.
	for i := 0; i < EditRunSlots; i++ {
		ed := h.BeginEdit()
		ed.Alloc(64, 1)
		ed.Seal()
	}
	var entries [EditRunSlots][2]uint64
	for i := 0; i < EditRunSlots; i++ {
		entries[i] = [2]uint64{dev.ReadU64(runEntryAddr(i)), dev.ReadU64(runEntryAddr(i) + 8)}
		if entries[i][0] == 0 {
			t.Fatalf("slot %d entry empty right after seal", i)
		}
	}
	// With no fence, a new edit must fall back (entries untouched).
	ed := h.BeginEdit()
	a := ed.Alloc(64, 1)
	if !ed.Owns(a) {
		t.Error("fallback block not owned")
	}
	for i := 0; i < EditRunSlots; i++ {
		if got := dev.ReadU64(runEntryAddr(i)); got != entries[i][0] {
			t.Errorf("slot %d entry overwritten before a covering fence", i)
		}
	}
	ed.Seal()
	dev.Sfence()
	// After a fence the slots are reusable.
	ed2 := h.BeginEdit()
	b := ed2.Alloc(64, 1)
	if !ed2.Owns(b) {
		t.Error("post-fence edit block not owned")
	}
	changed := false
	for i := 0; i < EditRunSlots; i++ {
		if dev.ReadU64(runEntryAddr(i)) != entries[i][0] {
			changed = true
		}
	}
	if !changed {
		t.Error("no slot reused after the covering fence")
	}
	ed2.Seal()
}

// TestEditArenaReuseAcrossFASEs guards against run-tail stranding: many
// sequential single-allocation edits (each claiming a 4 KB run) must not
// consume arena proportional to the run size — the sealed run's tail is
// un-bumped while the run is the heap top, and capped into reusable
// size-class blocks otherwise.
func TestEditArenaReuseAcrossFASEs(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(16 << 20))
	h := Format(dev)

	base := h.Stats().HeapUsed
	const rounds = 500
	for i := 0; i < rounds; i++ {
		ed := h.BeginEdit()
		ed.Alloc(64, 1) // stride 96
		ed.Seal()
		dev.Sfence()
	}
	used := h.Stats().HeapUsed - base
	if used > rounds*256 {
		t.Errorf("HeapUsed grew %d bytes over %d single-alloc edits (%d/edit) — run tails stranded",
			used, rounds, used/rounds)
	}

	// Interleave a non-edit allocation after each run claim so the run is
	// no longer the heap top at seal: tails must return via the free
	// lists instead of being stranded under non-class strides.
	base = h.Stats().HeapUsed
	freeBase := h.Stats().Frees
	for i := 0; i < 50; i++ {
		ed := h.BeginEdit()
		ed.Alloc(200, 1) // claims a run when none fits
		h.Alloc(48, 1)   // lands above the run: blocks rewinding
		ed.Seal()
		dev.Sfence()
	}
	_ = freeBase
	grown := h.Stats().HeapUsed - base
	// Each round: ~256B edit block + 64B eager block; caps must make the
	// tails reusable so later rounds' eager/free-list allocations recycle
	// them rather than bumping 4KB each time.
	if grown > 50*4096/2 {
		t.Errorf("HeapUsed grew %d bytes over 50 interleaved rounds — capped tails not reusable", grown)
	}
}
