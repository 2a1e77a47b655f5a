package alloc

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/trace"
)

// Tests for edit reuse (edit.go, "Reuse"): a handle parks the edit a FASE
// sealed and hands it to the next one, so what the next FASE sees must be
// exactly what a fresh edit would give it.

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

func TestReusedEditOwnsNothingFromItsLastFASE(t *testing.T) {
	h := newTestHeap(t)
	recycled := h.Alloc(40, 1) // freed below, so the first edit also owns a free-list block
	h.Release(recycled)
	h.Fence()

	ed := h.BeginEdit()
	fromList, fromRun := ed.Alloc(40, 1), ed.Alloc(300, 1)
	ed.RecordNode(fromRun, 300)
	if fromList != recycled {
		t.Fatalf("first allocation %#x did not recycle the freed block %#x", uint64(fromList), uint64(recycled))
	}
	ed.Seal()

	// Sealed and parked: it owns nothing and rejects new work.
	for _, a := range []pmem.Addr{fromList, fromRun} {
		if ed.Owns(a) {
			t.Errorf("sealed edit still owns %#x", uint64(a))
		}
	}
	mustPanic(t, "Alloc on a sealed edit", func() { ed.Alloc(8, 1) })
	mustPanic(t, "Record on a sealed edit", func() { ed.Record(fromRun, 8) })
	mustPanic(t, "RecordNode on a sealed edit", func() { ed.RecordNode(fromRun, 8) })

	// The next FASE gets the same object back, empty.
	ed2 := h.BeginEdit()
	if ed2 != ed {
		t.Fatal("BeginEdit did not reuse the sealed edit")
	}
	for _, a := range []pmem.Addr{fromList, fromRun} {
		if ed2.Owns(a) {
			t.Errorf("reopened edit owns %#x from its previous FASE", uint64(a))
		}
	}
	if ed2.CopiesElided() != 0 {
		t.Errorf("reopened edit carries %d elided copies over", ed2.CopiesElided())
	}
	fresh := ed2.Alloc(300, 1)
	if !ed2.Owns(fresh) {
		t.Error("reopened edit does not own its own block")
	}

	// An edit still open is never handed out twice.
	ed3 := h.BeginEdit()
	if ed3 == ed2 {
		t.Fatal("BeginEdit handed out an edit that is still open")
	}
	if ed3.Owns(fresh) {
		t.Error("a second open edit owns the first one's block")
	}
	ed3.Seal()
	ed2.Seal()
}

func TestEditCycleDoesNotAllocate(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	for i := 0; i < 2000; i++ { // a populated heap: the block table and free lists are live
		h.Alloc(8+i%5*24, 0)
	}
	h.Fence()
	cycle := func() {
		ed := h.BeginEdit()
		leaf := ed.Alloc(72, 0)
		pair := ed.Alloc(16, tagPair)
		h.dev.WriteU64(pair, 0)
		h.dev.WriteU64(pair+8, uint64(leaf))
		ed.RecordNode(leaf, 72)
		ed.RecordNode(pair, 16)
		ed.Seal()
		h.Fence()
		h.Release(pair) // cascades to leaf through the walker
		h.Fence()
	}
	for i := 0; i < 50; i++ {
		cycle()
	}
	if got := testing.AllocsPerRun(500, cycle); got > 0.1 {
		t.Errorf("BeginEdit…Seal, Fence, cascading Release: %.2f Go allocations per cycle, want 0", got)
	}
}

// TestReusedEditMatchesFreshEdit runs FASEs of 300, 1 and 300 operations —
// the first and last spill every per-edit set past its linear-scan bound,
// the middle one stays under it on storage a spilled FASE left behind —
// once on the handle's reused edit and once forcing a fresh edit per
// FASE. Everything observable must agree: the PM event stream (every
// allocation, write, clwb and fence, in order), the device and allocator
// counters, and the crash images.
func TestReusedEditMatchesFreshEdit(t *testing.T) {
	type outcome struct {
		events  []trace.Event
		dev     pmem.Stats
		heap    Stats
		fenced  []byte
		evicted []byte
	}
	run := func(reuse bool) outcome {
		cfg := pmem.DefaultConfig(8 << 20)
		cfg.TrackDurable = true
		dev := pmem.New(cfg)
		h := Format(dev)
		rec := trace.NewRecorder()
		dev.SetTracer(rec)
		var prev []pmem.Addr
		for _, ops := range []int{300, 1, 300} {
			if !reuse {
				h.spareEdit.Store(nil)
			}
			ed := h.BeginEdit()
			var mine []pmem.Addr
			for i := 0; i < ops; i++ {
				a := ed.Alloc(24+i%7*40, 1)
				dev.WriteU64(a, uint64(i))
				ed.RecordNode(a, 8)
				mine = append(mine, a)
				if i%3 == 0 { // rewrite an earlier node: recorded twice, flushed once
					b := mine[i/2]
					dev.WriteU64(b+8, uint64(i))
					ed.RecordNode(b, 16)
				}
			}
			ed.Seal()
			h.Fence()
			for _, a := range prev { // the next FASE recycles these through its free-list set
				h.Release(a)
			}
			prev = mine
		}
		dev.SetTracer(nil)
		return outcome{
			events: rec.Events(), dev: dev.Stats(), heap: h.Stats(),
			fenced:  dev.CrashImage(pmem.CrashFencedOnly, 1),
			evicted: dev.CrashImage(pmem.CrashEvictRandom, 7),
		}
	}
	reused, fresh := run(true), run(false)
	if !reflect.DeepEqual(reused.events, fresh.events) {
		t.Errorf("PM event streams differ: %d events reused, %d fresh", len(reused.events), len(fresh.events))
	}
	if reused.dev != fresh.dev {
		t.Errorf("device stats differ:\nreused %+v\nfresh  %+v", reused.dev, fresh.dev)
	}
	if reused.heap != fresh.heap {
		t.Errorf("allocator stats differ:\nreused %+v\nfresh  %+v", reused.heap, fresh.heap)
	}
	if !bytes.Equal(reused.fenced, fresh.fenced) || !bytes.Equal(reused.evicted, fresh.evicted) {
		t.Error("crash images differ between a reused and a fresh edit")
	}
}

// TestReleaseInsideFASEOfBlockThatAbsorbsRunTail is the regression test
// for caching a block's stride across Seal. capRun widens the last block
// of a run by a tail too small to carry a header (≤ 16 bytes); if that
// block was released inside its own FASE, it reaches the free lists after
// the widening and must be filed under the stride its header now carries.
// Filed under the narrower one, the next allocation of that class would
// rewrite the header short and leave the absorbed tail as a hole in the
// header chain. While the run's open-run entry survives, recovery papers
// over the hole; once a later edit has reused the slot, recovery
// truncates the heap at it and every root above is a pointer to a
// non-block address.
func TestReleaseInsideFASEOfBlockThatAbsorbsRunTail(t *testing.T) {
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	slot, err := h.RootSlot("r")
	if err != nil {
		t.Fatal(err)
	}

	ed := h.BeginEdit()
	for i := 0; i < editRunBytes/64-1; i++ { // 63 × 64 bytes
		ed.Alloc(48, 0)
	}
	last := ed.Alloc(32, 0) // stride 48: the run now ends 16 bytes short of 4 KB
	h.Alloc(8, 0)           // above the run, so Seal caps the tail instead of un-bumping it
	narrow := h.PayloadSize(last)
	h.Release(last) // dead inside its own FASE; quarantined until the fence
	ed.Seal()
	if got := h.PayloadSize(last); got != narrow+16 {
		t.Fatalf("last block's payload is %d bytes after Seal, want %d: the 16-byte tail was not absorbed", got, narrow+16)
	}
	h.Fence() // frees last, under whatever stride freeBlock believes

	// Later edits claim fresh runs and overwrite every open-run entry.
	for i := 0; i < EditRunSlots; i++ {
		ed := h.BeginEdit()
		ed.Alloc(3000, 0)
		ed.Seal()
		h.Fence()
	}

	// One block of each class the freed block could have been filed
	// under, then a committed root above them all.
	h.Alloc(narrow, 0)
	h.Alloc(narrow+16, 0)
	root := h.Alloc(8, 0)
	h.SetRoot(slot, root)
	h.Fence()

	h2, err := Open(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := h2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if h2.Root(slot) != root || rs.LiveBlocks != 1 {
		t.Fatalf("recovered root %#x with %d live blocks, want %#x with 1: header chain broken below the root",
			uint64(h2.Root(slot)), rs.LiveBlocks, uint64(root))
	}
	// The chain must tile the heap exactly: every byte between the heap
	// base and the bump top belongs to a block recovery walked.
	var walked uint64
	for stride, list := range h2.sh.free {
		walked += uint64(stride) * uint64(len(list))
	}
	if walked+rs.LiveBytes != h2.Stats().HeapUsed {
		t.Fatalf("recovery walked %d of %d heap bytes", walked+rs.LiveBytes, h2.Stats().HeapUsed)
	}
}
