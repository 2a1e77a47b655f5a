package alloc

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// tableSnapshot reads the whole block table back as payload -> reference
// count, tracked-at-zero entries included.
func tableSnapshot(h *Heap) map[pmem.Addr]int32 {
	got := make(map[pmem.Addr]int32)
	t := h.sh.blocks
	for pi := range t {
		p := t[pi].Load()
		if p == nil {
			continue
		}
		for si := range p {
			if v := p[si].Load() & slotCount; v != 0 {
				got[pmem.Addr(heapBase+(uint64(pi)<<pageShift|uint64(si))<<3)] = v - 1
			}
		}
	}
	return got
}

// tableModel is the plain-map reference the property test checks the
// block table against: per tracked payload its reference count (0 while
// retired and awaiting a fence) and, for tagPair nodes, its two children.
type tableModel struct {
	cnt  map[pmem.Addr]int32
	kids map[pmem.Addr][2]pmem.Addr
}

func (m *tableModel) release(a pmem.Addr) {
	if m.cnt[a]--; m.cnt[a] == 0 {
		for _, c := range m.kids[a] {
			if c != pmem.Nil {
				m.release(c)
			}
		}
	}
}

// fence drops every retired block: with no reader pinned, one fence
// frees everything released before it.
func (m *tableModel) fence() (freed []pmem.Addr) {
	for a, c := range m.cnt {
		if c == 0 {
			freed = append(freed, a)
			delete(m.cnt, a)
			delete(m.kids, a)
		}
	}
	return freed
}

// recoverFrom rebuilds the model the way Recover rebuilds the table:
// only blocks reachable from roots survive, counted by reachable parents.
func (m *tableModel) recoverFrom(roots []pmem.Addr) {
	cnt := make(map[pmem.Addr]int32)
	var visit func(a pmem.Addr)
	visit = func(a pmem.Addr) {
		if a == pmem.Nil {
			return
		}
		if cnt[a]++; cnt[a] == 1 {
			for _, c := range m.kids[a] {
				visit(c)
			}
		}
	}
	for _, r := range roots {
		visit(r)
	}
	for a := range m.kids {
		if cnt[a] == 0 {
			delete(m.kids, a)
		}
	}
	m.cnt = cnt
}

// TestBlockTableMatchesModel drives random Alloc / Edit.Alloc / Retain /
// Release / Fence / Recover sequences and compares the
// whole table with the reference map after every step.
func TestBlockTableMatchesModel(t *testing.T) {
	absorbed := 0
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { absorbed += runTableModel(t, seed) })
	}
	if absorbed == 0 {
		t.Error("no sequence sealed an edit run with an absorbed tail")
	}
}

func runTableModel(t *testing.T, seed int64) (absorbed int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	registerPairWalker(h)

	m := &tableModel{cnt: map[pmem.Addr]int32{}, kids: map[pmem.Addr][2]pmem.Addr{}}
	var handles []pmem.Addr // references the test itself owns
	const nRoots = 3
	var slots [nRoots]int
	var roots [nRoots]pmem.Addr
	for i := range slots {
		s, err := h.RootSlot(fmt.Sprint("root", i))
		if err != nil {
			t.Fatal(err)
		}
		slots[i] = s
	}
	everFreed := map[pmem.Addr]bool{}
	reused, recovered := 0, 0
	bigSize := 4100

	take := func() pmem.Addr { // remove and return a random owned reference
		i := rng.Intn(len(handles))
		a := handles[i]
		handles[i] = handles[len(handles)-1]
		handles = handles[:len(handles)-1]
		return a
	}
	born := func(a pmem.Addr, kids [2]pmem.Addr) {
		if _, dup := m.cnt[a]; dup {
			t.Fatalf("allocator returned tracked block %#x", uint64(a))
		}
		if everFreed[a] {
			reused++
		}
		m.cnt[a] = 1
		if kids != [2]pmem.Addr{} {
			m.kids[a] = kids
		}
		handles = append(handles, a)
	}
	// pairOf picks up to two owned references for a new pair node to adopt.
	pairOf := func() (kids [2]pmem.Addr) {
		for i := range kids {
			if len(handles) > 0 && rng.Intn(3) > 0 {
				kids[i] = take()
			}
		}
		return kids
	}
	fence := func() {
		h.Fence()
		for _, a := range m.fence() {
			everFreed[a] = true
		}
	}
	check := func(step int, op string) {
		got := tableSnapshot(h)
		if len(got) != len(m.cnt) {
			t.Fatalf("seed %d step %d (%s): table tracks %d blocks, model %d", seed, step, op, len(got), len(m.cnt))
		}
		for a, want := range m.cnt {
			if c, ok := got[a]; !ok || c != want || h.RefCount(a) != want {
				t.Fatalf("seed %d step %d (%s): block %#x count %d (tracked %v, RefCount %d), model %d",
					seed, step, op, uint64(a), c, ok, h.RefCount(a), want)
			}
		}
	}

	sizes := []int{8, 16, 40, 100, 200, 500, 1000}
	for step := 0; step < 1200; step++ {
		op := "fence"
		roomy := h.Stats().LiveBytes < 128<<10
		switch r := rng.Intn(100); {
		case r < 25 && roomy:
			op = "alloc"
			if rng.Intn(3) == 0 {
				kids := pairOf()
				a := h.Alloc(16, tagPair)
				dev.WriteU64(a, uint64(kids[0]))
				dev.WriteU64(a+8, uint64(kids[1]))
				dev.FlushRange(a, 16)
				born(a, kids)
			} else {
				born(h.Alloc(sizes[rng.Intn(len(sizes))], 0), [2]pmem.Addr{})
			}
		case r < 40 && roomy:
			op = "edit"
			ed := h.BeginEdit()
			for n := 1 + rng.Intn(6); n > 0; n-- {
				if rng.Intn(3) == 0 {
					kids := pairOf()
					a := ed.Alloc(16, tagPair)
					dev.WriteU64(a, uint64(kids[0]))
					dev.WriteU64(a+8, uint64(kids[1]))
					ed.Record(a, 16)
					born(a, kids)
				} else {
					born(ed.Alloc(sizes[rng.Intn(len(sizes))], 0), [2]pmem.Addr{})
				}
			}
			ed.Seal()
		case r < 44 && roomy:
			// Fill an edit run to 8 bytes short of its end while a bump
			// allocation above it blocks the rewind: Seal must absorb the
			// tail into the last block, whose slot keeps naming it under
			// the widened stride (through reuse and recovery alike).
			op = "edit-absorb"
			ed := h.BeginEdit()
			var last pmem.Addr
			for _, sz := range []int{2032, 1008, 496, 240, 112, 80, 8} {
				last = ed.Alloc(sz, 0)
				born(last, [2]pmem.Addr{})
			}
			born(h.Alloc(bigSize, 0), [2]pmem.Addr{})
			bigSize += 64
			ed.Seal()
			if h.PayloadSize(last) > 8 {
				absorbed++
			}
		case r < 55:
			op = "retain"
			// Any live block: owned, rooted, or only reachable through one.
			a := roots[rng.Intn(nRoots)]
			if len(handles) > 0 && rng.Intn(2) == 0 {
				a = handles[rng.Intn(len(handles))]
			}
			if c := m.kids[a][rng.Intn(2)]; c != pmem.Nil && rng.Intn(2) == 0 {
				a = c
			}
			if a != pmem.Nil {
				h.Retain(a)
				m.cnt[a]++
				handles = append(handles, a)
			}
		case r < 75 && len(handles) > 0:
			op = "release"
			a := take()
			h.Release(a)
			m.release(a)
		case r < 82 && len(handles) > 0:
			op = "release-several"
			for n := 1 + rng.Intn(5); n > 0 && len(handles) > 0; n-- {
				a := take()
				h.Release(a)
				m.release(a)
			}
		case r < 88 && len(handles) > 0:
			op = "set-root"
			i := rng.Intn(nRoots)
			a := take()
			fence() // the block is durable before the root names it
			h.SetRoot(slots[i], a)
			fence()
			if old := roots[i]; old != pmem.Nil {
				handles = append(handles, old) // the root's reference is ours again
			}
			roots[i] = a
		case r >= 88 && r < 91:
			op = "recover"
			fence()
			if rng.Intn(2) == 0 {
				// An edit the crash interrupts: its run entry is durable,
				// its deferred headers are not, so recovery skips the run.
				ed := h.BeginEdit()
				for n := 1 + rng.Intn(4); n > 0; n-- {
					ed.Alloc(sizes[rng.Intn(len(sizes))], 0)
				}
				h.Fence()
			}
			dev = pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, uint64(step)))
			var err error
			if h, err = Open(dev); err != nil {
				t.Fatal(err)
			}
			registerPairWalker(h)
			if _, err := h.Recover(); err != nil {
				t.Fatalf("seed %d step %d: Recover: %v", seed, step, err)
			}
			m.recoverFrom(roots[:])
			handles = handles[:0]
			recovered++
		default:
			fence()
		}
		check(step, op)
	}
	if reused == 0 || recovered == 0 {
		t.Fatalf("seed %d: free-list slot reuse %d, recoveries %d — sequence too tame", seed, reused, recovered)
	}
	t.Logf("seed %d: %d tracked at end, %d slot reuses, %d absorbed tails, %d recoveries", seed, len(m.cnt), reused, absorbed, recovered)
	return absorbed
}

// TestBlockTableBoundaries pins the address arithmetic at every edge: the
// first payload above heapBase, both sides of a page boundary, the last
// block of the heap, and addresses that are no block at all.
func TestBlockTableBoundaries(t *testing.T) {
	const size = 1 << 20
	h := Format(pmem.New(pmem.DefaultConfig(size)))
	tb := h.sh.blocks

	first := h.Alloc(8, 0)
	if first != heapBase+headerSize {
		t.Fatalf("first payload %#x, want %#x", uint64(first), uint64(heapBase+headerSize))
	}
	if s := tb.slot(first); s != &tb[0].Load()[headerSize>>3] || h.RefCount(first) != 1 {
		t.Fatalf("first payload: slot %p, RefCount %d", s, h.RefCount(first))
	}

	// Steer the bump pointer (this test never walks the chain) so one
	// payload lands on the last slot of page 0 and another on the first
	// slot of page 2, each the first block registered in its page.
	pageBytes := pmem.Addr(pageSlots << 3)
	h.sh.top = heapBase + pageBytes - 8 - headerSize
	a := h.Alloc(8, 0)
	if tb.slot(a) != &tb[0].Load()[pageSlots-1] {
		t.Fatalf("payload %#x is not the last slot of page 0", uint64(a))
	}
	if tb[1].Load() != nil || tb[2].Load() != nil {
		t.Fatal("a page was installed before any block was registered in it")
	}
	h.sh.top = heapBase + 2*pageBytes - headerSize
	b := h.Alloc(8, 0)
	if tb.slot(b) != &tb[2].Load()[0] || tb[1].Load() != nil {
		t.Fatalf("payload %#x is not the first slot of page 2, or page 1 got installed", uint64(b))
	}
	h.Retain(a)
	if h.RefCount(a) != 2 || h.RefCount(b) != 1 || h.RefCount(a+8) != 0 || h.RefCount(b-8) != 0 {
		t.Fatalf("page-edge slots interfere: a=%d b=%d a+8=%d b-8=%d", h.RefCount(a), h.RefCount(b), h.RefCount(a+8), h.RefCount(b-8))
	}

	// Last block of the heap, which ends where the stage table starts: its
	// payload is the last trackable address.
	end := h.StageTableRange()[0]
	if h.StageTableRange()[1] > size || end < size-stageTableSize-pmem.LineSize {
		t.Fatalf("stage table %#x is not at the top of a %#x-byte arena", h.StageTableRange(), size)
	}
	h.sh.top = end - 24
	last := h.Alloc(8, 0)
	if last != end-8 || h.RefCount(last) != 1 {
		t.Fatalf("last block payload %#x RefCount %d", uint64(last), h.RefCount(last))
	}
	if got := len(tb); got != int(uint64(end)-heapBase)>>3>>pageShift+1 {
		t.Fatalf("directory has %d pages for a heap ending at %#x", got, uint64(end))
	}

	h.sh.taintCount.Store(1) // push VerifyOnRead past its fast path
	for _, bad := range []pmem.Addr{0, 8, heapBase - 8, heapBase, first + 4, first + 8, end, end + 8, size, size + 8, 1 << 40, ^pmem.Addr(0) &^ 7} {
		if tb.tracked(bad) != nil || h.RefCount(bad) != 0 {
			t.Errorf("address %#x reads as tracked", uint64(bad))
		}
		h.VerifyOnRead(bad) // must not fault either
	}
}

// TestRefcountPanics pins the five refcount panics and their messages.
func TestRefcountPanics(t *testing.T) {
	h := newTestHeap(t)
	registerPairWalker(h)
	dev := h.Device()
	pair := func(c0, c1 pmem.Addr) pmem.Addr {
		a := h.Alloc(16, tagPair)
		dev.WriteU64(a, uint64(c0))
		dev.WriteU64(a+8, uint64(c1))
		return a
	}
	dead := h.Alloc(8, 0)
	h.Release(dead) // tracked at count 0 until a fence frees it
	deadChild := h.Alloc(8, 0)
	viaDead := pair(deadChild, pmem.Nil)
	h.Release(deadChild)
	viaUntracked := pair(dead+8, pmem.Nil) // mid-block: no block starts there

	cases := []struct {
		want string
		f    func()
	}{
		{fmt.Sprintf("alloc: retain of untracked block %#x", 12344), func() { h.Retain(12344) }},
		{fmt.Sprintf("alloc: release of untracked block %#x", 12344), func() { h.Release(12344) }},
		{fmt.Sprintf("alloc: release of dead block %#x", uint64(dead)), func() { h.Release(dead) }},
		{fmt.Sprintf("alloc: cascade release of untracked block %#x", uint64(dead+8)), func() { h.Release(viaUntracked) }},
		{fmt.Sprintf("alloc: cascade release of dead block %#x", uint64(deadChild)), func() { h.Release(viaDead) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Errorf("panic %q, want %q", got, c.want)
				}
			}()
			c.f()
		}()
	}
	if h.RefCount(dead) != 0 || h.sh.blocks.tracked(dead) == nil {
		t.Error("a refused release left the dead block untracked or with a count")
	}
	// A freed block is untracked again: the fence drops both dead blocks.
	h.Fence()
	if h.sh.blocks.tracked(dead) != nil {
		t.Error("freed block still tracked")
	}
}

// TestBlockTableConcurrent (run under -race): eight goroutines retain and
// release blocks sharing a slot neighbourhood while a ninth allocates
// across a page boundary into a page nobody has installed yet.
func TestBlockTableConcurrent(t *testing.T) {
	h := Format(pmem.New(pmem.DefaultConfig(4 << 20)))
	var shared [4]pmem.Addr // adjacent 24-byte blocks: slots 3 apart
	for i := range shared {
		shared[i] = h.Alloc(8, 0)
	}
	if h.sh.blocks[1].Load() != nil {
		t.Fatal("setup: page 1 already installed")
	}
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			hw := h.Fork()
			for i := 0; i < rounds; i++ {
				a := shared[(w+i)%len(shared)]
				hw.Retain(a)
				hw.Retain(shared[w%len(shared)])
				hw.Release(a)
				hw.Release(shared[w%len(shared)])
			}
		}(w)
	}
	wg.Add(1)
	var fresh []pmem.Addr
	go func() {
		defer wg.Done()
		ha := h.Fork()
		for ha.sh.blocks[2].Load() == nil { // until two new pages exist
			a := ha.Alloc(1000, 0)
			ha.Retain(a)
			fresh = append(fresh, a)
		}
	}()
	wg.Wait()
	for _, a := range shared {
		if got := h.RefCount(a); got != 1 {
			t.Errorf("shared block %#x RefCount %d, want 1", uint64(a), got)
		}
	}
	for _, a := range fresh {
		if got := h.RefCount(a); got != 2 {
			t.Fatalf("fresh block %#x RefCount %d, want 2", uint64(a), got)
		}
	}
}

// TestLazyVerifyTaintOnce: under concurrent readers every tainted block
// is verified by exactly one of them, untracked blocks are never tainted,
// and the taint count drains to zero.
func TestLazyVerifyTaintOnce(t *testing.T) {
	h, dev := verifyHeapFor(t)
	const blocks, readers = 64, 8
	var nodes [blocks]pmem.Addr
	for i := range nodes {
		nodes[i] = h.AllocNode(32, 3)
		dev.WriteU64(nodes[i], uint64(i))
		h.SealNode(nodes[i], 32)
	}
	plain := h.Alloc(32, 3) // no checksum: nothing to verify
	freed := h.AllocNode(32, 3)
	h.SealNode(freed, 32)
	h.Release(freed)
	h.Fence() // header still says allocated+checksummed, but the block is free

	h.ArmLazyVerify()
	if got := h.sh.taintCount.Load(); got != blocks {
		t.Fatalf("taintCount = %d after arming, want %d", got, blocks)
	}
	if h.sh.blocks.slot(plain).Load()&slotTaint != 0 || h.sh.blocks.slot(freed).Load() != 0 {
		t.Fatal("taint landed on an unchecksummed or free block")
	}
	// Damage every other block: a reader that wins the taint bit must be
	// the one (and only one) to see the mismatch.
	for i := 0; i < blocks; i += 2 {
		rawArena(dev, nodes[i], 1)[0] ^= 1
	}
	var caught [blocks]atomic.Int32
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hr := h.Fork()
			for i, a := range nodes {
				func() {
					defer func() {
						if p := recover(); p != nil {
							if cp, ok := p.(*CorruptionPanic); !ok || cp.Block.Addr != a {
								t.Errorf("block %#x: unexpected panic %v", uint64(a), p)
							}
							caught[i].Add(1)
						}
					}()
					hr.VerifyOnRead(a)
					hr.Retain(a) // counts and taint share the slot
					hr.Release(a)
				}()
			}
		}()
	}
	wg.Wait()
	for i := range caught {
		if want := int32(1 - i%2); caught[i].Load() != want {
			t.Errorf("block %d: %d readers saw the damage, want %d", i, caught[i].Load(), want)
		}
		if h.RefCount(nodes[i]) != 1 {
			t.Errorf("block %d: RefCount %d after taint traffic, want 1", i, h.RefCount(nodes[i]))
		}
	}
	if got := h.sh.taintCount.Load(); got != 0 {
		t.Fatalf("taintCount = %d after every block was read, want 0", got)
	}

	// Freeing a still-tainted block gives its share of the count back.
	h.ArmLazyVerify()
	h.Release(nodes[1])
	h.Fence()
	if got := h.sh.taintCount.Load(); got != blocks-1 {
		t.Fatalf("taintCount = %d after freeing one tainted block, want %d", got, blocks-1)
	}
}
