package alloc

import (
	"fmt"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// unalignTop bumps 24-byte blocks outside every edit until the heap top
// sits off by want bytes from a line (24 is coprime to 64/8, so every
// multiple of 8 comes round).
func unalignTop(h *Heap, want pmem.Addr) {
	for h.sh.top%pmem.LineSize != want {
		h.Alloc(8, 1)
	}
}

// TestWholeLineBlocksStartOnALine: every block whose stride is a whole
// number of lines — durable or volatile — is carved on a line boundary,
// on each carve path, with a free filler block covering the gap; sub-line
// strides are carved where the free space starts; a navigation node freed
// as a selective store frees it, at a fold or by recovery's sweep, is
// reused on a line by a durable block of its stride; fillers never count
// as live bytes.
func TestWholeLineBlocksStartOnALine(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(4 << 20))
	h := Format(dev)
	onLine := func(path string, p pmem.Addr) {
		t.Helper()
		if hdr := p - headerSize; hdr%pmem.LineSize != 0 {
			t.Errorf("%s: stride-%d block at %#x is %d bytes into a line", path, h.strideOf(p), uint64(hdr), hdr%pmem.LineSize)
		}
	}
	// filler checks that the free block in front of the block at p is a
	// filler of at least fillerMin bytes reaching exactly to it.
	filler := func(path string, at, p pmem.Addr) {
		t.Helper()
		stride, _, allocated, ok := unpackHeader(dev.ReadU64(at))
		if !ok || allocated || at+pmem.Addr(stride) != p-headerSize || stride < fillerMin {
			t.Errorf("%s: no filler in [%#x, %#x): header %#x", path, uint64(at), uint64(p-headerSize), dev.ReadU64(at))
		}
	}
	unaligned := func(path string, at, p pmem.Addr) {
		t.Helper()
		if p-headerSize != at {
			t.Errorf("%s: block carved at %#x, want %#x (no filler)", path, uint64(p-headerSize), uint64(at))
		}
	}
	// Heap.alloc's bump, for each gap size: 8 and 16 grow by a line.
	for gap := pmem.Addr(8); gap < pmem.LineSize; gap += 8 {
		unalignTop(h, pmem.LineSize-gap)
		at := h.sh.top
		p := h.Alloc(150, 1) // stride 192
		onLine(fmt.Sprintf("Heap.alloc, gap %d", gap), p)
		filler("Heap.alloc", at, p)
	}
	for _, size := range []int{40, 100, 200, 300} { // 64, 128, 256, 384
		unalignTop(h, 40)
		at := h.sh.top
		p := h.Alloc(size, 1)
		onLine(fmt.Sprintf("Heap.alloc of %d bytes", size), p)
		filler("Heap.alloc", at, p)
	}

	// Sub-line strides take no filler. (Stride 96 is the sub-line class no
	// filler has: fillers are 24–56, 72 or 80 bytes, and a free filler of
	// the asked stride would be reused instead.) Volatile blocks are placed
	// like durable ones: a fold that seals one flushes its lines.
	unalignTop(h, 8)
	at := h.sh.top
	unaligned("Heap.alloc of stride 96", at, h.Alloc(80, 1))
	unalignTop(h, 40)
	at = h.sh.top
	p := h.AllocVolatile(150, 1)
	onLine("Heap.AllocVolatile of stride 192", p)
	filler("Heap.AllocVolatile", at, p)

	// A fresh run's first block, and blocks inside the run.
	unalignTop(h, 24)
	at = h.sh.top
	ed := h.BeginEdit()
	p = ed.Alloc(150, 1)
	onLine("fresh run", p)
	filler("fresh run", at, p)
	at = p - headerSize + 192
	unaligned("in-run stride 96", at, ed.Alloc(80, 1))
	at += 96
	p = ed.Alloc(150, 1)
	onLine("in run", p)
	filler("in run", at, p)
	at = p - headerSize + 192
	unaligned("in-run stride 96", at, ed.Alloc(80, 1))
	at += 96
	p = ed.AllocVolatile(150, 1)
	onLine("in-run volatile stride 192", p)
	filler("in-run volatile", at, p)
	at = p - headerSize + 192
	unaligned("in-run stride 96", at, ed.Alloc(80, 1))
	at += 96
	p = ed.Alloc(100, 1)
	onLine("in run, stride 128", p)
	filler("in run", at, p)
	at = p - headerSize + 128
	unaligned("in-run volatile stride 96", at, ed.AllocVolatile(80, 1))
	at += 96
	p = ed.AllocVolatile(40, 1)
	onLine("in-run volatile stride 64", p)
	filler("in-run volatile", at, p)
	ed.Seal()
	h.Fence()

	// Free-list reuse in a selective store: navigation nodes carved in
	// FASEs between sub-line blocks, some sealed by a fold, then freed —
	// superseded, or unsealed at a crash and swept — go to the free list
	// of their stride, from which durable blocks of that stride are
	// taken.
	var navs []pmem.Addr
	for i := 0; i < 6; i++ {
		ed := h.BeginEdit()
		// Stride 24 first: the next block would start off a line.
		ed.Alloc(8, 1)
		for _, size := range []int{40, 100} { // strides 64 and 128
			n := ed.AllocVolatile(size, 1)
			if i%2 == 0 {
				h.SealNode(n, size) // a fold seals it
			}
			onLine(fmt.Sprintf("navigation node of %d bytes", size), n)
			navs = append(navs, n)
		}
		ed.Seal()
		h.Fence()
	}
	for _, n := range navs {
		h.Release(n)
	}
	h.Fence()
	h.Drain()
	reused := map[pmem.Addr]bool{}
	for _, n := range navs {
		reused[n] = true
	}
	ed = h.BeginEdit()
	for range navs {
		for _, size := range []int{40, 100} {
			if p := ed.Alloc(size, 1); reused[p] {
				onLine(fmt.Sprintf("durable block of %d bytes on a freed navigation node", size), p)
				delete(reused, p)
			}
		}
	}
	ed.Seal()
	h.Fence()
	if len(reused) != 0 {
		t.Errorf("%d of %d freed navigation nodes not reused by durable blocks of their stride", len(reused), len(navs))
	}

	// A reserve's first block: an edit's tail below another edit's run.
	ed = h.BeginEdit()
	small := ed.Alloc(8, 1) // stride 24: the tail starts 24 bytes into a line
	ed2 := h.Fork().BeginEdit()
	ed2.Alloc(8, 1)
	ed.Seal()
	ed2.Seal()
	h.Fence()
	if len(h.sh.reserves) != 1 || h.sh.reserves[0].start != small-headerSize+24 {
		t.Fatalf("reserves %+v, want one starting at %#x", h.sh.reserves, uint64(small-headerSize+24))
	}
	rv := h.sh.reserves[0]
	ed = h.BeginEdit()
	p = ed.Alloc(150, 1)
	if p < rv.start || p >= rv.end {
		t.Fatalf("block %#x not carved from the reserve [%#x, %#x)", uint64(p), uint64(rv.start), uint64(rv.end))
	}
	onLine("reserve", p)
	filler("reserve", rv.start, p)
	ed.Seal()
	h.Fence()

	// The table-full fallback: every run slot held by an open edit.
	var open []*Edit
	for i := 0; i < EditRunSlots; i++ {
		e := h.BeginEdit()
		e.Alloc(80, 1)
		open = append(open, e)
	}
	unalignTop(h, 56)
	at = h.sh.top
	ed = h.BeginEdit()
	p = ed.Alloc(150, 1)
	if !ed.Owns(p) || len(ed.runs) != 0 {
		t.Fatalf("block %#x: owned %v, from %d runs; want the eager fallback", uint64(p), ed.Owns(p), len(ed.runs))
	}
	onLine("table-full fallback", p)
	filler("table-full fallback", at, p)
	ed.Seal()
	for _, e := range open {
		e.Seal()
	}
	h.Fence()

	// Walking the chain, allocated blocks sum to LiveBytes and the free
	// ones — fillers and run tails — to the rest of the heap: a filler is
	// never live.
	var allocated, free uint64
	for a := pmem.Addr(heapBase); a < h.sh.top; {
		stride, _, alloc, ok := unpackHeader(dev.ReadU64(a))
		if !ok {
			t.Fatalf("chain broken at %#x", uint64(a))
		}
		if alloc {
			allocated += uint64(stride)
		} else {
			free += uint64(stride)
		}
		a += pmem.Addr(stride)
	}
	st := h.Stats()
	if free == 0 || allocated != st.LiveBytes || allocated+free != st.HeapUsed {
		t.Errorf("chain: %d allocated + %d free bytes; Stats: LiveBytes %d, HeapUsed %d", allocated, free, st.LiveBytes, st.HeapUsed)
	}
}

// cutEveryWrite is a tracer that, at every PM write, recovers the crash
// image of each of the four policies and hands the recovered heap to check.
type cutEveryWrite struct {
	*pmem.CrashCountdown // its Write is shadowed, so it only supplies the other, empty hooks
	dev                  *pmem.Device
	cfg                  pmem.Config
	writes               int
	check                func(cut int, policy pmem.CrashPolicy, h *Heap, err error)
}

func (c *cutEveryWrite) Write(pmem.Addr, int) {
	c.writes++
	for _, policy := range []pmem.CrashPolicy{pmem.CrashFencedOnly, pmem.CrashInflightRandom, pmem.CrashEvictRandom, pmem.CrashAllInflight} {
		h, err := Open(pmem.NewFromImage(c.cfg, c.dev.CrashImage(policy, uint64(c.writes))))
		if err == nil {
			h.RegisterWalker(1, func(*Heap, pmem.Addr, *Scratch, func(pmem.Addr)) {})
			_, err = h.Recover()
		}
		c.check(c.writes, policy, h, err)
	}
}

// TestFillerCrashSweep cuts every PM write of a history in which fillers
// are carved and reused, under all four crash policies. An edit carves a
// filler between two of its blocks, in a line of its own, while its
// first header is still volatile; a FASE on another handle commits while
// that edit is open; then later FASEs pop the filler — and one carved by
// an eager bump — off the free lists and commit into them. Every
// recovered image must keep every commit fenced before the cut, name
// only blocks from every root it recovers, and keep the bump pointer above
// every committed block. Had the edit published its filler before its
// seal sweep, the FASE on the other handle would commit into it ahead of
// the edit's first header, and recovery, skipping the edit's torn run,
// would step over the committed block.
func TestFillerCrashSweep(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := Format(dev)
	type commit struct {
		slot    int
		payload pmem.Addr
		val     uint64
		at      int // writes before its publication's fence completed; 0: not yet
	}
	var commits []*commit
	fillers := map[pmem.Addr]bool{} // payload addresses of the fillers carved
	tr := &cutEveryWrite{CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0), dev: dev, cfg: cfg}
	tr.check = func(cut int, policy pmem.CrashPolicy, h2 *Heap, err error) {
		if err != nil {
			t.Fatalf("cut %d, policy %d: recover: %v", cut, policy, err)
		}
		for _, c := range commits {
			root := h2.Root(c.slot)
			switch {
			case root == pmem.Nil && (c.at == 0 || cut <= c.at):
			case root != c.payload:
				t.Fatalf("cut %d, policy %d: root %d names %#x, want %#x (committed at write %d)", cut, policy, c.slot, uint64(root), uint64(c.payload), c.at)
			case h2.Device().ReadU64(root) != c.val:
				t.Fatalf("cut %d, policy %d: root %d reads %#x, want %#x", cut, policy, c.slot, h2.Device().ReadU64(root), c.val)
			case h2.sh.top < root+pmem.Addr(h2.PayloadSize(root)):
				t.Fatalf("cut %d, policy %d: heap truncated at %#x under the block at %#x", cut, policy, uint64(h2.sh.top), uint64(root))
			}
		}
	}
	// fase commits p, written with val, as a new root's version; ed is the
	// FASE's edit, nil for a block allocated outside one.
	fase := func(hh *Heap, ed *Edit, p pmem.Addr, val uint64) {
		c := &commit{payload: p, val: val}
		var err error
		if c.slot, err = hh.RootSlot(fmt.Sprint("r", len(commits))); err != nil {
			t.Fatal(err)
		}
		commits = append(commits, c)
		hh.Device().WriteU64(p, val)
		if ed != nil {
			ed.RecordNode(p, 8)
			ed.Seal()
		} else {
			hh.SealNode(p, 8)
		}
		hh.Fence()
		hh.SetRoot(c.slot, p)
		hh.Fence()
		c.at = tr.writes
	}
	dev.SetTracer(tr)
	defer dev.SetTracer(nil)

	// The edit's run starts on a line: two 48-byte blocks leave the
	// 192-byte block a 32-byte filler at bytes 96–128, on the line after
	// the first two headers.
	ed := h.BeginEdit()
	ed.Alloc(32, 1)
	x := ed.Alloc(32, 1)
	a := ed.Alloc(150, 1)
	gap := x - headerSize + 48
	if a-headerSize-gap != 32 || gap%pmem.LineSize != 32 {
		t.Fatalf("setup: blocks at %#x and %#x leave no 32-byte filler at a line's byte 32", uint64(x), uint64(a))
	}
	fillers[gap+headerSize] = true

	// Another handle's FASE commits while the edit is still open.
	other := h.Fork()
	ed2 := other.BeginEdit()
	fase(other, ed2, ed2.Alloc(16, 1), 0xb0)

	fase(h, ed, a, 0xa0)

	// An eager bump's filler, below a block committed before any FASE
	// reuses the filler: its header must be durable by that commit's fence.
	unalignTop(h, 32)
	gap = h.sh.top
	p := h.AllocNode(150, 1)
	if p-headerSize != gap+32 {
		t.Fatalf("setup: eager bump at %#x carved no filler at %#x", uint64(p), uint64(gap))
	}
	fillers[gap+headerSize] = true
	fase(h, nil, p, 0xe0)

	reused := 0
	for i := 0; i < 3; i++ {
		ed := other.BeginEdit()
		p := ed.Alloc(16, 1)
		if fillers[p] {
			reused++
		}
		fase(other, ed, p, uint64(0xc0+i))
	}
	if reused != len(fillers) {
		t.Fatalf("%d FASEs committed into the %d fillers", reused, len(fillers))
	}
	t.Logf("%d writes cut under every policy", tr.writes)
}
