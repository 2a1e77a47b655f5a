package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// snapshot returns a copy of the store's full durable image.
func snapshot(s *Store) []byte {
	return s.dev.Snapshot()
}

// corruptStoredCRC flips a bit of the stored checksum word of the block
// behind the named root: the payload (and the pointers recovery chases)
// stay intact, but verification must flag the mismatch.
func corruptStoredCRC(t *testing.T, s *Store, name string, img []byte) {
	t.Helper()
	slot, err := s.heap.RootSlot(name)
	if err != nil {
		t.Fatal(err)
	}
	root := s.heap.Root(slot)
	if root == pmem.Nil {
		t.Fatalf("root %q not claimed", name)
	}
	img[root-alloc.HeaderSize+8] ^= 0x04
}

// TestOpenTruncatedImage is the regression test for the pre-§13
// behavior: a short image (half the configured arena) used to panic
// deep inside recovery. It must now fail the Open with a wrapped
// ErrCorrupted.
func TestOpenTruncatedImage(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.Map("mx")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		m.Set([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i)))
	}
	db.Sync()
	img := snapshot(db.Store())

	// Cut inside the live block area — the newest versions (including the
	// published root) sit near the bump top, so the truncation severs
	// committed reachable data, not just empty arena.
	lo, hi := db.Store().heap.DataBounds()
	half := img[:int(lo)+int(hi-lo)/2]
	db2, _, err := Open(cfg, WithExistingImages([][]byte{half}))
	if err == nil {
		db2.Close()
		t.Fatal("truncated image opened cleanly")
	}
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("truncated image error not ErrCorrupted: %v", err)
	}
	var cerr *CorruptionError
	if !errors.As(err, &cerr) {
		t.Fatalf("error not a *CorruptionError: %v", err)
	}
}

// TestOpenVerifyQuarantinesDamagedRoot: a store with one damaged and
// one healthy root opens degraded — the damage is reported, binds to
// the damaged root answer ErrCorrupted, and the healthy root serves
// reads and writes untouched.
func TestOpenVerifyQuarantinesDamagedRoot(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad, _ := db.Map("bad")
	good, _ := db.Map("good")
	bad.Set([]byte("k"), []byte("doomed"))
	good.Set([]byte("k"), []byte("fine"))
	db.Sync()
	img := snapshot(db.Store())
	corruptStoredCRC(t, db.Store(), "bad", img)

	db2, info, err := Open(cfg, WithExistingImages([][]byte{img}), WithVerify())
	if err != nil {
		t.Fatalf("degraded open failed entirely: %v", err)
	}
	if len(info.Damaged) != 1 || info.Damaged[0].Salvaged {
		t.Fatalf("Damaged = %+v, want one unsalvaged root", info.Damaged)
	}
	if !errors.Is(info.Damaged[0].Err, ErrCorrupted) {
		t.Fatalf("damage error not ErrCorrupted: %v", info.Damaged[0].Err)
	}
	if _, err := db2.Map("bad"); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("bind to quarantined root: %v, want ErrCorrupted", err)
	}
	if q := db2.Store().Quarantined(); len(q) != 1 {
		t.Fatalf("Quarantined() = %v", q)
	}
	g2, err := db2.Map("good")
	if err != nil {
		t.Fatalf("healthy root refused bind: %v", err)
	}
	if v, ok := g2.Get([]byte("k")); !ok || string(v) != "fine" {
		t.Fatalf("healthy root lost data: %q %v", v, ok)
	}
	g2.Set([]byte("k2"), []byte("more"))
	if v, ok := g2.Get([]byte("k2")); !ok || string(v) != "more" {
		t.Fatal("write to healthy root lost on a degraded store")
	}
}

// TestOpenVerifyRefusesFlippedMapCount: since heap layout v12 a map's
// count is the first word of its root node, not of a header block, and it
// stays under the node's checksum: one flipped bit in it (or in the
// root's bitmap word beside it) quarantines the root under WithVerify,
// and its binds answer ErrCorrupted, where an unchecked count would make
// Len lie.
func TestOpenVerifyRefusesFlippedMapCount(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := db.Map("mx")
	for i := 0; i < 40; i++ {
		m.Set([]byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	db.Sync()
	img := snapshot(db.Store())
	root := m.currentAddr()
	if got := binary.LittleEndian.Uint64(img[root:]); got != 40 {
		t.Fatalf("root %#x opens with count word %d, want 40", uint64(root), got)
	}
	for _, tc := range []struct {
		what string
		at   pmem.Addr
		mask byte
	}{{"count word", root, 0x02}, {"count word, top byte", root + 7, 0x80}, {"bitmap word", root + 8, 0x01}} {
		dmg := append([]byte(nil), img...)
		dmg[tc.at] ^= tc.mask
		db2, info, err := Open(cfg, WithExistingImages([][]byte{dmg}), WithVerify())
		if err != nil {
			t.Fatalf("%s: open failed entirely: %v", tc.what, err)
		}
		if len(info.Damaged) != 1 || !errors.Is(info.Damaged[0].Err, ErrCorrupted) {
			t.Fatalf("%s: Damaged = %+v, want the map's root refused with ErrCorrupted", tc.what, info.Damaged)
		}
		if _, err := db2.Map("mx"); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("%s: bind to the damaged root: %v, want ErrCorrupted", tc.what, err)
		}
		db2.Close()
	}
}

// TestOpenVerifyRefusesFlippedVectorCount: since heap layout v16 a
// vector's count, height (a bit shift before v17) and tail reference are
// the first words of its root, not of a header block, and they stay under
// the root's checksum as the map's count does: one flipped bit in the
// count or the height — to a height no root has, to one two levels up,
// or to zero — quarantines the root under WithVerify, and its binds answer
// ErrCorrupted — recovery's walk reads no child slot past what the
// checksum covers, whatever the count says. A flipped reference, the
// tail's or a child's, may instead name no block at all, which fails the
// open with a *CorruptionError as any wild reference does
// (TestWildReferenceIsCorruptionNotPanic); it is never served.
func TestOpenVerifyRefusesFlippedVectorCount(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db.Vector("vx")
	for i := 0; i < 40; i++ {
		v.Push(uint64(i))
	}
	db.Sync()
	img := snapshot(db.Store())
	root := v.currentAddr()
	if got := binary.LittleEndian.Uint64(img[root:]); got != 40 {
		t.Fatalf("root %#x opens with count word %d, want 40", uint64(root), got)
	}
	for _, tc := range []struct {
		what string
		at   pmem.Addr
		mask byte
		ref  bool
	}{
		{"count word", root, 0x02, false}, {"count word, up a leaf", root, 0x08, false},
		{"count word, top byte", root + 7, 0x80, false}, {"height", root + 8, 0x20, false},
		{"height, two levels up", root + 8, 0x02, false}, {"height, zero", root + 8, 0x01, false},
		{"tail reference", root + 12, 0x01, true}, {"tail reference, high bit", root + 15, 0x80, true},
		{"child reference", root + 16, 0x01, true},
	} {
		dmg := append([]byte(nil), img...)
		dmg[tc.at] ^= tc.mask
		db2, info, err := Open(cfg, WithExistingImages([][]byte{dmg}), WithVerify())
		var cerr *CorruptionError
		if tc.ref && errors.As(err, &cerr) && errors.Is(err, ErrCorrupted) && db2 == nil {
			continue
		}
		if err != nil {
			t.Fatalf("%s: open failed entirely: %v", tc.what, err)
		}
		if len(info.Damaged) != 1 || !errors.Is(info.Damaged[0].Err, ErrCorrupted) {
			t.Fatalf("%s: Damaged = %+v, want the vector's root refused with ErrCorrupted", tc.what, info.Damaged)
		}
		if _, err := db2.Vector("vx"); !errors.Is(err, ErrCorrupted) {
			t.Fatalf("%s: bind to the damaged root: %v, want ErrCorrupted", tc.what, err)
		}
		db2.Close()
	}
}

// TestOpenLazyVerifyDetectsHeaderDamage: without WithVerify the open
// stays cheap; damage to a structure header surfaces typed at first
// bind (the bind-time lazy check), quarantining the root instead of
// serving through a corrupt header.
func TestOpenLazyVerifyDetectsHeaderDamage(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := db.Map("mx")
	m.Set([]byte("k"), []byte("v"))
	db.Sync()
	img := snapshot(db.Store())
	corruptStoredCRC(t, db.Store(), "mx", img)

	db2, info, err := Open(cfg, WithExistingImages([][]byte{img}))
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	if len(info.Damaged) != 0 {
		t.Fatalf("lazy open reported damage eagerly: %+v", info.Damaged)
	}
	if _, err := db2.Map("mx"); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("bind to damaged header: %v, want ErrCorrupted", err)
	}
	// The damage is now quarantined: rebinding fails the same way.
	if q := db2.Store().Quarantined(); len(q) != 1 {
		t.Fatalf("Quarantined() = %v", q)
	}
}

// TestOpenLazyVerifyReportsShard: the bind-time lazy check names the
// shard the damaged root lives on, not shard 0.
func TestOpenLazyVerifyReportsShard(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true // for CrashImages
	db, _, err := Open(cfg, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	name := "mx0"
	for i := 1; db.ShardFor(name) != 1; i++ {
		name = fmt.Sprintf("mx%d", i)
	}
	m, err := db.Map(name)
	if err != nil {
		t.Fatal(err)
	}
	m.Set([]byte("k"), []byte("v"))
	db.Sync()
	imgs := db.CrashImages(pmem.CrashFencedOnly, 0)
	corruptStoredCRC(t, db.Shard(1), name, imgs[1])

	db2, info, err := Open(cfg, WithExistingImages(imgs))
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	if len(info.Damaged) != 0 {
		t.Fatalf("lazy open reported damage eagerly: %+v", info.Damaged)
	}
	_, err = db2.Map(name)
	var cerr *CorruptionError
	if !errors.As(err, &cerr) || !errors.Is(err, ErrCorrupted) {
		t.Fatalf("bind to damaged header: %v, want a *CorruptionError wrapping ErrCorrupted", err)
	}
	if cerr.Shard != 1 {
		t.Fatalf("CorruptionError.Shard = %d, want 1 (%v)", cerr.Shard, cerr)
	}
	if q := db2.Shard(1).Quarantined(); len(q) != 1 {
		t.Fatalf("shard 1 Quarantined() = %v", q)
	}
}

// TestScrubFindsDamage: a lazily opened store with a damaged root is
// scrubbed in the background; the scrub quarantines the root so later
// binds fail typed instead of panicking mid-read.
func TestScrubFindsDamage(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := db.Map("mx")
	m.Set([]byte("k"), []byte("v"))
	db.Sync()
	img := snapshot(db.Store())
	corruptStoredCRC(t, db.Store(), "mx", img)

	db2, _, err := Open(cfg, WithExistingImages([][]byte{img}))
	if err != nil {
		t.Fatal(err)
	}
	damaged := db2.Scrub(0)
	if len(damaged) != 1 {
		t.Fatalf("Scrub found %d damaged roots, want 1", len(damaged))
	}
	if _, err := db2.Map("mx"); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("bind after scrub: %v, want ErrCorrupted", err)
	}
	// A healthy store scrubs clean.
	db3, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m3, _ := db3.Map("mx")
	m3.Set([]byte("k"), []byte("v"))
	db3.Sync()
	if d := db3.Scrub(0); len(d) != 0 {
		t.Fatalf("healthy scrub reported damage: %+v", d)
	}
}

// TestOpenSalvageRollsBackSelectiveRoot: a damaged record cell under a
// selective root is salvaged by rolling back to the checkpoint; the
// dropped operations are reported and everything the checkpoint covers
// still serves.
func TestOpenSalvageRollsBackSelectiveRoot(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg, WithSelective(2))
	if err != nil {
		t.Fatal(err)
	}
	m, err := db.Map("mx")
	if err != nil {
		t.Fatal(err)
	}
	m.Set([]byte("a"), []byte("1"))
	m.Set([]byte("b"), []byte("2"))
	m.Set([]byte("c"), []byte("3")) // pending record past the last fold
	db.Sync()
	s := db.Store()
	slot, err := s.heap.RootSlot("mx")
	if err != nil {
		t.Fatal(err)
	}
	_, recHead, recCount := funcds.SelectiveExt(s.heap, s.heap.Root(slot))
	if recHead == pmem.Nil || recCount == 0 {
		t.Fatal("no pending record to damage")
	}
	img := snapshot(s)
	img[recHead+15] ^= 0x08 // kind word high byte: covered, not a pointer

	db2, info, err := Open(cfg, WithExistingImages([][]byte{img}), WithSalvage())
	if err != nil {
		t.Fatalf("salvage open failed entirely: %v", err)
	}
	if len(info.Damaged) != 1 || !info.Damaged[0].Salvaged {
		t.Fatalf("Damaged = %+v, want one salvaged root", info.Damaged)
	}
	if info.Damaged[0].DroppedOps == 0 {
		t.Fatal("rollback reported zero dropped ops")
	}
	m2, err := db2.Map("mx")
	if err != nil {
		t.Fatalf("salvaged root refused bind: %v", err)
	}
	for _, k := range []string{"a", "b"} {
		if _, ok := m2.Get([]byte(k)); !ok {
			t.Fatalf("checkpoint-covered key %q lost by salvage", k)
		}
	}
	if _, ok := m2.Get([]byte("c")); ok {
		t.Fatal("dropped record's key still visible after rollback")
	}
	// The salvaged root accepts new writes.
	m2.Set([]byte("d"), []byte("4"))
	if v, ok := m2.Get([]byte("d")); !ok || string(v) != "4" {
		t.Fatalf("post-salvage write lost: %q %v", v, ok)
	}
}

// TestOpenVerifyCatchesFlippedVolatileBit flips the volatile-node bit
// (bit 41 of header word 0) of a durable block — the first and the last
// live one of every tag class of an image holding each structure plain
// and selective, and a parent — and reopens with verify and salvage.
// Every root must be reported damaged or read back every acknowledged
// value. Recovery used to take the bit at its word: it zeroed the block
// as volatile navigation state, verification passed it unchecked, and a
// plain map whose root node took the flip came back empty with no error.
// Since heap layout v15 the bit is reserved and nothing reads it; the
// checksum, which covers header word 0, still reports the flip.
func TestOpenVerifyCatchesFlippedVolatileBit(t *testing.T) {
	f := newFlipFixture(t)
	for _, tag := range []uint8{funcds.TagBlob, funcds.TagStackHdr, funcds.TagListNode, funcds.TagQueueHdr,
		funcds.TagVecRoot, funcds.TagVecNode, funcds.TagVecLeaf, funcds.TagMapRoot, funcds.TagMapNode,
		funcds.TagParent, funcds.TagRecord, funcds.TagMapHdrSel, funcds.TagVecHdrSel, funcds.TagStackHdrSel,
		funcds.TagQueueHdrSel} {
		if len(f.live[tag]) == 0 {
			t.Fatalf("the image holds no live durable block of tag %d", tag)
		}
	}

	const volatileBit = uint64(1) << 41
	for _, tag := range slices.Sorted(maps.Keys(f.live)) {
		hdrs := f.live[tag]
		for _, hdr := range []pmem.Addr{hdrs[0], hdrs[len(hdrs)-1]} {
			dmg := slices.Clone(f.img)
			binary.LittleEndian.PutUint64(dmg[hdr:], binary.LittleEndian.Uint64(dmg[hdr:])|volatileBit)
			f.reopen(t, fmt.Sprintf("tag %d block %#x", tag, uint64(hdr)), dmg)
		}
	}
}

// TestOpenVerifyCatchesFlippedBindingLengths flips bits of the two length
// bytes — [klen][vtag], uvarints — at the front of binding blocks (heap
// layout v14), the lengths a reader takes to slice key and value out of
// the block, on the same image, and reopens with verification and
// salvage: every root is reported damaged or reads back whole, never a
// key or value cut from a neighbouring block. A selective root's record
// cells name bindings too, so the flip can land on the chain a salvage
// replays.
func TestOpenVerifyCatchesFlippedBindingLengths(t *testing.T) {
	f := newFlipFixture(t)
	bindings := f.live[funcds.TagBlob]
	if len(bindings) < 8 {
		t.Fatalf("the image holds %d live bindings, want at least 8", len(bindings))
	}
	for _, hdr := range append(bindings[:4:4], bindings[len(bindings)-4:]...) {
		p := hdr + alloc.HeaderSize
		for _, at := range []pmem.Addr{p, p + 1} {
			for _, mask := range []byte{0x01, 0x10, 0x40, 0x80} {
				dmg := slices.Clone(f.img)
				dmg[at] ^= mask
				if f.reopen(t, fmt.Sprintf("binding %#x byte %d ^ %#x", uint64(p), at-p, mask), dmg) == 0 {
					t.Errorf("binding %#x byte %d ^ %#x: no root reported damaged", uint64(p), at-p, mask)
				}
			}
		}
	}
}

// flipFixture is a sealed 1 MiB image holding every structure plain and
// selective and a parent-bound map, 64 operations each (the plain
// vector 300), for the tests
// that flip bits in it and reopen. The plain roots come first; the store
// turns selective before the first selective one, with no fold due, so
// every selective navigation node stays volatile (Heap.IsVolatile) and
// out of the fixture's live durable blocks.
type flipFixture struct {
	cfg   pmem.Config
	img   []byte
	roots []matrixStructure
	slots []int
	want  [][]string
	live  map[uint8][]pmem.Addr // the live durable blocks' headers by tag, in chain order
}

func newFlipFixture(t *testing.T) *flipFixture {
	// The plain vector takes more: below 264 elements its root holds its
	// leaves and there is no interior node to flip.
	const ops, vecOps = 64, 300
	f := &flipFixture{cfg: pmem.DefaultConfig(1 << 20), live: map[uint8][]pmem.Addr{}}
	db, _, err := Open(f.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Store()
	field := func(s *Store, nm string) (matrixOps, error) {
		p, err := s.Parent(nm, "f")
		if err != nil {
			return matrixOps{}, err
		}
		m, err := p.Map("f")
		if err != nil {
			return matrixOps{}, err
		}
		return mxMapOps(m), nil
	}
	f.roots = append([]matrixStructure{{"parent", false, field}}, matrixStructures()...)
	f.slots = make([]int, len(f.roots))
	f.want = make([][]string, len(f.roots))
	for i, r := range f.roots {
		if r.selective && !s.sh.selective {
			s.makeSelective(0)
		}
		o := r.mustBind(t, s, r.name)
		n := ops
		if r.name == "vector" {
			n = vecOps
		}
		for j := 0; j < n; j++ {
			o.basic(j)
		}
		f.want[i] = o.dump()
		if f.slots[i], err = s.heap.RootSlot(r.name); err != nil {
			t.Fatal(err)
		}
	}
	db.Sync()
	f.img = snapshot(s)

	lo, hi := s.heap.DataBounds()
	for a := lo; a+alloc.HeaderSize <= hi; {
		w0 := binary.LittleEndian.Uint64(f.img[a:])
		if uint32(w0) == 0 {
			t.Fatalf("unparsable header word %#x at %#x", w0, uint64(a))
		}
		if tag := uint8(w0 >> 32); !s.heap.IsVolatile(a+alloc.HeaderSize) && s.heap.RefCount(a+alloc.HeaderSize) > 0 {
			f.live[tag] = append(f.live[tag], a)
		}
		a += pmem.Addr(uint32(w0))
	}
	return f
}

// reopen opens dmg with verification and salvage, requires every root to
// be reported damaged or to read back whole, and returns how many roots
// were reported.
func (f *flipFixture) reopen(t *testing.T, what string, dmg []byte) int {
	t.Helper()
	db, info, err := Open(f.cfg, WithExistingImages([][]byte{dmg}), WithVerify(), WithSalvage())
	if err != nil {
		t.Errorf("%s: open failed entirely: %v", what, err)
		return 0
	}
	defer db.Close()
	reported := map[int]bool{}
	for _, d := range info.Damaged {
		reported[d.Slot] = true
	}
	for i, r := range f.roots {
		if reported[f.slots[i]] {
			continue
		}
		if err := flipReadBack(db.Store(), r, f.want[i]); err != nil {
			t.Errorf("%s: root %s is not reported damaged and %v", what, r.name, err)
		}
	}
	return len(reported)
}

// flipReadBack binds r on s and compares its contents with want.
func flipReadBack(s *Store, r matrixStructure, want []string) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panicked: %v", p)
		}
	}()
	o, err := r.bind(s, r.name)
	if err != nil {
		return fmt.Errorf("does not bind: %w", err)
	}
	if got := o.dump(); !slices.Equal(got, want) {
		return fmt.Errorf("reads back another state (%d entries of %d)", len(got), len(want))
	}
	return nil
}

// TestOutOfRangeAccessLeavesDeviceUsable: an access outside the arena
// panics, and a caller that recovers the panic finds the device as it
// was — its mutex free, so the next fence and the store's Close return —
// for every access that checks its range.
func TestOutOfRangeAccessLeavesDeviceUsable(t *testing.T) {
	db, _, err := Open(pmem.DefaultConfig(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := db.Vector("v")
	v.Push(1)
	dev := db.Store().dev.(*pmem.Device)
	past := pmem.Addr(1 << 20)
	for _, access := range []struct {
		name string
		do   func()
	}{
		{"ReadU64", func() { dev.ReadU64(past) }},
		{"WriteU64", func() { dev.WriteU64(past, 1) }},
		{"ReadU32", func() { dev.ReadU32(past) }},
		{"WriteU32", func() { dev.WriteU32(past, 1) }},
		{"Read", func() { dev.Read(past-4, make([]byte, 8)) }},
		{"Write", func() { dev.Write(past-4, make([]byte, 8)) }},
		{"Zero", func() { dev.Zero(past, 8) }},
		{"CasAddr", func() { dev.CasAddr(past, 0, 8) }},
		{"Clwb", func() { dev.Clwb(past) }},
		{"FlushRange", func() { dev.FlushRange(past-8, 16) }},
		{"ReadDRAM", func() { dev.ReadDRAM(past, 8) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the arena did not panic", access.name)
				}
			}()
			access.do()
		}()
		fenced := make(chan struct{})
		go func() {
			dev.Sfence()
			close(fenced)
		}()
		select {
		case <-fenced:
		case <-time.After(5 * time.Second):
			t.Fatalf("Sfence after a recovered out-of-range %s did not return: the device mutex is held", access.name)
		}
	}
	closed := make(chan error)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close after recovered out-of-range accesses did not return")
	}
}
