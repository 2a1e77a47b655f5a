package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

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
