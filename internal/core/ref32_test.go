package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// The heap layout at the store's front door (DESIGN.md §2): the one
// readable version, the 32 GiB reach of a node reference, and what a
// reference that decodes to a non-block does — an error or a typed
// corruption panic, never a wild read.

// TestOpenRefusesV4Heap: an image stamped with the 8-byte-reference
// layout fails the open with alloc.ErrHeapVersion and attaches nothing.
func TestOpenRefusesV4Heap(t *testing.T) { openStampedHeap(t, 4) }

// TestOpenRejectsV5Heap: so does a layout whose heaps anchor a commit-log
// block this build would neither replay nor trace.
func TestOpenRejectsV5Heap(t *testing.T) { openStampedHeap(t, 5) }

// TestOpenRejectsV6Heap: and the layout before this one, whose vector
// leaves hold 32 elements where this build indexes 8.
func TestOpenRejectsV6Heap(t *testing.T) { openStampedHeap(t, 6) }

// TestOpenRejectsV8Heap: and the layout before this one, whose 16-byte
// root entries hold a bare address and no stage slots.
func TestOpenRejectsV8Heap(t *testing.T) { openStampedHeap(t, 8) }

func openStampedHeap(t *testing.T, version uint64) {
	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Sync()
	img := snapshot(db.Store())
	db.Close()
	binary.LittleEndian.PutUint64(img[8:], version) // the superblock's version word

	db2, info, err := Open(cfg, WithExistingImages([][]byte{img}))
	if !errors.Is(err, alloc.ErrHeapVersion) {
		t.Fatalf("open of a v%d image: %v, want alloc.ErrHeapVersion", version, err)
	}
	if db2 != nil || info.Recovered {
		t.Fatalf("refused open still attached something: db %v, info %+v", db2, info)
	}
}

// oversized reports a region one line past the reach of a 4-byte
// reference; nothing else of it is ever touched.
type oversized struct{ pmem.Backend }

func (oversized) Size() int64 { return funcds.MaxHeapBytes + pmem.LineSize }

func TestOpenRefusesOversizedRegion(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	for _, attach := range []bool{false, true} {
		opts := []Option{WithDevices(oversized{pmem.New(cfg)})}
		if attach {
			opts = append(opts, WithAttach())
		}
		db, _, err := Open(cfg, opts...)
		if !errors.Is(err, ErrRegionTooLarge) || db != nil {
			t.Errorf("attach=%v: open of a region past 32 GiB: db %v, error %v; want nil and ErrRegionTooLarge", attach, db, err)
		}
	}
	// Shards are checked one by one: only the oversized one is named.
	devs := []pmem.Backend{pmem.New(cfg), oversized{pmem.New(cfg)}, pmem.New(metaConfig(cfg))}
	if _, _, err := Open(cfg, WithDevices(devs...)); !errors.Is(err, ErrRegionTooLarge) {
		t.Errorf("oversized shard 1 of 2: %v, want ErrRegionTooLarge", err)
	}
}

// firstChildSlot returns the address of the first child reference in the
// root trie node of the map bound to name, and that node's address.
func firstChildSlot(t *testing.T, s *Store, name string) (slot, node pmem.Addr) {
	t.Helper()
	rs, err := s.heap.RootSlot(name)
	if err != nil {
		t.Fatal(err)
	}
	node = pmem.Addr(s.dev.ReadU64(s.heap.Root(rs) + 8))
	dataMap, nodeMap := s.dev.ReadU32(node), s.dev.ReadU32(node+4)
	if nodeMap == 0 {
		t.Fatal("root trie node has no children; load more keys")
	}
	return node + 8 + pmem.Addr(bits.OnesCount32(dataMap)*8), node
}

// raisesCorruption runs f and reports whether it raised the typed
// corruption panic; any other panic propagates.
func raisesCorruption(f func()) (raised bool) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *alloc.CorruptionPanic:
			raised = true
		default:
			panic(r)
		}
	}()
	f()
	return false
}

// TestWildReferenceIsCorruptionNotPanic plants references that decode
// outside the arena, into the superblock and into the middle of a block
// in a node whose checksum is then re-stamped — so only the reference
// itself is wrong — and checks every way it can be met: by recovery's
// reachability scan at open (the open fails with a *CorruptionError), by
// a lookup on a live store, and by an update, which either descends
// through the reference or path-copies the node holding it (a typed
// corruption panic each time, after which the store still serves).
func TestWildReferenceIsCorruptionNotPanic(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	const vecLen = 2000 // two interior levels
	for _, verify := range []bool{false, true} {
		for _, wild := range []struct {
			name string
			ref  func(child pmem.Addr) uint32
		}{
			{"past the arena", func(pmem.Addr) uint32 { return ^uint32(0) }},
			{"into the superblock", func(pmem.Addr) uint32 { return 0x1a0 >> 3 }},
			{"mid-block", func(child pmem.Addr) uint32 { return uint32((child + 8) >> 3) }},
		} {
			t.Run(fmt.Sprintf("%s/verify=%v", wild.name, verify), func(t *testing.T) {
				db, _, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				m, _ := db.Map("mx")
				for i := 0; i < 300; i++ {
					m.Set(key(i), []byte("v"))
				}
				v, _ := db.Vector("vx")
				for i := 0; i < vecLen; i++ {
					v.Push(uint64(i))
				}
				db.Sync()
				s := db.Store()
				// plant overwrites the reference at slot inside node and
				// re-stamps node's checksum over the result.
				plant := func(slot, node pmem.Addr) {
					n, _, _ := s.heap.Checksum(node)
					s.dev.WriteU32(slot, wild.ref(pmem.Addr(s.dev.ReadU32(slot))<<3))
					s.heap.SetChecksum(node, n)
				}
				plant(firstChildSlot(t, s, "mx"))

				opts := []Option{WithExistingImages([][]byte{snapshot(s)})}
				if verify {
					opts = append(opts, WithVerify())
				}
				db2, _, err := Open(cfg, opts...)
				var cerr *CorruptionError
				if !errors.As(err, &cerr) || !errors.Is(err, ErrCorrupted) || db2 != nil {
					t.Fatalf("open over a wild reference: db %v, error %v; want a *CorruptionError", db2, err)
				}

				// The same reference met by lookups on the live store: every
				// key either reads back or raises the typed panic, and some
				// key does sit under the damaged slot.
				lookups := func() {
					t.Helper()
					raised := 0
					for i := 0; i < 300; i++ {
						if raisesCorruption(func() {
							if v, ok := m.Get(key(i)); !ok || string(v) != "v" {
								t.Errorf("key %d reads %q, %v beside a damaged subtree", i, v, ok)
							}
						}) {
							raised++
						}
					}
					if raised == 0 {
						t.Error("no lookup met the wild reference")
					}
				}
				lookups()

				// Updates: the damaged node is the root trie node, so every
				// Set and Delete either descends through the reference or
				// copies the node around it. None may publish, and none may
				// die in the allocator's refcount checks instead.
				for i := 0; i < 16; i++ {
					if !raisesCorruption(func() { m.Set(key(i), []byte("w")) }) {
						t.Errorf("Set of key %d went through a damaged root node", i)
					}
					if !raisesCorruption(func() { m.Delete(key(i)) }) {
						t.Errorf("Delete of key %d went through a damaged root node", i)
					}
				}
				lookups()

				// The vector's descents and node copy, same reference in
				// slot 0 of its root node.
				rs, err := s.heap.RootSlot("vx")
				if err != nil {
					t.Fatal(err)
				}
				vhdr := s.heap.Root(rs)
				vroot := pmem.Addr(s.dev.ReadU64(vhdr + 16))
				plant(vroot, vroot)
				// Slot 0 of the root spans the elements below its index
				// digit: the header's shift field says how many.
				span := uint64(1) << s.dev.ReadU32(vhdr+8)
				for _, i := range []uint64{0, span - 1, span, vecLen - 100} {
					under := i < span
					if got := raisesCorruption(func() {
						if x := v.Get(i); x != i {
							t.Errorf("vector[%d] = %d beside a damaged subtree", i, x)
						}
					}); got != under {
						t.Errorf("vector Get(%d) raised=%v, want %v", i, got, under)
					}
					if !raisesCorruption(func() { v.Update(i, 7) }) {
						t.Errorf("vector Update(%d) went through a damaged root node", i)
					}
				}
			})
		}
	}
}

// Native fuzz target for the attach path over damaged node payloads
// (ROADMAP 4b). Run continuously in CI (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzAttachMutatedImage -fuzztime=30s ./internal/core
//
// The seed corpus doubles as an ordinary regression test.

const (
	fuzzImageKeys = 200 // two trie levels
	fuzzImageVec  = 100 // an interior node over twelve leaves, plus the tail
)

func fuzzKey(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func fuzzVal(i int) []byte { return []byte(fmt.Sprintf("val-%08d-%032d", i, i)) }

// fuzzImage builds a small committed store — one map, one vector — and
// returns its image with the address of every payload byte of every
// allocated funcds node in it.
func fuzzImage(tb testing.TB, cfg pmem.Config) (img []byte, payload []pmem.Addr) {
	tb.Helper()
	db, _, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	defer db.Close()
	m, _ := db.Map("fz-map")
	v, _ := db.Vector("fz-vec")
	for i := 0; i < fuzzImageKeys; i++ {
		m.Set(fuzzKey(i), fuzzVal(i))
	}
	for i := 0; i < fuzzImageVec; i++ {
		v.Push(uint64(i) * 3)
	}
	db.Sync()
	img = snapshot(db.Store())
	lo, hi := db.Store().heap.DataBounds()
	for hdr := lo; hdr < hi; {
		w := binary.LittleEndian.Uint64(img[hdr:])
		stride, tag, allocated := pmem.Addr(uint32(w)), uint8(w>>32), w>>40&1 == 1
		if allocated && tag >= funcds.TagBlob && tag <= funcds.TagQueueHdrSel {
			for a := hdr + alloc.HeaderSize; a < hdr+stride; a++ {
				payload = append(payload, a)
			}
		}
		hdr += stride
	}
	return img, payload
}

// FuzzAttachMutatedImage flips fuzzer-chosen bytes inside node payloads
// of a sealed image and reopens it, with eager verification and without.
// Allowed: the open fails with ErrCorrupted; a root is quarantined; a
// read raises a typed corruption panic; a read returns what was written.
// Anything else — above all an untyped panic — fails.
func FuzzAttachMutatedImage(f *testing.F) {
	cfg := pmem.DefaultConfig(1 << 20)
	img, payload := fuzzImage(f, cfg)

	// A flip is five input bytes: a little-endian index into payload, then
	// the mask XORed into that byte.
	seed := func(pairs ...uint32) []byte {
		var b []byte
		for i := 0; i+1 < len(pairs); i += 2 {
			b = binary.LittleEndian.AppendUint32(b, pairs[i])
			b = append(b, byte(pairs[i+1]))
		}
		return b
	}
	n := uint32(len(payload))
	f.Add([]byte(nil), false)
	f.Add(seed(0, 0x01), true)
	f.Add(seed(0, 0x01), false)
	f.Add(seed(n/2, 0x80, n/2+1, 0xff), false)
	f.Add(seed(n/3, 0x10, 2*n/3, 0x04, n-1, 0x40), true)
	f.Add(seed(n-9, 0xff, n-10, 0xff, n-11, 0xff, n-12, 0xff), false)
	for i := uint32(0); i < 16; i++ {
		f.Add(seed(i*n/16+i, 1<<(i%8)), i%2 == 0)
	}

	f.Fuzz(func(t *testing.T, flips []byte, verify bool) {
		dmg := append([]byte(nil), img...)
		for i := 0; i+5 <= len(flips) && i < 5*16; i += 5 {
			dmg[payload[binary.LittleEndian.Uint32(flips[i:])%n]] ^= flips[i+4]
		}
		opts := []Option{WithExistingImages([][]byte{dmg})}
		if verify {
			opts = append(opts, WithVerify())
		}
		db, _, err := Open(cfg, opts...)
		if err != nil {
			if !errors.Is(err, ErrCorrupted) {
				t.Fatalf("open failed untyped: %v", err)
			}
			return
		}
		defer db.Close()

		// intact runs one lookup and reports whether it completed; a typed
		// corruption panic is detection. Lazy verification reports a damaged
		// block to the first reader only (DESIGN.md §13), so after one the
		// structure counts as detected and is read no further.
		intact := func(what string, lookup func() bool) (completed bool) {
			defer func() {
				switch r := recover().(type) {
				case nil, *alloc.CorruptionPanic:
				default:
					panic(r)
				}
			}()
			if !lookup() {
				t.Errorf("silent wrong read: %s", what)
			}
			return true
		}
		if m, err := db.Map("fz-map"); err == nil {
			for i := 0; i < fuzzImageKeys; i++ {
				if !intact(fmt.Sprintf("map key %d", i), func() bool {
					got, ok := m.Get(fuzzKey(i))
					return ok && string(got) == string(fuzzVal(i))
				}) {
					break
				}
			}
		} else if !errors.Is(err, ErrCorrupted) {
			t.Fatalf("map bind failed untyped: %v", err)
		}
		if v, err := db.Vector("fz-vec"); err == nil {
			for i := 0; i < fuzzImageVec; i++ {
				if !intact(fmt.Sprintf("vector element %d", i), func() bool { return v.Get(uint64(i)) == uint64(i)*3 }) {
					break
				}
			}
		} else if !errors.Is(err, ErrCorrupted) {
			t.Fatalf("vector bind failed untyped: %v", err)
		}
	})
}
