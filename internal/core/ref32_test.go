package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// The heap layout at the store's front door (DESIGN.md §2): the one
// readable version, the 32 GiB reach of a node reference, and what a
// reference that decodes to a non-block does — an error or a typed
// corruption panic, never a wild read.

// TestOpenRejectsOlderLayouts: an image stamped with any layout older
// than this build's fails the open with alloc.ErrHeapVersion and attaches
// nothing. Each row says what that layout holds that this build would
// misread. A version below the current one without a row fails the test,
// so a layout bump adds the row of the version it retires.
func TestOpenRejectsOlderLayouts(t *testing.T) {
	refused := []struct {
		version   uint64
		why       string
		stageLive bool // also refused with the version word's stage-live flag set
	}{
		{1, "no open-run table, and 8-byte block headers with no checksum word, where this build reads 16-byte headers whose second word is the checksum", false},
		{2, "8-byte block headers with neither a volatile-node bit nor a checksum word", false},
		{3, "8-byte block headers carrying a volatile-node bit and no checksum word", false},
		{4, "8-byte node references inside trie nodes, where this build reads 4-byte ones", false},
		{5, "a commit-log block this build would neither replay nor trace", false},
		{6, "32-element vector leaves, where this build indexes 8", false},
		{7, "multi-root commits in a one-slot batch record under a reserved root, which this build would neither replay nor retire, and root entries with no stage slots", false},
		{8, "16-byte root entries holding a bare address and no stage slots", false},
		{9, "multi-root commits in a batch record this build would neither replay nor retire, and 24-byte stage slots with no group word", true},
		{10, "no shard identity in the superblock and group words that count their members in 8 bits; a sharded store kept its cross-shard batches in a manifest on a metadata region this build no longer reads", false},
		{11, "a map named by a [count][root] header block, where this build reads a root node with the count in its first word", false},
		{12, "a recovery that never applies a selective structure's staged publication unlanded: it refuses the volatile navigation nodes it reaches, where this build's rounds digest only the durable blocks and acknowledge at the round's fence", false},
		{13, "map entries of two references, a key blob's and a value blob's, where this build reads one reference to a binding block", false},
		{14, "a recovery that follows a selective header's navigation words into every block whose volatile-node bit (header bit 41) reads clear, where this build follows only the checkpoint and the record chain and sweeps the navigation", false},
		{15, "a vector named by a [count][shift][root][tail] header block over a full 32-slot root node, where this build reads a root carrying count, height and tail ahead of its children", false},
		{16, "32-way vector interior nodes under roots that store the bit shift of their index digit, where this build reads 12-way nodes under a root that stores its height", false},
		{17, "28-way vector interior nodes of two lines, where this build reads 12-way nodes of one line: the same root names a different element behind every index digit", false},
	}

	cfg := pmem.DefaultConfig(1 << 20)
	db, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.Sync()
	img := snapshot(db.Store())
	db.Close()
	current := binary.LittleEndian.Uint64(img[8:]) // the superblock's version word
	if n := uint64(len(refused)); n != current-1 {
		t.Fatalf("rows cover v1 to v%d, want every layout below v%d", n, current)
	}

	open := func(t *testing.T, version uint64, why string) {
		stamped := slices.Clone(img)
		binary.LittleEndian.PutUint64(stamped[8:], version)
		db, info, err := Open(cfg, WithExistingImages([][]byte{stamped}))
		if !errors.Is(err, alloc.ErrHeapVersion) {
			t.Fatalf("open of a v%d image (version word %#x): %v, want alloc.ErrHeapVersion; that layout has %s", version&^(1<<63), version, err, why)
		}
		if db != nil || info.Recovered {
			t.Fatalf("refused open still attached something: db %v, info %+v", db, info)
		}
	}
	for i, r := range refused {
		if r.version != uint64(i+1) {
			t.Fatalf("row %d is v%d: one row per version, oldest first", i, r.version)
		}
		t.Run(fmt.Sprintf("v%d", r.version), func(t *testing.T) {
			open(t, r.version, r.why)
			if r.stageLive {
				open(t, r.version|1<<63, r.why)
			}
		})
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
	devs := []pmem.Backend{pmem.New(cfg), oversized{pmem.New(cfg)}}
	if _, _, err := Open(cfg, WithDevices(devs...)); !errors.Is(err, ErrRegionTooLarge) {
		t.Errorf("oversized shard 1 of 2: %v, want ErrRegionTooLarge", err)
	}
}

// firstChildSlot returns the address of the first child reference in the
// root node of the map bound to name — [count] then the trie node body —
// and that node's address.
func firstChildSlot(t *testing.T, s *Store, name string) (slot, node pmem.Addr) {
	t.Helper()
	rs, err := s.heap.RootSlot(name)
	if err != nil {
		t.Fatal(err)
	}
	node = s.heap.Root(rs)
	dataMap, nodeMap := s.dev.ReadU32(node+8), s.dev.ReadU32(node+12)
	if nodeMap == 0 {
		t.Fatal("root trie node has no children; load more keys")
	}
	return node + 16 + pmem.Addr(bits.OnesCount32(dataMap)*8), node
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
	const vecLen = 2000 // a root of height 3
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

				// The vector's descents and root copy, same reference in
				// the root's first child slot, behind count, height and tail.
				rs, err := s.heap.RootSlot("vx")
				if err != nil {
					t.Fatal(err)
				}
				vroot := s.heap.Root(rs)
				plant(vroot+16, vroot)
				// Child 0 of the root spans the elements below its index
				// digit: a full subtree one level below the root's height.
				span := funcds.VectorSpan(s.dev.ReadU32(vroot+8) - 1)
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
// allocated funcds node in it, and the map's root node.
func fuzzImage(tb testing.TB, cfg pmem.Config) (img []byte, payload []pmem.Addr, mapRoot pmem.Addr) {
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
	mapRoot = m.currentAddr()
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
	return img, payload, mapRoot
}

// FuzzAttachMutatedImage flips fuzzer-chosen bytes inside node payloads
// of a sealed image and reopens it, with eager verification and without.
// Allowed: the open fails with ErrCorrupted; a root is quarantined; a
// read raises a typed corruption panic; a read returns what was written.
// Anything else — above all an untyped panic — fails.
func FuzzAttachMutatedImage(f *testing.F) {
	cfg := pmem.DefaultConfig(1 << 20)
	img, payload, mapRoot := fuzzImage(f, cfg)

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
	// The map's root node: its count word (heap layout v12) and its
	// bitmap word, each under both verification modes.
	at := slices.Index(payload, mapRoot)
	if at < 0 {
		f.Fatalf("map root %#x is not a node payload of the image", uint64(mapRoot))
	}
	root := uint32(at)
	for _, verify := range []bool{true, false} {
		f.Add(seed(root, 0x01), verify)    // count, low bit
		f.Add(seed(root+7, 0x80), verify)  // count, top bit
		f.Add(seed(root+8, 0x01), verify)  // dataMap
		f.Add(seed(root+12, 0x01), verify) // nodeMap
		f.Add(seed(root+15, 0x80), verify) // nodeMap, top bit
		f.Add(seed(root+2, 0x01, root+9, 0x01), verify)
	}
	// A binding block's two length bytes, [klen][vtag] (heap layout v14):
	// the first binding down the trie's first branch.
	node, pre := mapRoot, pmem.Addr(8)
	for binary.LittleEndian.Uint32(img[node+pre:]) == 0 {
		node, pre = pmem.Addr(binary.LittleEndian.Uint32(img[node+pre+8:]))<<3, 0
	}
	at = slices.Index(payload, pmem.Addr(binary.LittleEndian.Uint32(img[node+pre+8:]))<<3)
	if at < 0 {
		f.Fatalf("no binding block found under the map root %#x", uint64(mapRoot))
	}
	pair := uint32(at)
	for _, verify := range []bool{true, false} {
		f.Add(seed(pair, 0x08), verify)   // klen
		f.Add(seed(pair+1, 0x40), verify) // vtag
		f.Add(seed(pair, 0x80, pair+1, 0x80), verify)
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
