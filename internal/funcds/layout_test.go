package funcds

import (
	"fmt"
	"math/bits"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Heap layout v7 pins (DESIGN.md §2). These tests hold the node geometry
// and the flush and read budgets of one Map.Set and one Vector.Update on
// the deterministic simulator, so a change that widens a node — or walks
// one it need not — fails here by name and not only in the
// BENCH_baseline.json diff. CI's bench job runs them next to the
// micro-benchmarks.

// sealedLen is the byte count a sealed node's checksum covers: exactly
// what its constructor encoded.
func sealedLen(t *testing.T, h *alloc.Heap, a pmem.Addr) int {
	t.Helper()
	n, ok, has := h.Checksum(a)
	if !has || !ok {
		t.Fatalf("node %#x: checksum present=%v matches=%v", uint64(a), has, ok)
	}
	return n
}

func TestNodeLayoutSizes(t *testing.T) {
	h := newTestHeap(t)
	pair := newPair(h, nil, []byte("k"), nil)
	leaf := newVecLeaf(h, nil, false, []uint64{1})

	entries := make([]pmem.Addr, mapWidth)
	children := make([]pmem.Addr, mapWidth)
	var slots [vecWidth]pmem.Addr
	var rootRefs [1 + vecWidth]pmem.Addr // a tail and vecWidth children
	for i := range entries {
		entries[i] = pair
		children[i] = leaf
	}
	for i := range rootRefs {
		rootRefs[i] = leaf
	}
	copy(slots[:], rootRefs[:])

	// payload is the encoded size; stride the size class it lands in
	// (payload + the 16-byte block header, rounded up).
	cases := []struct {
		name            string
		node            pmem.Addr
		payload, stride int
	}{
		{"map node, 32 children", buildMapNode(h, nil, false, 0, 0, 0, ^uint32(0), nil, children), 136, 192},
		{"map node, 2 entries", buildMapNode(h, nil, false, 0, 0, 3, 0, entries[:2], nil), 16, 32},
		{"map node, 1 entry + 1 child", buildMapNode(h, nil, false, 0, 0, 1, 2, entries[:1], children[:1]), 16, 32},
		{"map node, 32 entries", buildMapNode(h, nil, false, 0, 0, ^uint32(0), 0, entries, nil), 136, 192},
		{"collision bucket, 2 entries", buildCollision(h, nil, false, entries[:2]), 16, 32},
		{"vector node", writeNode(h, nil, false, slots), vecNodeSize, 64},
		{"vector leaf", leaf, 64, 80},
		{"map root, empty", NewMap(h).Addr(), 16, 32},
		{"map root, 32 children", buildMapNode(h, nil, false, rootPrefix, 32, 0, ^uint32(0), nil, children), 144, 192},
		// Every vector root takes at least the 64-byte class, one line,
		// which holds up to 8 children.
		{"vector root, empty", NewVector(h).Addr(), 16, 64},
		{"vector root, 8 children", writeRoot(h, nil, false, &vecRoot{count: 100_000, height: 4, k: 8, refs: rootRefs}), 48, 64},
		{"vector root, full", writeRoot(h, nil, false, &vecRoot{count: vecSpan[1] + 1, height: 1, k: vecWidth, refs: rootRefs}), int(rootRef(1 + vecWidth)), 80},
		// A binding is [klen][vtag] as uvarints, then key and value: the
		// benchmark's 12-byte key and 64-byte value fit the 96-byte class.
		{"binding, 12-byte key, 64-byte value", newPair(h, nil, make([]byte, 12), make([]byte, 64)), 78, 96},
		{"binding, set member", pair, 3, 24},
		{"binding, 200-byte key, empty value", newPair(h, nil, make([]byte, 200), []byte{}), 203, 256},
	}
	for _, c := range cases {
		if got := sealedLen(t, h, c.node); got != c.payload {
			t.Errorf("%s: encoded in %d bytes, want %d", c.name, got, c.payload)
		}
		if got := h.PayloadSize(c.node) + alloc.HeaderSize; got != c.stride {
			t.Errorf("%s: block stride %d, want %d", c.name, got, c.stride)
		}
	}

	// What was encoded decodes to the same references, and a root to its
	// count as well.
	var n mapNode
	readMapNode(h, nil, nil, cases[2].node, 0, &n)
	if n.dataMap != 1 || n.nodeMap != 2 || n.eb[0] != entries[0] || n.cb[0] != leaf {
		t.Errorf("mixed map node decodes to %+v / %#x", n.eb[0], uint64(n.cb[0]))
	}
	readMapNode(h, nil, nil, cases[8].node, rootPrefix, &n)
	if n.count != 32 || n.dataMap != 0 || n.nodeMap != ^uint32(0) || n.cb[31] != leaf {
		t.Errorf("full map root decodes to count %d, maps %#x/%#x", n.count, n.dataMap, n.nodeMap)
	}
	if got := readNode(h, nil, nil, cases[5].node); got != slots {
		t.Errorf("vector node decodes to %v", got)
	}
	var vr vecRoot
	readRoot(h, nil, nil, cases[10].node, &vr)
	if vr.count != 100_000 || vr.height != 4 || vr.k != 8 || vr.refs[0] != leaf || vr.refs[8] != leaf || vr.refs[9] != pmem.Nil {
		t.Errorf("8-child vector root decodes to count %d, height %d, %d children", vr.count, vr.height, vr.k)
	}
	// A set member has no value; an empty value is not a missing one.
	if k, v := pairAt(h, nil, pair); string(k) != "k" || v != nil {
		t.Errorf("set member decodes to %q=%v", k, v)
	}
	if k, v := pairAt(h, nil, cases[14].node); len(k) != 200 || v == nil || len(v) != 0 {
		t.Errorf("empty value decodes to a %d-byte key and %v", len(k), v)
	}
}

// TestBindingLengthsBounded: the lengths at the front of a binding block
// are data, so a reader checks them against what the block's checksum
// covers (alloc.Heap.Extent) before it slices key and value out of the
// bytes it read. Each damaged length here is written straight to the
// device, past any checksum, and must raise the typed corruption panic —
// never return bytes of the block behind it. The neighbour is a binding
// of the same class whose bytes a read running over would pick up.
func TestBindingLengthsBounded(t *testing.T) {
	h := newTestHeap(t)
	dev := h.Device()
	for _, c := range []struct {
		name  string
		bytes []byte // written over the front of a 3-byte-key, 4-byte-value binding
	}{
		{"key runs past the block", []byte{40}},
		{"key runs past the checksum-covered length", []byte{8}},
		{"value runs past the block", []byte{3, 60}},
		{"value runs past the checksum-covered length", []byte{3, 6}},
		{"key length never ends", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}},
		{"value length never ends", []byte{3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := newPair(h, nil, []byte("key"), []byte("vals"))
			newPair(h, nil, []byte("neighbour"), []byte("bytes"))
			if k, v := pairAt(h, nil, p); string(k) != "key" || string(v) != "vals" {
				t.Fatalf("intact binding reads %q=%q", k, v)
			}
			dev.Write(p, c.bytes)
			defer func() {
				if _, ok := recover().(*alloc.CorruptionPanic); !ok {
					t.Errorf("damaged lengths did not raise a corruption panic")
				}
			}()
			k, v := pairAt(h, nil, p)
			t.Errorf("damaged binding read as %q=%q", k, v)
		})
	}
}

func TestRef32RoundTrip(t *testing.T) {
	last := pmem.Addr(MaxHeapBytes - 8) // the highest payload address a reference reaches
	for _, a := range []pmem.Addr{pmem.Nil, 8, 0x4d0, 1<<32 - 8, 1 << 32, last} {
		if got := refAddr(ref32(a)); got != a {
			t.Errorf("ref32 round trip of %#x gives %#x", uint64(a), uint64(got))
		}
	}
	if ref32(pmem.Nil) != 0 || ref32(last) != ^uint32(0) {
		t.Errorf("ref32(Nil) = %#x, ref32(32 GiB - 8) = %#x; want 0 and all ones", ref32(pmem.Nil), ref32(last))
	}
	for _, bad := range []pmem.Addr{pmem.Addr(MaxHeapBytes), pmem.Addr(MaxHeapBytes) + 8, 4, 0x4d1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ref32(%#x) did not panic", uint64(bad))
				}
			}()
			ref32(bad)
		}()
	}
}

// faseCounters runs n one-operation FASEs and returns the device counters
// they moved and the blocks they allocated, having checked what every such
// FASE promises: one fence each, and — versions die in publication order —
// every borrow record dissolved when its source did, no copy ever made to
// count what it shares.
func faseCounters(t *testing.T, h *alloc.Heap, n int, fase func(i int)) (d pmem.Stats, allocs uint64) {
	t.Helper()
	dev := h.Device()
	base, abase := dev.Stats(), h.Stats()
	for i := 0; i < n; i++ {
		fase(i)
	}
	d, a := dev.Stats().Sub(base), h.Stats()
	if d.Fences != uint64(n) {
		t.Errorf("%d fences for %d FASEs, want exactly one each", d.Fences, n)
	}
	if a.Borrows != 0 || a.Settled != abase.Settled {
		t.Errorf("%d borrow records left and %d copies settled by %d one-operation FASEs, want none", a.Borrows, a.Settled-abase.Settled, n)
	}
	return d, a.Allocs - abase.Allocs
}

// setExistingCounters is the lib-map-write shape in miniature: a
// 50,000-key map of 12-byte keys and 64-byte values, then 2,000 FASEs of
// one Set of an existing key each, committed as core commits them. It
// returns the device counters of the 2,000 FASEs and the blocks they
// allocated.
func setExistingCounters(t *testing.T) (d pmem.Stats, sets int, allocs uint64) {
	const keys = 50_000
	sets = 2_000
	h := benchHeap(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := make([]byte, 64)
	cur := NewMap(h).Addr()
	for i := 0; i < keys; i += benchLoad {
		ed := h.BeginEdit()
		m := MapAt(h, cur).WithEdit(ed)
		for k := i; k < min(i+benchLoad, keys); k++ {
			m, _ = m.Set(key(k), val)
		}
		commit(h, ed, &cur, m.Addr())
	}

	at := 0
	d, allocs = faseCounters(t, h, sets, func(i int) {
		at = (at + 7919) % keys
		val[0] = byte(i)
		ed := h.BeginEdit()
		m, replaced := MapAt(h, cur).WithEdit(ed).Set(key(at), val)
		if !replaced {
			t.Fatalf("key %d was not present", at)
		}
		commit(h, ed, &cur, m.Addr())
	})
	return d, sets, allocs
}

// TestMapSetFlushBudget: the path copy is the root and two or three
// nodes below it of up to 32 children, plus the new binding block (4.8
// blocks per Set); at 4 bytes a reference, and one reference an entry,
// that is ≈ 11.5 flushed lines and 600 PM bytes per Set here, under
// exactly one fence. With two references an entry, to a key blob and a
// value blob (heap layout v13), the same Sets flushed 12.34 lines and
// 645 bytes: of this trie's 1,024 third-level nodes (25.7 slots on
// average) 670 now fit a 128-byte block (2 lines), where 960 took a
// 192-byte one (3) and 60 a 256-byte one.
// The trie nodes' whole-line blocks start on a line (alloc's placeAt):
// carved wherever the run stood, the v13 Sets flushed 13.39 lines. A
// replacing Set allocates what it did before bindings — the copies and
// one block, then the value blob — and since heap layout v12, when the
// root took the count, one block fewer than the 11,605 the same 2,000
// Sets took with a [count][root] header block (14.74 flushes, 677 bytes).
func TestMapSetFlushBudget(t *testing.T) {
	const (
		maxFlushes  = 11.9 // measured 11.53, + 3 %
		maxBytes    = 618  // measured 600, + 3 %
		headerAlloc = 11_605
	)
	d, sets, allocs := setExistingCounters(t)
	perOp := float64(d.Flushes) / float64(sets)
	bytes := float64(d.BytesWritten) / float64(sets)
	t.Logf("%.2f flushes, %.0f PM bytes and %.3f blocks per Set", perOp, bytes, float64(allocs)/float64(sets))
	if perOp > maxFlushes {
		t.Errorf("%.2f flushes per Set, budget %.1f", perOp, maxFlushes)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f PM bytes per Set, budget %d", bytes, maxBytes)
	}
	if want := uint64(headerAlloc - sets); allocs != want {
		t.Errorf("%d blocks allocated by %d Sets, want %d: one fewer each than with a header block", allocs, sets, want)
	}
}

// TestMapSetReadBudget: PM read calls per Set on the same run. The
// descent, the node images the copy is built from, the two reads of the
// binding whose key the descent compares (its header words, then its
// bytes: a blob's length word and bytes before heap layout v14) and one
// header word per block the old version frees are ≈ 18.2 (≈ 23 with a
// map header block, whose root pointer and the root's tag the descent
// read first, and which the old version freed too); walking the
// superseded nodes to uncount their children, and re-reading each freed
// block's header for its stride, made it ≈ 37 before path copies
// borrowed (alloc/borrow.go). The budget was 30 until heap layout v14.
func TestMapSetReadBudget(t *testing.T) {
	const maxReads = 18.8 // measured 18.21, + 3 %
	d, sets, _ := setExistingCounters(t)
	perOp := float64(d.Reads) / float64(sets)
	t.Logf("%.2f PM reads (%.0f bytes) per Set", perOp, float64(d.BytesRead)/float64(sets))
	if perOp > maxReads {
		t.Errorf("%.2f PM reads per Set, budget %.1f", perOp, maxReads)
	}
}

// TestMapSpaceBudget: the live bytes per key of a 50,000-key map of
// 12-byte keys and 64-byte values — lib-map-write's store — at rest. A
// binding is one 96-byte block (16 + 2 + 12 + 64) and the trie ≈ 15 bytes
// a key: ≈ 111 B/key. Boxing key and value in blobs of their own
// (16 + 8 + 12 and 16 + 8 + 64, 48 + 96 bytes) read 164.0. A Set of a new
// key allocates its path copies and one binding, one block fewer than two
// blobs.
func TestMapSpaceBudget(t *testing.T) {
	const (
		keys      = 50_000
		maxPerKey = 115.0 // measured 111.0; two blobs a key read 164.0
	)
	h := benchHeap(t)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := make([]byte, 64)
	base := h.Stats().LiveBytes
	cur := NewMap(h).Addr()
	for i := 0; i < keys; i += benchLoad {
		ed := h.BeginEdit()
		m := MapAt(h, cur).WithEdit(ed)
		for k := i; k < min(i+benchLoad, keys); k++ {
			m, _ = m.Set(key(k), val)
		}
		commit(h, ed, &cur, m.Addr())
	}
	h.Drain()
	st := h.Stats()
	perKey := float64(st.LiveBytes-base) / keys
	fp := trieFootprint(h, cur)
	t.Logf("%.1f live bytes per key; %d trie nodes", perKey, fp.nodes)
	if perKey > maxPerKey {
		t.Errorf("%.1f live bytes per key, budget %.0f", perKey, maxPerKey)
	}
	if fp.blocks != fp.nodes+keys {
		t.Errorf("%d blocks in a map of %d keys and %d trie nodes, want one binding a key", fp.blocks, keys, fp.nodes)
	}

	// One insert FASE into a free slot: the nodes of the new key's path
	// are copied, and one binding block holds the key and its value.
	k := keys
	for ; slotTaken(h, MapAt(h, cur), key(k)); k++ {
	}
	path := len(pathOf(h, MapAt(h, cur), key(k)))
	before := h.Stats().Allocs
	ed := h.BeginEdit()
	m, replaced := MapAt(h, cur).WithEdit(ed).Set(key(k), val)
	commit(h, ed, &cur, m.Addr())
	if got, want := h.Stats().Allocs-before, uint64(path+1); replaced || got != want {
		t.Errorf("an insert along a %d-node path allocated %d blocks (replaced=%v), want %d: the copies and one binding", path, got, replaced, want)
	}
}

// TestSetReinsertKeepsBinding: inserting a member a set already holds
// builds no binding. Without an edit it copies the member's path and
// nothing else — as with a key blob and a Nil value slot a key, before
// heap layout v14 — plus a selective set's record and header, the record
// naming the binding the member has; under an edit that owns the path it
// allocates nothing but that record.
func TestSetReinsertKeepsBinding(t *testing.T) {
	for _, sel := range []bool{false, true} {
		t.Run(fmt.Sprintf("selective=%v", sel), func(t *testing.T) {
			h := newTestHeap(t)
			s := NewSet(h)
			if sel {
				s = NewSetSelective(h)
			}
			for i := 0; i < 2000; i++ {
				s, _ = s.Insert(benchKey(i))
			}
			key := benchKey(7)
			path := pathOf(h, s.m, key)
			b := bindingOf(h, path, key)
			extra := uint64(0)
			if sel {
				extra = 2 // the record and a new header
			}
			before := h.Stats().Allocs
			s2, existed := s.Insert(key)
			if got, want := h.Stats().Allocs-before, uint64(len(path))+extra; !existed || got != want {
				t.Errorf("re-inserting a member along a %d-node path allocated %d blocks (existed=%v), want %d", len(path), got, existed, want)
			}
			if got := bindingOf(h, pathOf(h, s2.m, key), key); got != b {
				t.Errorf("member's binding %#x after re-insert, want %#x kept", uint64(got), uint64(b))
			}
			if sel {
				_, rec, _ := readSelExt(h, s2.Addr(), selRootBase)
				if _, kind, a, _ := readRecord(h, rec); kind != RecMapSet || pmem.Addr(a) != b {
					t.Errorf("record kind %d names %#x, want a set of the kept binding %#x", kind, a, uint64(b))
				}
			}

			ed := h.BeginEdit()
			s3, _ := s2.WithEdit(ed).Insert(benchKey(5000))
			before = h.Stats().Allocs
			if _, existed := s3.Insert(benchKey(5000)); !existed || h.Stats().Allocs-before != extra/2 {
				t.Errorf("re-inserting a member on an edit-owned path allocated %d blocks (existed=%v), want %d", h.Stats().Allocs-before, existed, extra/2)
			}
			ed.Seal()
		})
	}
}

// bindingOf returns the binding of key on the last node of its path.
func bindingOf(h *alloc.Heap, path []pmem.Addr, key []byte) pmem.Addr {
	last := path[len(path)-1]
	if h.Tag(last) == TagMapCollision {
		for _, e := range readCollision(h, nil, nil, last, nil) {
			if k, _ := pairAt(h, nil, e); string(k) == string(key) {
				return e
			}
		}
		return pmem.Nil
	}
	shift := uint(len(path)-1) * mapBits
	var n mapNode
	readMapNode(h, nil, nil, last, nodePrefix(shift), &n)
	bit := uint32(1) << ((hash64(key) >> shift) & mapMask)
	if n.dataMap&bit == 0 {
		return pmem.Nil
	}
	return n.eb[bits.OnesCount32(n.dataMap&(bit-1))]
}

// slotTaken reports whether key's slot on the last node of its path holds
// a binding already, so that an insert would push it down a level.
func slotTaken(h *alloc.Heap, m Map, key []byte) bool {
	path := pathOf(h, m, key)
	last := path[len(path)-1]
	if h.Tag(last) == TagMapCollision {
		return true
	}
	shift := uint(len(path)-1) * mapBits
	var n mapNode
	readMapNode(h, nil, nil, last, nodePrefix(shift), &n)
	return n.dataMap&(uint32(1)<<((hash64(key)>>shift)&mapMask)) != 0
}

// TestVectorUpdateFlushBudget: an Update on a 100,000-element vector
// copies five blocks — the root, three 12-way interior nodes and one
// 8-element leaf — which is 6 flushed lines: each interior node and the
// root (16 + 16 + 8 × 4 bytes, at least the 64-byte class) is a one-line
// block starting on a line, and the 80-byte leaf takes two; and 4 × 64 +
// 80 bytes plus the five checksum words, under one fence. The 28-way
// nodes of layout v17 (16 + 112 bytes in a 128-byte block, 2 lines)
// under a 16-child root in the 96-byte class read 8.0 lines, 464 bytes
// and four blocks; the 32-way nodes of layout v16 (16 + 128 bytes in a
// 192-byte block, 3 lines) 10.0 lines and 484 bytes; layout v15's
// separate 32-byte header over a full 32-slot root 12.0 lines, 600 bytes
// and five blocks; the 32-element leaf of layout v6 (16 + 256 bytes, 5.1
// lines) 15.7 lines and 792 bytes.
func TestVectorUpdateFlushBudget(t *testing.T) {
	const (
		updates    = 2_000
		maxFlushes = 6.2   // measured 6.00, + 3 %
		maxBytes   = 387.0 // measured 376, + 3 %
		nodes      = 5
	)
	f := newSeqFixture(t)
	d, allocs := faseCounters(t, f.h, updates, func(int) { f.vectorUpdate() })
	flushes := float64(d.Flushes) / updates
	bytes := float64(d.BytesWritten) / updates
	t.Logf("%.2f flushes and %.0f PM bytes per Update", flushes, bytes)
	if flushes > maxFlushes {
		t.Errorf("%.2f flushes per Update, budget %.1f", flushes, maxFlushes)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f PM bytes per Update, budget %.0f", bytes, maxBytes)
	}
	if allocs != nodes*updates {
		t.Errorf("%d blocks allocated by %d Updates, want exactly %d each", allocs, updates, nodes)
	}
}

// TestVectorPushFlushBudget pins the price of the root fold for an
// append: a tail push that is the first operation of its FASE copies the
// root where layout v15 copied a 32-byte header, and the root of a
// 100,000-element vector (8 children, 48 bytes) is one line-aligned
// 64-byte block. Over 2,000 pushes — one tail spill in eight, which
// path-copies three one-line nodes into the trie and, unlike v15, copies
// no full 32-slot root node — it reads 3.92 flushes, 192 PM bytes and
// exactly 2.375 blocks per push. The 28-way trie of layout v17 read 5.02
// flushes, 234 bytes and 2.25 blocks: its 16-child root in the 96-byte
// class straddled lines, and its spills copied two two-line nodes. v16
// read 5.26 and 223; v15 4.64, 206 and 2.38.
func TestVectorPushFlushBudget(t *testing.T) {
	const (
		pushes     = 2_000
		maxFlushes = 4.0   // measured 3.92, + 3 %
		maxBytes   = 198.0 // measured 192, + 3 %
		blocks     = 4_750
	)
	f := newSeqFixture(t)
	d, allocs := faseCounters(t, f.h, pushes, func(i int) {
		ed := f.h.BeginEdit()
		v := VectorAt(f.h, f.vec).WithEdit(ed).Push(uint64(i))
		commit(f.h, ed, &f.vec, v.Addr())
	})
	flushes := float64(d.Flushes) / pushes
	bytes := float64(d.BytesWritten) / pushes
	t.Logf("%.2f flushes, %.0f PM bytes and %.2f blocks per Push", flushes, bytes, float64(allocs)/pushes)
	if flushes > maxFlushes {
		t.Errorf("%.2f flushes per Push, budget %.1f", flushes, maxFlushes)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f PM bytes per Push, budget %.0f", bytes, maxBytes)
	}
	if allocs != blocks {
		t.Errorf("%d blocks allocated by %d pushes, want exactly %d", allocs, pushes, blocks)
	}
	if v := VectorAt(f.h, f.vec); v.Len() != benchVecLen+pushes || v.Get(benchVecLen+pushes-1) != pushes-1 {
		t.Errorf("vector holds %d elements after the pushes", v.Len())
	}
}

// TestVectorNodesSpanOneLine: every interior node of a vector is a
// 64-byte-class block (16 header bytes and 12 references) whose header
// starts on a line, so it is exactly one line, and so is the root of a
// vector whose root has at most 8 children — as loaded in bulk under one
// edit per FASE, and as path-copied by Updates and tail spills outside an
// edit. A 13th reference, a root in a sub-line class, or a node carved
// off a line, fails here.
func TestVectorNodesSpanOneLine(t *testing.T) {
	f := newSeqFixture(t)
	for i := 0; i < 200; i++ {
		f.vectorUpdate()
	}
	v := VectorAt(f.h, f.vec)
	oneLine := func(what string, a pmem.Addr) {
		t.Helper()
		if stride := f.h.PayloadSize(a) + alloc.HeaderSize; stride != pmem.LineSize {
			t.Errorf("%s %#x: stride %d, want %d", what, uint64(a), stride, pmem.LineSize)
		}
		if hdr := a - alloc.HeaderSize; hdr%pmem.LineSize != 0 {
			t.Errorf("%s %#x: header %d bytes into a line", what, uint64(a), hdr%pmem.LineSize)
		}
	}
	step := func(next Vector) {
		f.h.Fence()
		f.h.Release(v.Addr())
		v = next
		oneLine("root", v.Addr())
	}
	for i := uint64(0); i < 64; i++ {
		step(v.Push(i))
		step(v.Update(i*1_499, i))
	}
	var r vecRoot
	readRoot(f.h, nil, nil, v.Addr(), &r)
	nodes := 0
	var walk func(a pmem.Addr, height uint32)
	walk = func(a pmem.Addr, height uint32) {
		if height == 0 {
			return
		}
		nodes++
		oneLine("interior node", a)
		for _, c := range readNode(f.h, nil, nil, a) {
			if c != pmem.Nil {
				walk(c, height-1)
			}
		}
	}
	for _, c := range r.kids() {
		walk(c, r.height-1)
	}
	// A trie of height h has rootKids(count, j) nodes of height j − 1.
	want := 0
	for j := uint32(2); j <= r.height; j++ {
		want += rootKids(r.count, j)
	}
	if r.height != 4 || nodes != want {
		t.Errorf("a %d-element trie of height %d has %d interior nodes, want height 4 and %d", r.count, r.height, nodes, want)
	}
}

// TestDesignNodeBlockMatchesLayout reads DESIGN.md §2's node block, one
// row per tag in tag order, and fails when a layout table row has no
// block row or a block row names no table row.
func TestDesignNodeBlockMatchesLayout(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n### Node layouts")
	if !ok {
		t.Fatal("DESIGN.md has no node-layouts section")
	}
	_, sec, _ = strings.Cut(sec, "\n```\n")
	block, _, ok := strings.Cut(sec, "\n```")
	if !ok {
		t.Fatal("DESIGN.md's node-layouts section has no fenced block")
	}
	var design, table []string
	for _, line := range strings.Split(block, "\n") {
		name, _, _ := strings.Cut(line, "  ")
		design = append(design, name)
	}
	for _, r := range layout {
		if r.name != "" {
			table = append(table, r.name)
		}
	}
	for _, n := range table {
		if !slices.Contains(design, n) {
			t.Errorf("layout row %q has no row in DESIGN.md §2's node block", n)
		}
	}
	for _, n := range design {
		if !slices.Contains(table, n) {
			t.Errorf("DESIGN.md §2's node block names %q, which no layout row has", n)
		}
	}
	if !t.Failed() && !slices.Equal(design, table) {
		t.Errorf("DESIGN.md §2's node block lists %q, want tag order %q", design, table)
	}
}
