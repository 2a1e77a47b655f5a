package funcds

import (
	"fmt"
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

func TestNodeLayoutV7Sizes(t *testing.T) {
	h := newTestHeap(t)
	blob := newBlob(h, nil, []byte("k"))
	leaf := newVecLeaf(h, nil, false, []uint64{1})

	entries := make([]mapEntry, mapWidth)
	children := make([]pmem.Addr, mapWidth)
	var slots [vecWidth]pmem.Addr
	for i := range entries {
		entries[i] = mapEntry{blob, blob}
		children[i] = leaf
		slots[i] = leaf
	}

	// payload is the encoded size; stride the size class it lands in
	// (payload + the 16-byte block header, rounded up).
	cases := []struct {
		name            string
		node            pmem.Addr
		payload, stride int
	}{
		{"map node, 32 children", buildMapNode(h, nil, false, 0, 0, 0, ^uint32(0), nil, children), 136, 192},
		{"map node, 2 entries", buildMapNode(h, nil, false, 0, 0, 3, 0, entries[:2], nil), 24, 48},
		{"map node, 1 entry + 1 child", buildMapNode(h, nil, false, 0, 0, 1, 2, entries[:1], children[:1]), 20, 48},
		{"map node, 32 entries", buildMapNode(h, nil, false, 0, 0, ^uint32(0), 0, entries, nil), 264, 384},
		{"collision bucket, 2 entries", buildCollision(h, nil, false, entries[:2]), 24, 48},
		{"vector node", writeNode(h, nil, false, slots), 128, 192},
		{"vector leaf", leaf, 64, 80},
		{"map root, empty", NewMap(h).Addr(), 16, 32},
		{"map root, 32 children", buildMapNode(h, nil, false, rootPrefix, 32, 0, ^uint32(0), nil, children), 144, 192},
		{"vector header", NewVector(h).Addr(), 32, 48},
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
// nodes below it of up to 32 children, plus the value blob (4.8 blocks per
// Set); at 4 bytes a reference that is ≈ 12.3 flushed lines and 645 PM
// bytes per Set here (≈ 13.3 through core on lib-map-write, where 8-byte
// references cost 22.3), under exactly one fence. The trie nodes' 192-byte
// blocks start on a line (alloc's placeAt): carved wherever the run stood,
// the same Sets flushed 13.39 lines. Since heap layout v12 the root
// carries the count, so a Set allocates one block fewer than the 11,605
// the same 2,000 Sets took with a [count][root] header block (14.74
// flushes, 677 bytes).
func TestMapSetFlushBudget(t *testing.T) {
	const (
		maxFlushes  = 12.7 // measured 12.34, + 3 %
		maxBytes    = 665  // measured 645, + 3 %
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
// descent, the node images the copy is built from and one header word per
// block the old version frees are ≈ 18 (≈ 23 with a map header block,
// whose root pointer and the root's tag the descent read first, and which
// the old version freed too); walking the superseded nodes to uncount
// their children, and re-reading each freed block's header for its
// stride, made it ≈ 37 before path copies borrowed (alloc/borrow.go).
func TestMapSetReadBudget(t *testing.T) {
	const maxReads = 30.0
	d, sets, _ := setExistingCounters(t)
	perOp := float64(d.Reads) / float64(sets)
	t.Logf("%.2f PM reads (%.0f bytes) per Set", perOp, float64(d.BytesRead)/float64(sets))
	if perOp > maxReads {
		t.Errorf("%.2f PM reads per Set, budget %.1f", perOp, maxReads)
	}
}

// TestVectorUpdateFlushBudget: an Update on a 100,000-element vector
// copies five blocks — the header, three 32-way interior nodes and one
// 8-element leaf — which is 12 flushed lines: each interior node's
// 192-byte block starts on a line, so its 144 bytes take 3 lines, and the
// header and leaf share lines with their neighbours (12.34 with every
// block at an 8-byte-aligned offset); and 48 + 3 × 144 + 80 bytes plus the
// checksum words, under one fence. The 32-element leaf of layout v6
// (16 + 256 bytes, 5.1 lines) reads 15.7 lines and 792 bytes here.
func TestVectorUpdateFlushBudget(t *testing.T) {
	const (
		updates    = 2_000
		maxFlushes = 12.4 // measured 12.00, + 3 %
		maxBytes   = 640.0
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
