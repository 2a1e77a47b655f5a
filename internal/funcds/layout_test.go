package funcds

import (
	"fmt"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Heap layout v5 pins (DESIGN.md §2). These tests hold the node geometry
// and the flush and read budgets of one Map.Set on the deterministic
// simulator, so a change that widens a node — or walks one it need not —
// fails here by name and not only in the BENCH_baseline.json diff. CI's
// bench job runs them next to the micro-benchmarks.

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

func TestNodeLayoutV5Sizes(t *testing.T) {
	h := newTestHeap(t)
	blob := newBlob(h, nil, []byte("k"))
	leaf := newVecLeaf(h, nil, false, []uint64{1})

	entries := make([]mapEntry, vecWidth)
	children := make([]pmem.Addr, vecWidth)
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
		{"map node, 32 children", buildMapNode(h, nil, false, 0, ^uint32(0), nil, children), 136, 192},
		{"map node, 2 entries", buildMapNode(h, nil, false, 3, 0, entries[:2], nil), 24, 48},
		{"map node, 1 entry + 1 child", buildMapNode(h, nil, false, 1, 2, entries[:1], children[:1]), 20, 48},
		{"map node, 32 entries", buildMapNode(h, nil, false, ^uint32(0), 0, entries, nil), 264, 384},
		{"collision bucket, 2 entries", buildCollision(h, nil, false, entries[:2]), 24, 48},
		{"vector node", writeNode(h, nil, false, slots), 128, 192},
		{"vector leaf", leaf, 256, 384},
		{"map header", NewMap(h).Addr(), 16, 32},
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

	// What was encoded decodes to the same references.
	var n mapNode
	readMapNode(h, nil, nil, cases[2].node, &n)
	if n.dataMap != 1 || n.nodeMap != 2 || n.eb[0] != entries[0] || n.cb[0] != leaf {
		t.Errorf("mixed map node decodes to %+v / %#x", n.eb[0], uint64(n.cb[0]))
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

// setExistingCounters is the lib-map-write shape in miniature: a
// 50,000-key map of 12-byte keys and 64-byte values, then 2,000 FASEs of
// one Set of an existing key each, committed as core commits them. It
// returns the device counters of the 2,000 FASEs.
func setExistingCounters(t *testing.T) (d pmem.Stats, sets int) {
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

	dev := h.Device()
	base, settled := dev.Stats(), h.Stats().Settled
	at := 0
	for i := 0; i < sets; i++ {
		at = (at + 7919) % keys
		val[0] = byte(i)
		ed := h.BeginEdit()
		m, replaced := MapAt(h, cur).WithEdit(ed).Set(key(at), val)
		if !replaced {
			t.Fatalf("key %d was not present", at)
		}
		commit(h, ed, &cur, m.Addr())
	}
	d = dev.Stats().Sub(base)
	if d.Fences != uint64(sets) {
		t.Errorf("%d fences for %d FASEs, want exactly one each", d.Fences, sets)
	}
	// Versions die in publication order: every record dissolves when its
	// source does, and no copy ever has to count what it shares.
	if st := h.Stats(); st.Borrows != 0 || st.Settled != settled {
		t.Errorf("%d borrow records left and %d copies settled by %d single-Set FASEs, want none", st.Borrows, st.Settled-settled, sets)
	}
	return d, sets
}

// TestMapSetFlushBudget: the path copy is three interior nodes of up to
// 32 children; at 4 bytes a reference that is ≈ 14.8 flushed lines per Set
// here (15.7 through core on lib-map-write, where 8-byte references cost
// 22.3), under exactly one fence.
func TestMapSetFlushBudget(t *testing.T) {
	const maxFlushes = 17.0
	d, sets := setExistingCounters(t)
	perOp := float64(d.Flushes) / float64(sets)
	t.Logf("%.2f flushes and %.0f PM bytes per Set", perOp, float64(d.BytesWritten)/float64(sets))
	if perOp > maxFlushes {
		t.Errorf("%.2f flushes per Set, budget %.1f", perOp, maxFlushes)
	}
}

// TestMapSetReadBudget: PM read calls per Set on the same run. The
// descent, the node images the copy is built from and one header word per
// block the old version frees are ≈ 23; walking the superseded nodes to
// uncount their children, and re-reading each freed block's header for
// its stride, made it ≈ 37 before path copies borrowed (alloc/borrow.go).
func TestMapSetReadBudget(t *testing.T) {
	const maxReads = 30.0
	d, sets := setExistingCounters(t)
	perOp := float64(d.Reads) / float64(sets)
	t.Logf("%.2f PM reads (%.0f bytes) per Set", perOp, float64(d.BytesRead)/float64(sets))
	if perOp > maxReads {
		t.Errorf("%.2f PM reads per Set, budget %.1f", perOp, maxReads)
	}
}
