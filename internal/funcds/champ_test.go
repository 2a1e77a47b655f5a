package funcds

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

func key64(i uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, i)
	return b
}

func val32(i uint64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b, i)
	return b
}

func TestMapSetGet(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	const n = 3000
	for i := uint64(0); i < n; i++ {
		var replaced bool
		m, replaced = m.Set(key64(i), val32(i))
		if replaced {
			t.Fatalf("fresh key %d reported replaced", i)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		got, ok := m.Get(key64(i))
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("key %d has wrong value", i)
		}
	}
	if _, ok := m.Get(key64(n + 5)); ok {
		t.Fatal("absent key found")
	}
}

func TestMapReplaceValue(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	m, _ = m.Set([]byte("k"), []byte("v1"))
	m2, replaced := m.Set([]byte("k"), []byte("v2"))
	if !replaced {
		t.Fatal("replace not reported")
	}
	if m2.Len() != 1 {
		t.Fatalf("Len = %d after replace, want 1", m2.Len())
	}
	got, _ := m2.Get([]byte("k"))
	if string(got) != "v2" {
		t.Fatalf("value = %q, want v2", got)
	}
	old, _ := m.Get([]byte("k"))
	if string(old) != "v1" {
		t.Fatalf("old version value = %q, want v1", old)
	}
}

func TestMapDelete(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	for i := uint64(0); i < 500; i++ {
		m, _ = m.Set(key64(i), val32(i))
	}
	for i := uint64(0); i < 500; i += 2 {
		var removed bool
		m, removed = m.Delete(key64(i))
		if !removed {
			t.Fatalf("key %d not removed", i)
		}
	}
	if m.Len() != 250 {
		t.Fatalf("Len = %d, want 250", m.Len())
	}
	for i := uint64(0); i < 500; i++ {
		_, ok := m.Get(key64(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %d presence = %v, want %v", i, ok, want)
		}
	}
	if _, removed := m.Delete(key64(1000)); removed {
		t.Fatal("removing absent key reported removed")
	}
}

func TestMapRange(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	want := map[string]string{}
	for i := uint64(0); i < 200; i++ {
		k := fmt.Sprintf("key-%d", i)
		v := fmt.Sprintf("val-%d", i)
		m, _ = m.Set([]byte(k), []byte(v))
		want[k] = v
	}
	got := map[string]string{}
	m.Range(func(k, v []byte) bool {
		got[string(k)] = string(v)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range[%q] = %q, want %q", k, got[k], v)
		}
	}
	// Early termination.
	count := 0
	m.Range(func(_, _ []byte) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early-terminated Range visited %d, want 10", count)
	}
}

func TestMapOldVersionsIndependent(t *testing.T) {
	h := newTestHeap(t)
	versions := []Map{NewMap(h)}
	for i := uint64(1); i <= 50; i++ {
		next, _ := versions[len(versions)-1].Set(key64(i), val32(i))
		versions = append(versions, next)
	}
	for vi, m := range versions {
		if m.Len() != uint64(vi) {
			t.Fatalf("version %d has Len %d", vi, m.Len())
		}
		for i := uint64(1); i <= 50; i++ {
			_, ok := m.Get(key64(i))
			if want := i <= uint64(vi); ok != want {
				t.Fatalf("version %d key %d presence %v, want %v", vi, i, ok, want)
			}
		}
	}
}

func TestMapStructuralSharingSpaceOverhead(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	for i := uint64(0); i < 50_000; i++ {
		old := m.Addr()
		m, _ = m.Set(key64(i), val32(i))
		// Discard old versions as the Basic interface would,
		// draining the quarantine every few operations.
		h.Release(old)
		if i%64 == 0 {
			h.Fence()
		}
	}
	h.Fence()
	live := h.Stats().LiveBytes
	before := h.Stats().CumBytes
	m2, _ := m.Set(key64(999_999), val32(1))
	grew := h.Stats().CumBytes - before
	_ = m2
	// §6.5: each update needs ~0.00002–0.00004× of the structure.
	ratio := float64(grew) / float64(live)
	if ratio > 0.001 {
		t.Fatalf("shadow overhead ratio %.6f too large (grew %d of %d live)", ratio, grew, live)
	}
}

func TestMapReclamationReturnsToBaseline(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	for i := uint64(0); i < 2000; i++ {
		old := m.Addr()
		m, _ = m.Set(key64(i), val32(i))
		h.Release(old)
		h.Fence()
	}
	// Delete everything, then release the final version: nothing live.
	for i := uint64(0); i < 2000; i++ {
		old := m.Addr()
		var removed bool
		m, removed = m.Delete(key64(i))
		if !removed {
			t.Fatalf("key %d missing during teardown", i)
		}
		h.Release(old)
		h.Fence()
	}
	h.Release(m.Addr())
	h.Fence()
	if got := h.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d after releasing everything, want 0", got)
	}
}

func TestMapNoFencesAllFlushed(t *testing.T) {
	h := newTestHeap(t)
	dev := h.Device().(*pmem.Device)
	before := dev.Stats()
	m := NewMap(h)
	for i := uint64(0); i < 300; i++ {
		m, _ = m.Set(key64(i), val32(i))
	}
	delta := dev.Stats().Sub(before)
	if delta.Fences != 0 {
		t.Fatalf("pure map ops issued %d fences", delta.Fences)
	}
	if dev.DirtyLines() != 0 {
		t.Fatalf("%d dirty lines left unflushed", dev.DirtyLines())
	}
}

func TestMapCollisionBuckets(t *testing.T) {
	// Drive the collision machinery directly: merge two distinct keys
	// whose hashes agree on all trie levels (shift >= collisionShift).
	h := newTestHeap(t)
	m := NewMap(h)
	p1 := newPair(h, nil, []byte("alpha"), []byte("1"))
	p2 := newPair(h, nil, []byte("beta"), []byte("2"))
	col := m.mergeTwo(collisionShift, p1, 0x1234, p2, 0x1234)
	if h.Tag(col) != TagMapCollision {
		t.Fatalf("mergeTwo at max depth built tag %d, want collision", h.Tag(col))
	}
	// Insert a third colliding key through insertRec.
	p3 := newPair(h, nil, []byte("gamma"), []byte("3"))
	col2, _, replaced := m.insertRec(col, collisionShift, 0x1234, []byte("gamma"), nil, p3)
	if replaced {
		t.Fatal("new key reported replaced")
	}
	entries := readCollision(h, nil, nil, col2, nil)
	if len(entries) != 3 || entries[2] != p3 {
		t.Fatalf("collision bucket holds %#x, want 3 bindings ending in %#x", entries, uint64(p3))
	}
	// Replace within the bucket: the new binding takes the old one's slot.
	p4 := newPair(h, nil, []byte("beta"), []byte("4"))
	col3, _, replaced := m.insertRec(col2, collisionShift, 0x1234, []byte("beta"), nil, p4)
	if !replaced {
		t.Fatal("existing key not reported replaced")
	}
	if got := readCollision(h, nil, nil, col3, nil); got[1] != p4 {
		t.Fatalf("replace left slot 1 at %#x, want the new binding %#x", uint64(got[1]), uint64(p4))
	}
	if k, v := pairAt(h, nil, p4); string(k) != "beta" || string(v) != "4" {
		t.Fatalf("binding reads %q=%q, want beta=4", k, v)
	}
	// Delete from the bucket.
	col4, lone, gone := m.deleteRec(col3, collisionShift, 0x1234, []byte("alpha"))
	if gone != p1 || lone || col4 == pmem.Nil {
		t.Fatalf("delete from bucket: removed=%#x lone=%v node=%#x", uint64(gone), lone, uint64(col4))
	}
	if got := len(readCollision(h, nil, nil, col4, nil)); got != 2 {
		t.Fatalf("bucket has %d entries after delete, want 2", got)
	}
	// A bucket left with one binding hands it to its parent (canonical
	// shape): no bucket is built.
	res, lone, gone := m.deleteRec(col4, collisionShift, 0x1234, []byte("gamma"))
	if gone != p3 || !lone || res != p4 {
		t.Fatalf("delete to one binding: res=%#x lone=%v removed=%#x, want %#x lone", uint64(res), lone, uint64(gone), uint64(p4))
	}
}

func TestMapMergeTwoDivergingHashes(t *testing.T) {
	h := newTestHeap(t)
	m := NewMap(h)
	p1 := newPair(h, nil, []byte("a"), nil)
	p2 := newPair(h, nil, []byte("b"), nil)
	// Hashes differ only at the second level (bits 5-9).
	h1 := uint64(0b00001_00001)
	h2 := uint64(0b00010_00001)
	sub := m.mergeTwo(mapBits, p1, h1, p2, h2)
	if h.Tag(sub) != TagMapNode {
		t.Fatalf("mergeTwo built tag %d, want map node", h.Tag(sub))
	}
	var n mapNode
	readMapNode(h, nil, nil, sub, 0, &n)
	if n.nodeMap != 0 || n.dataMap != 0b110 {
		t.Fatalf("merged node dataMap=%b nodeMap=%b", n.dataMap, n.nodeMap)
	}
	if n.eb[0] != p1 {
		t.Fatal("entries not index-ordered")
	}
}

func TestSetInsertContainsDelete(t *testing.T) {
	h := newTestHeap(t)
	s := NewSet(h)
	for i := uint64(0); i < 1000; i++ {
		var existed bool
		s, existed = s.Insert(key64(i))
		if existed {
			t.Fatalf("fresh key %d reported existing", i)
		}
	}
	if s.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", s.Len())
	}
	s2, existed := s.Insert(key64(5))
	if !existed || s2.Len() != 1000 {
		t.Fatal("duplicate insert mishandled")
	}
	for i := uint64(0); i < 1000; i++ {
		if !s.Contains(key64(i)) {
			t.Fatalf("member %d missing", i)
		}
	}
	if s.Contains(key64(2000)) {
		t.Fatal("non-member found")
	}
	s3, removed := s.Delete(key64(7))
	if !removed || s3.Contains(key64(7)) {
		t.Fatal("delete failed")
	}
	count := 0
	s3.Range(func(_ []byte) bool { count++; return true })
	if count != 999 {
		t.Fatalf("Range visited %d members, want 999", count)
	}
}

func TestMapQuickAgainstModel(t *testing.T) {
	h := newTestHeap(t)
	type op struct {
		Key uint8
		Val uint16
		Del bool
	}
	f := func(ops []op) bool {
		m := NewMap(h)
		model := map[uint8]uint16{}
		for _, o := range ops {
			k := key64(uint64(o.Key))
			if o.Del {
				var removed bool
				m, removed = m.Delete(k)
				_, had := model[o.Key]
				if removed != had {
					return false
				}
				delete(model, o.Key)
			} else {
				v := make([]byte, 2)
				binary.LittleEndian.PutUint16(v, o.Val)
				var replaced bool
				m, replaced = m.Set(k, v)
				_, had := model[o.Key]
				if replaced != had {
					return false
				}
				model[o.Key] = o.Val
			}
		}
		if m.Len() != uint64(len(model)) {
			return false
		}
		for k, v := range model {
			got, ok := m.Get(key64(uint64(k)))
			if !ok || binary.LittleEndian.Uint16(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMapRecoveryRoundTrip(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := allocFormat(dev)
	m := NewMap(h)
	for i := uint64(0); i < 1500; i++ {
		m, _ = m.Set(key64(i), val32(i))
	}
	slot, err := h.RootSlot("map")
	if err != nil {
		t.Fatal(err)
	}
	dev.Sfence()
	h.SetRoot(slot, m.Addr())
	dev.Sfence()

	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	h2 := allocOpen(t, dev2)
	RegisterWalkers(h2)
	rs, err := h2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Roots != 1 {
		t.Fatalf("Roots = %d, want 1", rs.Roots)
	}
	slot2, _ := h2.RootSlot("map")
	m2 := MapAt(h2, h2.Root(slot2))
	if m2.Len() != 1500 {
		t.Fatalf("recovered Len = %d, want 1500", m2.Len())
	}
	for i := uint64(0); i < 1500; i += 97 {
		got, ok := m2.Get(key64(i))
		if !ok || binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("recovered key %d wrong (ok=%v)", i, ok)
		}
	}
}

// footprint is what a walk of one map version finds: its trie nodes, its
// blocks (bindings included), the bytes their blocks span, headers
// included, and the bytes their contents encode; lone counts the nodes
// below the root holding one binding and nothing else, of which a
// canonical trie has none.
type footprint struct{ nodes, blocks, spanned, encoded, lone int }

// trieFootprint walks the map version at v, a root node or a selective
// header naming one. Bindings are sealed, so their checksum words give
// their encoded length; a node's comes from its bitmaps, since a
// selective map's nodes carry no checksum until a fold seals them.
func trieFootprint(h *alloc.Heap, v pmem.Addr) footprint {
	var f footprint
	block := func(a pmem.Addr, encoded int) {
		f.blocks++
		f.spanned += h.PayloadSize(a) + alloc.HeaderSize
		f.encoded += encoded
	}
	binding := func(a pmem.Addr) {
		n, _, _ := h.Checksum(a)
		block(a, n)
	}
	var walk func(a, pre pmem.Addr)
	walk = func(a, pre pmem.Addr) {
		f.nodes++
		if h.Tag(a) == TagMapCollision {
			es := readCollision(h, nil, nil, a, nil)
			block(a, mapNodeSize(len(es), 0))
			for _, e := range es {
				binding(e)
			}
			return
		}
		var n mapNode
		readMapNode(h, nil, nil, a, pre, &n)
		block(a, int(pre)+mapNodeSize(len(n.entries()), len(n.children())))
		if n.lone() {
			f.lone++
		}
		for _, e := range n.entries() {
			binding(e)
		}
		for _, c := range n.children() {
			walk(c, 0)
		}
	}
	walk(MapAt(h, v).root(), rootPrefix)
	return f
}

// TestMapDeleteCanonical: after any mix of inserts and deletes a map is
// the trie its surviving keys build fresh — the same nodes, blocks and
// encoded bytes — because a delete that leaves a node below the root with
// one binding and nothing else hands the binding to the parent (ROADMAP
// 9c). Plain and selective, edit-bound FASEs of 24 operations over a pool
// of 400 keys. On the plain heaps the trie is all that is live: LiveBytes
// is the bytes its blocks span, on the heap that deleted and on the one
// built fresh alike. (The two can still differ by a few bytes: a seal
// widens the last block of a run by a tail too small to carry a header.)
func TestMapDeleteCanonical(t *testing.T) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	for _, sel := range []bool{false, true} {
		t.Run(fmt.Sprintf("selective=%v", sel), func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				h := newTestHeap(t)
				base := h.Stats().LiveBytes
				m := NewMap(h)
				if sel {
					m = NewMapSelective(h)
				}
				cur := m.Addr()
				live := map[int][]byte{}
				for f := 0; f < 80; f++ {
					ed := h.BeginEdit()
					m := MapAt(h, cur).WithEdit(ed)
					for op := 0; op < 24; op++ {
						k := rng.Intn(400)
						if rng.Intn(5) < 2 {
							m, _ = m.Delete(key(k))
							delete(live, k)
							continue
						}
						v := []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
						m, _ = m.Set(key(k), v)
						live[k] = v
					}
					commit(h, ed, &cur, m.Addr())
				}

				h2 := newTestHeap(t)
				base2 := h2.Stats().LiveBytes
				fresh := NewMap(h2).Addr()
				ed := h2.BeginEdit()
				f := MapAt(h2, fresh).WithEdit(ed)
				for k, v := range live {
					f, _ = f.Set(key(k), v)
				}
				commit(h2, ed, &fresh, f.Addr())

				got, want := trieFootprint(h, cur), trieFootprint(h2, fresh)
				if got.nodes != want.nodes || got.blocks != want.blocks || got.encoded != want.encoded || got.lone != 0 {
					t.Errorf("seed %d: %d keys: %+v, built fresh %+v", seed, len(live), got, want)
				}
				if n := MapAt(h, cur).Len(); n != uint64(len(live)) {
					t.Errorf("seed %d: Len %d, want %d", seed, n, len(live))
				}
				if !sel {
					h.Drain()
					h2.Drain()
					if lb, lb2 := h.Stats().LiveBytes-base, h2.Stats().LiveBytes-base2; lb != uint64(got.spanned) || lb2 != uint64(want.spanned) {
						t.Errorf("seed %d: %d live bytes for a trie spanning %d; built fresh %d for %d", seed, lb, got.spanned, lb2, want.spanned)
					}
				}
			}
		})
	}
}
