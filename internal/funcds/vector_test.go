package funcds

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

func TestVectorPushGetAcrossBoundaries(t *testing.T) {
	h := newTestHeap(t)
	v := NewVector(h)
	// 2100 elements crosses the 32 (leaf), 1024 (depth-2), boundaries.
	const n = 2100
	for i := uint64(0); i < n; i++ {
		v = v.Push(i * 3)
	}
	if v.Len() != n {
		t.Fatalf("Len = %d, want %d", v.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if got := v.Get(i); got != i*3 {
			t.Fatalf("Get(%d) = %d, want %d", i, got, i*3)
		}
	}
}

func TestVectorUpdate(t *testing.T) {
	h := newTestHeap(t)
	v := NewVector(h)
	for i := uint64(0); i < 1500; i++ {
		v = v.Push(i)
	}
	v2 := v.Update(700, 9999)
	if got := v2.Get(700); got != 9999 {
		t.Fatalf("updated Get(700) = %d, want 9999", got)
	}
	if got := v.Get(700); got != 700 {
		t.Fatalf("original version mutated: Get(700) = %d", got)
	}
	for _, i := range []uint64{0, 699, 701, 1499} {
		if v2.Get(i) != i {
			t.Fatalf("unrelated index %d changed", i)
		}
	}
}

func TestVectorUpdateOutOfRangePanics(t *testing.T) {
	h := newTestHeap(t)
	v := NewVector(h).Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range update should panic")
		}
	}()
	v.Update(1, 0)
}

func TestVectorGetOutOfRangePanics(t *testing.T) {
	h := newTestHeap(t)
	v := NewVector(h)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range get should panic")
		}
	}()
	v.Get(0)
}

func TestVectorStructuralSharingOnUpdate(t *testing.T) {
	h := newTestHeap(t)
	v := NewVector(h)
	for i := uint64(0); i < 50_000; i++ {
		old := v.Addr()
		v = v.Push(i)
		h.Release(old)
		if i%64 == 0 {
			h.Fence()
		}
	}
	h.Fence()
	before := h.Stats().CumBytes
	v2 := v.Update(43_210, 1)
	grew := h.Stats().CumBytes - before
	_ = v2
	// Path copy: ~4 nodes of 264B + header, far below the 100k-element
	// vector (~1 MB). This is the <0.01% shadow overhead claim of §6.5.
	if grew > 4096 {
		t.Fatalf("update allocated %d bytes, want a small path copy", grew)
	}
	live := h.Stats().LiveBytes
	if float64(grew)/float64(live) > 0.005 {
		t.Fatalf("shadow overhead %.4f%% too large", 100*float64(grew)/float64(live))
	}
}

func TestVectorSwapViaTwoUpdates(t *testing.T) {
	// The vec-swap workload composes two updates on successive shadows
	// (Fig. 7b); verify the doubly-updated version is correct.
	h := newTestHeap(t)
	v := NewVector(h)
	for i := uint64(0); i < 5000; i++ {
		v = v.Push(i)
	}
	i1, i2 := uint64(17), uint64(4999)
	a, b := v.Get(i1), v.Get(i2)
	shadow := v.Update(i1, b)
	shadow2 := shadow.Update(i2, a)
	if shadow2.Get(i1) != b || shadow2.Get(i2) != a {
		t.Fatal("swap incorrect")
	}
	if v.Get(i1) != a || v.Get(i2) != b {
		t.Fatal("original mutated by swap")
	}
}

func TestVectorNoFencesAndAllFlushed(t *testing.T) {
	h := newTestHeap(t)
	dev := h.Device().(*pmem.Device)
	before := dev.Stats()
	v := NewVector(h)
	for i := uint64(0); i < 200; i++ {
		v = v.Push(i)
	}
	v = v.Update(100, 1)
	delta := dev.Stats().Sub(before)
	if delta.Fences != 0 {
		t.Fatalf("pure vector ops issued %d fences", delta.Fences)
	}
	if dev.DirtyLines() != 0 {
		t.Fatalf("%d dirty lines left unflushed", dev.DirtyLines())
	}
}

func TestVectorReclamationAfterVersionChain(t *testing.T) {
	h := newTestHeap(t)
	v := NewVector(h)
	for i := uint64(0); i < 300; i++ {
		old := v.Addr()
		v = v.Push(i)
		h.Release(old)
		h.Fence()
	}
	liveWithOne := h.Stats().LiveBytes
	h.Release(v.Addr())
	h.Fence()
	if got := h.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d after releasing final version, want 0 (had %d live)", got, liveWithOne)
	}
}

func TestVectorQuickAgainstModel(t *testing.T) {
	h := newTestHeap(t)
	f := func(pushes []uint16, updates []uint16) bool {
		v := NewVector(h)
		model := make([]uint64, 0, len(pushes))
		for _, p := range pushes {
			v = v.Push(uint64(p))
			model = append(model, uint64(p))
		}
		for _, u := range updates {
			if len(model) == 0 {
				break
			}
			idx := uint64(u) % uint64(len(model))
			v = v.Update(idx, uint64(u)+1_000_000)
			model[idx] = uint64(u) + 1_000_000
		}
		if v.Len() != uint64(len(model)) {
			return false
		}
		for i, want := range model {
			if v.Get(uint64(i)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// vecRun drives one vector against a slice model, one FASE at a time, the
// way one of the three update regimes runs it: pure (every operation a new
// version, its predecessor released behind a fence), edit-bound (the
// operations of a FASE share an edit context, so after the first one the
// header, the tail and the copied spine are written in place) and
// selective (edit-bound, volatile trie plus record chain). An edit-bound
// root is rebuilt only when its shape leaves its block.
type vecRun struct {
	t     *testing.T
	h     *alloc.Heap
	v     Vector
	model []uint64
	edit  bool
}

// fase applies ops to the current version as one FASE and retires the
// version it replaces.
func (r *vecRun) fase(ops ...func(Vector) Vector) {
	r.t.Helper()
	if !r.edit {
		for _, op := range ops {
			base := r.v
			r.v = op(base)
			r.h.Fence()
			if r.v.Addr() != base.Addr() {
				r.h.Release(base.Addr())
			}
		}
		return
	}
	base := r.v.Addr()
	ed := r.h.BeginEdit()
	v := r.v.WithEdit(ed)
	for _, op := range ops {
		// An edit-owned root is rebuilt only when its shape leaves its
		// block: a new level, or a child past the block's room.
		root := v.root()
		owned, room, height := ed.Owns(root), (r.h.PayloadSize(root)-int(rootRef(1)))/refSize, r.h.Device().ReadU32(root+8)
		next := op(v)
		if v.sel && v.Addr() != base && next.Addr() != v.Addr() {
			r.t.Fatalf("len %d: an edit-owned header was copied (%#x -> %#x), not written in place", len(r.model), uint64(v.Addr()), uint64(next.Addr()))
		}
		if nr := next.root(); owned && nr != root {
			var n vecRoot
			readRoot(r.h, ed, nil, nr, &n)
			if n.height == height && n.k <= room {
				r.t.Fatalf("len %d: an edit-owned root was copied (%#x -> %#x) though its %d children fit its room for %d", len(r.model), uint64(root), uint64(nr), n.k, room)
			}
		}
		v = next
	}
	commit(r.h, ed, &base, v.Addr())
	r.v = VectorAt(r.h, base)
}

func (r *vecRun) push(val uint64) func(Vector) Vector {
	r.model = append(r.model, val)
	return func(v Vector) Vector { return v.Push(val) }
}

func (r *vecRun) update(i, val uint64) func(Vector) Vector {
	r.model[i] = val
	return func(v Vector) Vector { return v.Update(i, val) }
}

// check compares every read path with the model; it runs inside a FASE as
// an operation that changes nothing, so the edit-bound regimes read their
// own in-place writes before they are sealed.
func (r *vecRun) check() func(Vector) Vector {
	want := append([]uint64(nil), r.model...)
	return func(v Vector) Vector {
		r.t.Helper()
		if v.Len() != uint64(len(want)) {
			r.t.Fatalf("Len = %d, want %d", v.Len(), len(want))
		}
		if got := v.Elements(); !slices.Equal(got, want) {
			r.t.Fatalf("len %d: Elements differ from the model", len(want))
		}
		for _, i := range boundaryIndices(uint64(len(want))) {
			if got := v.Get(i); got != want[i] {
				r.t.Fatalf("len %d: Get(%d) = %d, want %d", len(want), i, got, want[i])
			}
		}
		return v
	}
}

// TestVecSpanFitsCountWord: every capacity up to maxHeight is exact —
// vecSpan[maxHeight] = 8·12^17 does not wrap a uint64, which a count word
// holds — and maxHeight is the tallest such height, since one level more
// would. A root claiming a height past it is refused as damage.
func TestVecSpanFitsCountWord(t *testing.T) {
	for h := 1; h <= maxHeight; h++ {
		if hi, lo := bits.Mul64(vecSpan[h-1], vecWidth); hi != 0 || lo != vecSpan[h] {
			t.Fatalf("vecSpan[%d] = %d, not %d × vecSpan[%d] = %d without overflow", h, vecSpan[h], vecWidth, h-1, vecSpan[h-1])
		}
	}
	if hi, _ := bits.Mul64(vecSpan[maxHeight], vecWidth); hi == 0 {
		t.Errorf("vecSpan[maxHeight] × %d fits a uint64: maxHeight %d is not the tallest height a count word can express", vecWidth, maxHeight)
	}
	if validHeight(maxHeight+1) || !validHeight(maxHeight) {
		t.Errorf("validHeight(%d) = %v, validHeight(%d) = %v", maxHeight, validHeight(maxHeight), maxHeight+1, validHeight(maxHeight+1))
	}
}

// boundaryIndices are the indices whose path changes shape with the count:
// the ends, the last trie element and the first tail element.
func boundaryIndices(count uint64) []uint64 {
	out := []uint64{0, count - 1}
	if to := tailOffset(count); to > 0 {
		out = append(out, to-1, to)
	}
	return out
}

// TestVectorGeometryBoundaries walks the counts at which the trie changes
// shape, every one computed from the geometry constants: around each
// capacity cap of a trie of one to five levels (8, 96, 1,152, 13,824 and
// 165,888 elements) — the first fill or the tail spilled into the last
// free slot (count cap → cap + 1), then the level grown over the full trie
// (cap + leafWidth → cap + leafWidth + 1) — around two full subtrees under
// a root of height 2, where a spill grafts a singleton path into an empty
// slot, and around 224 and 6,272, the capacities of the 28-way trie of
// layout v17, and 8,192, the 32-way trie's of layouts up to v16, now
// spills into partial subtrees. At each count from cap − 1 to
// cap + leafWidth + 1 it pushes, reads everything back, updates the
// boundary indices and reads everything back again. Each regime ends by
// releasing the last version: what is still allocated after a fence must
// be what a recovery of the same heap finds reachable.
func TestVectorGeometryBoundaries(t *testing.T) {
	if vecSpan[0] != 8 || vecSpan[1] != 96 || vecSpan[2] != 1_152 || vecSpan[3] != 13_824 || vecSpan[4] != 165_888 {
		t.Fatalf("trie capacities %v; want 8, 96, 1,152, 13,824 and 165,888", vecSpan[:5])
	}
	centers := []uint64{vecSpan[0], vecSpan[1], 2 * vecSpan[1], 224, vecSpan[2], 6_272, 8_192, vecSpan[3], vecSpan[4]}

	for _, regime := range []struct {
		name      string
		edit, sel bool
	}{{"pure", false, false}, {"edit", true, false}, {"selective", true, true}} {
		t.Run(regime.name, func(t *testing.T) {
			cfg := pmem.DefaultConfig(64 << 20)
			cfg.TrackDurable = true
			dev := pmem.New(cfg)
			h := allocFormat(dev)
			r := &vecRun{t: t, h: h, edit: regime.edit}
			if regime.sel {
				r.v = NewVectorSelective(h)
			} else {
				r.v = NewVector(h)
			}
			h.Fence()

			for _, center := range centers {
				// Bulk-load up to the window (its first push makes the count
				// center − 1), benchLoad pushes per FASE.
				for uint64(len(r.model)) < center-2 {
					var ops []func(Vector) Vector
					for k := 0; k < benchLoad && uint64(len(r.model)) < center-2; k++ {
						ops = append(ops, r.push(uint64(len(r.model))*3))
					}
					r.fase(ops...)
				}
				// The window, count by count. Edit-bound regimes run it as
				// two FASEs so that the spill and the growth each happen once
				// with a committed spine and once with an edit-owned one.
				var ops []func(Vector) Vector
				for uint64(len(r.model)) < center+leafWidth+1 {
					n := uint64(len(r.model))
					ops = append(ops, r.push(n*3), r.check())
					for _, i := range boundaryIndices(n + 1) {
						ops = append(ops, r.update(i, i*7+n))
					}
					ops = append(ops, r.check())
					if n == center {
						r.fase(ops...)
						ops = nil
					}
				}
				r.fase(ops...)
			}
			r.fase(r.check())

			h.Release(r.v.Addr())
			h.Fence()
			h.Drain()
			st := h.Stats()
			if st.Borrows != 0 || st.Quarantine != 0 {
				t.Errorf("%d borrow records and %d quarantined blocks after the last version was released", st.Borrows, st.Quarantine)
			}
			h2, err := alloc.Open(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
			if err != nil {
				t.Fatal(err)
			}
			RegisterWalkers(h2)
			rs, err := h2.Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rs.LiveBytes != st.LiveBytes {
				t.Errorf("%d bytes still allocated with every version released, a recovery of the same heap finds %d reachable", st.LiveBytes, rs.LiveBytes)
			}
		})
	}
}
