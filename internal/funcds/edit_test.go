package funcds

import (
	"fmt"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Property tests for the edit-context (transient) path: an operation
// sequence applied through an edit must produce a version whose durable
// contents are identical to the same sequence applied one shadow per
// operation. "Identical" is checked element-for-element (the two paths
// allocate different node addresses — the edit path writes far fewer
// nodes — so raw images legitimately differ; the observable structure
// contents may not).

type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func newEditHeap(t *testing.T) *alloc.Heap {
	t.Helper()
	dev := pmem.New(pmem.DefaultConfig(64 << 20))
	h := alloc.Format(dev)
	RegisterWalkers(h)
	return h
}

func TestVectorEditMatchesPerOp(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		for _, ops := range []int{5, 33, 64, 200} {
			h := newEditHeap(t)
			plain := NewVector(h)
			edited := NewVector(h)

			r := &splitmix{s: seed}
			type op struct {
				push bool
				idx  uint64
				val  uint64
			}
			var script []op
			n := uint64(0)
			for i := 0; i < ops; i++ {
				if n == 0 || r.next()%3 != 0 {
					script = append(script, op{push: true, val: r.next()})
					n++
				} else {
					script = append(script, op{idx: r.next() % n, val: r.next()})
				}
			}

			for _, o := range script {
				if o.push {
					plain = plain.Push(o.val)
				} else {
					plain = plain.Update(o.idx, o.val)
				}
			}
			ed := h.BeginEdit()
			ev := edited.WithEdit(ed)
			for _, o := range script {
				if o.push {
					ev = ev.Push(o.val)
				} else {
					ev = ev.Update(o.idx, o.val)
				}
			}
			ed.Seal()

			want, got := plain.Elements(), ev.Elements()
			if len(want) != len(got) {
				t.Fatalf("seed=%d ops=%d: len %d vs %d", seed, ops, len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("seed=%d ops=%d: element %d: %#x vs %#x", seed, ops, i, want[i], got[i])
				}
			}
		}
	}
}

// TestVectorTailBoundaries pins the tail-buffer invariants at every fill
// boundary: counts that are 0/±1 around multiples of 32 and a deep trie.
func TestVectorTailBoundaries(t *testing.T) {
	h := newEditHeap(t)
	v := NewVector(h)
	const n = 1100 // crosses 32, 1024 (root grow), plus slack
	for i := uint64(0); i < n; i++ {
		v = v.Push(i)
		if v.Len() != i+1 {
			t.Fatalf("len after push %d = %d", i, v.Len())
		}
		if got := v.Get(i); got != i {
			t.Fatalf("Get(%d) right after push = %d", i, got)
		}
		if i%97 == 0 && i > 0 {
			if got := v.Get(0); got != 0 {
				t.Fatalf("Get(0) at len %d = %d", i+1, got)
			}
		}
	}
	for _, i := range []uint64{0, 31, 32, 33, 63, 64, 1023, 1024, 1025, n - 1} {
		if got := v.Get(i); got != i {
			t.Errorf("Get(%d) = %d", i, got)
		}
	}
	// Updates at boundaries, both regimes.
	for _, i := range []uint64{0, 31, 32, 1023, 1024, n - 1} {
		v = v.Update(i, i*10)
		if got := v.Get(i); got != i*10 {
			t.Errorf("after Update(%d): Get = %d, want %d", i, got, i*10)
		}
	}
}

func TestMapEditMatchesPerOp(t *testing.T) {
	for _, seed := range []uint64{3, 99} {
		h := newEditHeap(t)
		plain := NewMap(h)
		edited := NewMap(h)
		ed := h.BeginEdit()
		ev := edited.WithEdit(ed)

		r := &splitmix{s: seed}
		for i := 0; i < 300; i++ {
			k := []byte(fmt.Sprintf("k%03d", r.next()%120))
			switch r.next() % 3 {
			case 0, 1:
				val := []byte(fmt.Sprintf("v%016x", r.next()))
				var rep1, rep2 bool
				plain, rep1 = plain.Set(k, val)
				ev, rep2 = ev.Set(k, val)
				if rep1 != rep2 {
					t.Fatalf("seed=%d op %d: replaced %v vs %v", seed, i, rep1, rep2)
				}
			case 2:
				var rm1, rm2 bool
				plain, rm1 = plain.Delete(k)
				ev, rm2 = ev.Delete(k)
				if rm1 != rm2 {
					t.Fatalf("seed=%d op %d: removed %v vs %v", seed, i, rm1, rm2)
				}
			}
		}
		ed.Seal()

		if plain.Len() != ev.Len() {
			t.Fatalf("seed=%d: len %d vs %d", seed, plain.Len(), ev.Len())
		}
		plain.Range(func(k, val []byte) bool {
			got, ok := ev.Get(k)
			if !ok {
				t.Fatalf("seed=%d: key %q missing from edit map", seed, k)
			}
			if string(got) != string(val) {
				t.Fatalf("seed=%d: key %q: %q vs %q", seed, k, val, got)
			}
			return true
		})
	}
}

func TestStackQueueEditMatchesPerOp(t *testing.T) {
	h := newEditHeap(t)
	ps, pq := NewStack(h), NewQueue(h)
	ed := h.BeginEdit()
	es, eq := NewStack(h).WithEdit(ed), NewQueue(h).WithEdit(ed)

	r := &splitmix{s: 11}
	for i := 0; i < 400; i++ {
		v := r.next()
		if r.next()%3 != 0 {
			ps, es = ps.Push(v), es.Push(v)
			pq, eq = pq.Push(v), eq.Push(v)
		} else {
			var a, b uint64
			var oka, okb bool
			ps, a, oka = ps.Pop()
			es, b, okb = es.Pop()
			if oka != okb || a != b {
				t.Fatalf("stack pop %d: (%v %v) vs (%v %v)", i, a, oka, b, okb)
			}
			pq, a, oka = pq.Pop()
			eq, b, okb = eq.Pop()
			if oka != okb || a != b {
				t.Fatalf("queue pop %d: (%v %v) vs (%v %v)", i, a, oka, b, okb)
			}
		}
	}
	ed.Seal()

	se, see := ps.Elements(), es.Elements()
	if fmt.Sprint(se) != fmt.Sprint(see) {
		t.Errorf("stack contents differ:\n%v\n%v", se, see)
	}
	qe, qee := pq.Elements(), eq.Elements()
	if fmt.Sprint(qe) != fmt.Sprint(qee) {
		t.Errorf("queue contents differ:\n%v\n%v", qe, qee)
	}
}

// TestEditElidesCopiesAndFlushes pins the mechanism itself: a 64-op edit
// on one vector must allocate and flush far less than 64 per-op FASEs.
func TestEditElidesCopiesAndFlushes(t *testing.T) {
	run := func(batch bool) (allocs, flushes uint64) {
		dev := pmem.New(pmem.DefaultConfig(64 << 20))
		h := alloc.Format(dev)
		RegisterWalkers(h)
		v := NewVector(h)
		for i := uint64(0); i < 64; i++ { // preload outside the measurement
			v = v.Push(i)
		}
		a0, f0 := h.Stats().Allocs, dev.Stats().Flushes
		if batch {
			ed := h.BeginEdit()
			ev := v.WithEdit(ed)
			for i := uint64(0); i < 64; i++ {
				ev = ev.Push(1000 + i)
			}
			ed.Seal()
		} else {
			for i := uint64(0); i < 64; i++ {
				ed := h.BeginEdit()
				v = v.WithEdit(ed).Push(1000 + i)
				ed.Seal()
			}
		}
		return h.Stats().Allocs - a0, dev.Stats().Flushes - f0
	}
	perOpAllocs, perOpFlushes := run(false)
	editAllocs, editFlushes := run(true)
	if editAllocs*2 > perOpAllocs {
		t.Errorf("edit allocs %d not >= 2x better than per-op %d", editAllocs, perOpAllocs)
	}
	if editFlushes*2 > perOpFlushes {
		t.Errorf("edit flushes %d not >= 2x better than per-op %d", editFlushes, perOpFlushes)
	}
}

// TestEditRefcountsSurviveReclaim stresses the in-place release paths:
// superseded versions are released after each edit, and reclamation must
// leave exactly the live version's blocks.
func TestEditRefcountsSurviveReclaim(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(64 << 20))
	h := alloc.Format(dev)
	RegisterWalkers(h)

	m := NewMap(h)
	r := &splitmix{s: 5}
	for round := 0; round < 30; round++ {
		ed := h.BeginEdit()
		next := m.WithEdit(ed)
		for i := 0; i < 20; i++ {
			k := []byte(fmt.Sprintf("k%02d", r.next()%40))
			if r.next()%4 == 0 {
				next, _ = next.Delete(k)
			} else {
				next, _ = next.Set(k, []byte(fmt.Sprintf("v%d", round)))
			}
		}
		ed.Seal()
		dev.Sfence()
		if next.Addr() != m.Addr() {
			h.Release(m.Addr())
			m = MapAt(h, next.Addr())
		}
		h.Fence()
	}
	// The map must still be fully readable after all that reclamation.
	n := uint64(0)
	m.Range(func(k, v []byte) bool { n++; return true })
	if n != m.Len() {
		t.Errorf("Range saw %d entries, Len says %d", n, m.Len())
	}
}

// TestMapEditReleasesRebuiltRoot: a map's version is its root node (heap
// layout v12), so an edit-bound update that must rebuild an edit-owned
// root — a new entry at the root changes its shape — returns a new
// version and releases the one it superseded itself: the edit's running
// version was its only reference. An update that fits in place keeps the
// version's address, and a committed root is never released.
func TestMapEditReleasesRebuiltRoot(t *testing.T) {
	h := newEditHeap(t)
	base := NewMap(h)
	ed := h.BeginEdit()
	m1, _ := base.WithEdit(ed).Set([]byte("a"), []byte("1"))
	if m1.Addr() == base.Addr() || h.RefCount(base.Addr()) != 1 {
		t.Fatalf("first Set: version %#x from %#x, committed root count %d; want a copy and the base untouched",
			uint64(m1.Addr()), uint64(base.Addr()), h.RefCount(base.Addr()))
	}
	m2, _ := m1.Set([]byte("b"), []byte("2")) // a second root entry: new shape
	if m2.Addr() == m1.Addr() {
		t.Fatal("a new root entry left the root's shape unchanged")
	}
	if h.RefCount(m1.Addr()) != 0 {
		t.Errorf("superseded owned root %#x still has count %d", uint64(m1.Addr()), h.RefCount(m1.Addr()))
	}
	m3, _ := m2.Set([]byte("b"), []byte("3")) // same shape: in place
	if m3.Addr() != m2.Addr() || m3.Len() != 2 {
		t.Errorf("in-place replace moved the version (%#x -> %#x) or its count (%d)", uint64(m2.Addr()), uint64(m3.Addr()), m3.Len())
	}
	ed.Seal()
	h.Fence()
	h.Release(base.Addr())
	h.Drain()
	if got, ok := m3.Get([]byte("b")); !ok || string(got) != "3" || !m3.Contains([]byte("a")) {
		t.Errorf("final version reads b=%q,%v", got, ok)
	}
	if h.RefCount(base.Addr()) != 0 || h.Stats().Borrows != 0 {
		t.Errorf("after the commit: base root count %d, %d borrow records; want both gone", h.RefCount(base.Addr()), h.Stats().Borrows)
	}
}
