package funcds

import (
	"testing"
	"testing/quick"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

func newTestHeap(t testing.TB) *alloc.Heap {
	t.Helper()
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	return allocFormat(pmem.New(cfg))
}

func allocFormat(dev *pmem.Device) *alloc.Heap {
	h := alloc.Format(dev)
	RegisterWalkers(h)
	return h
}

func allocOpen(t *testing.T, dev *pmem.Device) *alloc.Heap {
	t.Helper()
	h, err := alloc.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestStackPushPopOrder(t *testing.T) {
	h := newTestHeap(t)
	s := NewStack(h)
	for i := uint64(1); i <= 5; i++ {
		s = s.Push(i)
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	for want := uint64(5); want >= 1; want-- {
		var v uint64
		var ok bool
		s, v, ok = s.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, want)
		}
	}
	if _, _, ok := s.Pop(); ok {
		t.Fatal("Pop of empty stack must report not-ok")
	}
}

func TestStackPureOldVersionUnchanged(t *testing.T) {
	h := newTestHeap(t)
	s0 := NewStack(h)
	s1 := s0.Push(10)
	s2 := s1.Push(20)
	s3, v, _ := s2.Pop()
	if v != 20 {
		t.Fatalf("popped %d, want 20", v)
	}
	if s0.Len() != 0 || s1.Len() != 1 || s2.Len() != 2 || s3.Len() != 1 {
		t.Fatal("older versions mutated by later operations")
	}
	if got := s1.Elements(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("s1 = %v, want [10]", got)
	}
	if got := s2.Elements(); len(got) != 2 || got[0] != 20 || got[1] != 10 {
		t.Fatalf("s2 = %v, want [20 10]", got)
	}
}

func TestStackStructuralSharing(t *testing.T) {
	h := newTestHeap(t)
	s := NewStack(h)
	for i := uint64(0); i < 100; i++ {
		s = s.Push(i)
	}
	before := h.Stats().CumBytes
	s2 := s.Push(100)
	grew := h.Stats().CumBytes - before
	// One node + one header, not a copy of the 100-node spine.
	if grew > 128 {
		t.Fatalf("push allocated %d bytes; structural sharing broken", grew)
	}
	_ = s2
}

func TestStackReclamationReturnsToBaseline(t *testing.T) {
	h := newTestHeap(t)
	s := NewStack(h)
	versions := []pmem.Addr{}
	for i := uint64(0); i < 50; i++ {
		old := s.Addr()
		s = s.Push(i)
		versions = append(versions, old)
	}
	for s.Len() > 0 {
		old := s.Addr()
		s, _, _ = s.Pop()
		versions = append(versions, old)
	}
	for _, a := range versions {
		h.Release(a)
	}
	h.Release(s.Addr())
	h.Fence()
	if got := h.Stats().LiveBytes; got != 0 {
		t.Fatalf("LiveBytes = %d after releasing all versions, want 0", got)
	}
}

func TestStackNoFencesDuringUpdates(t *testing.T) {
	h := newTestHeap(t)
	dev := h.Device().(*pmem.Device)
	before := dev.Stats()
	s := NewStack(h)
	for i := uint64(0); i < 20; i++ {
		s = s.Push(i)
	}
	delta := dev.Stats().Sub(before)
	if delta.Fences != 0 {
		t.Fatalf("pure updates issued %d fences, want 0", delta.Fences)
	}
	if delta.Flushes == 0 {
		t.Fatal("pure updates must flush their writes")
	}
	if dev.DirtyLines() != 0 {
		t.Fatalf("%d dirty lines left unflushed", dev.DirtyLines())
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	h := newTestHeap(t)
	q := NewQueue(h)
	for i := uint64(1); i <= 7; i++ {
		q = q.Push(i)
	}
	for want := uint64(1); want <= 7; want++ {
		var v uint64
		var ok bool
		q, v, ok = q.Pop()
		if !ok || v != want {
			t.Fatalf("Pop = %d,%v, want %d", v, ok, want)
		}
	}
	if _, _, ok := q.Pop(); ok {
		t.Fatal("Pop of empty queue must report not-ok")
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	h := newTestHeap(t)
	q := NewQueue(h)
	var model []uint64
	var seed uint64 = 3
	next := func() uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return seed >> 33
	}
	for i := 0; i < 400; i++ {
		if next()%3 != 0 || len(model) == 0 {
			v := next()
			q = q.Push(v)
			model = append(model, v)
		} else {
			var v uint64
			var ok bool
			q, v, ok = q.Pop()
			if !ok || v != model[0] {
				t.Fatalf("step %d: Pop = %d,%v, want %d", i, v, ok, model[0])
			}
			model = model[1:]
		}
		if q.Len() != uint64(len(model)) {
			t.Fatalf("step %d: Len = %d, want %d", i, q.Len(), len(model))
		}
	}
}

func TestQueuePeek(t *testing.T) {
	h := newTestHeap(t)
	q := NewQueue(h)
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek of empty queue must report not-ok")
	}
	q = q.Push(42).Push(43)
	// Rear-only queue: Peek must find the oldest element.
	if v, ok := q.Peek(); !ok || v != 42 {
		t.Fatalf("Peek = %d,%v, want 42", v, ok)
	}
	q, _, _ = q.Pop()
	if v, ok := q.Peek(); !ok || v != 43 {
		t.Fatalf("Peek after pop = %d,%v, want 43", v, ok)
	}
}

func TestQueueReversalFlushesMore(t *testing.T) {
	h := newTestHeap(t)
	dev := h.Device()
	q := NewQueue(h)
	for i := uint64(0); i < 64; i++ {
		q = q.Push(i)
	}
	// First pop triggers the reversal of the 64-element rear list.
	before := dev.Stats()
	q, _, _ = q.Pop()
	reversal := dev.Stats().Sub(before)
	// Subsequent pop just advances the front pointer.
	before = dev.Stats()
	q, _, _ = q.Pop()
	cheap := dev.Stats().Sub(before)
	if reversal.Flushes < 4*cheap.Flushes {
		t.Fatalf("reversal flushed %d lines vs %d for a cheap pop; expected a large burst (§6.4)",
			reversal.Flushes, cheap.Flushes)
	}
}

func TestQueueOldVersionsUnchanged(t *testing.T) {
	h := newTestHeap(t)
	q0 := NewQueue(h)
	q1 := q0.Push(1)
	q2 := q1.Push(2)
	q3, _, _ := q2.Pop()
	if got := q2.Elements(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("q2 = %v, want [1 2]", got)
	}
	if got := q3.Elements(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("q3 = %v, want [2]", got)
	}
	if q0.Len() != 0 || q1.Len() != 1 {
		t.Fatal("older queue versions mutated")
	}
}

func TestQueueQuickAgainstModel(t *testing.T) {
	h := newTestHeap(t)
	f := func(ops []uint8) bool {
		q := NewQueue(h)
		var model []uint64
		for i, op := range ops {
			if op%3 != 0 || len(model) == 0 {
				q = q.Push(uint64(i))
				model = append(model, uint64(i))
			} else {
				var v uint64
				var ok bool
				q, v, ok = q.Pop()
				if !ok || v != model[0] {
					return false
				}
				model = model[1:]
			}
		}
		got := q.Elements()
		if len(got) != len(model) {
			return false
		}
		for i := range got {
			if got[i] != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestStackQuickAgainstModel(t *testing.T) {
	h := newTestHeap(t)
	f := func(ops []uint8) bool {
		s := NewStack(h)
		var model []uint64
		for i, op := range ops {
			if op%3 != 0 || len(model) == 0 {
				s = s.Push(uint64(i))
				model = append(model, uint64(i))
			} else {
				var v uint64
				var ok bool
				s, v, ok = s.Pop()
				if !ok || v != model[len(model)-1] {
					return false
				}
				model = model[:len(model)-1]
			}
		}
		return s.Len() == uint64(len(model))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
