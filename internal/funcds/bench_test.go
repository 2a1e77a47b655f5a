package funcds

import (
	"encoding/binary"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Micro-benchmarks of one structure operation as core runs it — inside an
// edit context, sealed, fenced, the replaced version released — on
// structures big enough that a path copy does not sit in the host cache:
// a 50,000-key map, a 100,000-element vector, a 1,000-element queue.
//
//	go test -run '^$' -bench . -benchmem ./internal/funcds
//
// The same fixture backs the testing.AllocsPerRun ceilings below: the
// shadow build of a FASE is meant to cost no Go allocation at all
// (DESIGN.md §8, "Edit reuse and scratch ownership").
const (
	benchMapKeys  = 50_000
	benchVecLen   = 100_000
	benchQueueLen = 1_000
	benchLoad     = 256 // operations per preload FASE
)

func benchKey(i int) []byte {
	k := make([]byte, 16)
	binary.LittleEndian.PutUint64(k, uint64(i)*0x9e3779b97f4a7c15)
	return k
}

// commit finishes a FASE the way core does — seal, fence, release the
// version it replaced — and advances *cur to the new version.
func commit(h *alloc.Heap, ed *alloc.Edit, cur *pmem.Addr, next pmem.Addr) {
	ed.Seal()
	h.Fence()
	if next != *cur {
		h.Release(*cur)
	}
	*cur = next
}

func benchHeap(tb testing.TB) *alloc.Heap {
	tb.Helper()
	h := alloc.Format(pmem.New(pmem.DefaultConfig(256 << 20)))
	RegisterWalkers(h)
	return h
}

// mapFixture is a preloaded map with a cycling key schedule.
type mapFixture struct {
	h    *alloc.Heap
	cur  pmem.Addr
	keys [][]byte
	val  []byte
	at   int
}

func newMapFixture(tb testing.TB) *mapFixture {
	f := &mapFixture{h: benchHeap(tb), val: make([]byte, 64)}
	f.cur = NewMap(f.h).Addr()
	for i := 0; i < benchMapKeys; i++ {
		f.keys = append(f.keys, benchKey(i))
	}
	for i := 0; i < benchMapKeys; i += benchLoad {
		ed := f.h.BeginEdit()
		m := MapAt(f.h, f.cur).WithEdit(ed)
		for k := i; k < min(i+benchLoad, benchMapKeys); k++ {
			m, _ = m.Set(f.keys[k], f.val)
		}
		commit(f.h, ed, &f.cur, m.Addr())
	}
	return f
}

// nextKey walks the key set with a large prime stride: scattered, and
// every key comes up once before any repeats.
func (f *mapFixture) nextKey() []byte {
	f.at = (f.at + 7919) % len(f.keys)
	return f.keys[f.at]
}

func (f *mapFixture) set() {
	k := f.nextKey()
	ed := f.h.BeginEdit()
	m, _ := MapAt(f.h, f.cur).WithEdit(ed).Set(k, f.val)
	commit(f.h, ed, &f.cur, m.Addr())
}

// deleteThenRestore removes a key in one FASE and puts it back in a
// second, so the map keeps its size however long the benchmark runs.
func (f *mapFixture) deleteThenRestore() {
	k := f.nextKey()
	ed := f.h.BeginEdit()
	m, _ := MapAt(f.h, f.cur).WithEdit(ed).Delete(k)
	commit(f.h, ed, &f.cur, m.Addr())
	ed = f.h.BeginEdit()
	m, _ = MapAt(f.h, f.cur).WithEdit(ed).Set(k, f.val)
	commit(f.h, ed, &f.cur, m.Addr())
}

type seqFixture struct {
	h        *alloc.Heap
	vec, que pmem.Addr
	at       uint64
}

func newSeqFixture(tb testing.TB) *seqFixture {
	f := &seqFixture{h: benchHeap(tb)}
	f.vec = NewVector(f.h).Addr()
	for i := 0; i < benchVecLen; i += benchLoad {
		ed := f.h.BeginEdit()
		v := VectorAt(f.h, f.vec).WithEdit(ed)
		for k := 0; k < min(benchLoad, benchVecLen-i); k++ {
			v = v.Push(uint64(i + k))
		}
		commit(f.h, ed, &f.vec, v.Addr())
	}
	f.que = NewQueue(f.h).Addr()
	ed := f.h.BeginEdit()
	q := QueueAt(f.h, f.que).WithEdit(ed)
	for k := 0; k < benchQueueLen; k++ {
		q = q.Push(uint64(k))
	}
	commit(f.h, ed, &f.que, q.Addr())
	return f
}

func (f *seqFixture) vectorUpdate() {
	f.at = (f.at + 7919) % benchVecLen
	ed := f.h.BeginEdit()
	v := VectorAt(f.h, f.vec).WithEdit(ed).Update(f.at, f.at)
	commit(f.h, ed, &f.vec, v.Addr())
}

func (f *seqFixture) queueEnqDeq() {
	ed := f.h.BeginEdit()
	q, _, _ := QueueAt(f.h, f.que).WithEdit(ed).Push(f.at).Pop()
	commit(f.h, ed, &f.que, q.Addr())
}

func BenchmarkMapSet(b *testing.B) {
	f := newMapFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.set()
	}
}

func BenchmarkMapGet(b *testing.B) {
	f := newMapFixture(b)
	m := MapAt(f.h, f.cur)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Get(f.nextKey()); !ok {
			b.Fatal("preloaded key missing")
		}
	}
}

func BenchmarkMapDelete(b *testing.B) {
	f := newMapFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.deleteThenRestore()
	}
}

func BenchmarkVectorUpdate(b *testing.B) {
	f := newSeqFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.vectorUpdate()
	}
}

// BenchmarkVectorGet is the read side of the vector's geometry: uniform
// indices, so nearly every Get descends the three interior levels.
func BenchmarkVectorGet(b *testing.B) {
	f := newSeqFixture(b)
	v := VectorAt(f.h, f.vec)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.at = (f.at + 7919) % benchVecLen
		if v.Get(f.at) != f.at {
			b.Fatal("preloaded element differs")
		}
	}
}

func BenchmarkQueueEnqDeq(b *testing.B) {
	f := newSeqFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.queueEnqDeq()
	}
}

// TestFASEsDoNotAllocate pins the Go allocations of one whole FASE —
// shadow build, seal, fence, release and the reclamation cascade the
// fence runs — on preloaded structures. Steady state is zero: the edit,
// its sets and flush set, the node-image scratch and the cascade buffers
// are all reused. The ceilings leave room for the rare growth of a
// reused buffer (a deeper path, a bigger free list), not for a per-node
// or per-FASE allocation, which would cost several per run.
func TestFASEsDoNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads a 50,000-key map and a 100,000-element vector")
	}
	mf, sf := newMapFixture(t), newSeqFixture(t)
	for _, c := range []struct {
		name    string
		op      func()
		ceiling float64
	}{
		{"Map.Set", mf.set, 0.5},
		{"Map.Delete+Set", mf.deleteThenRestore, 1},
		{"Vector.Update", sf.vectorUpdate, 0.5},
		{"Queue enq+deq", sf.queueEnqDeq, 0.5},
	} {
		for i := 0; i < 200; i++ { // reach steady state: buffers grown, free lists primed
			c.op()
		}
		if got := testing.AllocsPerRun(500, c.op); got > c.ceiling {
			t.Errorf("%s: %.2f Go allocations per FASE, ceiling %.1f", c.name, got, c.ceiling)
		}
	}
}
