package core

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/pmem"
)

func newBatchTestStore(t *testing.T) (*pmem.Device, *Store) {
	t.Helper()
	dev := pmem.New(pmem.DefaultConfig(64 << 20))
	st := newStore(dev)
	return dev, st
}

func bkey(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestBatchSingleRootOneFence(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, err := st.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	st.Sync()

	const n = 64
	base := dev.Stats()
	b := st.NewBatch()
	for i := 0; i < n; i++ {
		b.MapSet(m, bkey(i), bkey(i*7))
	}
	if b.Len() != n {
		t.Fatalf("batch len = %d, want %d", b.Len(), n)
	}
	b.Commit()
	d := dev.Stats().Sub(base)

	if d.Fences != 1 {
		t.Errorf("single-root batch of %d ops used %d fences, want 1", n, d.Fences)
	}
	if d.Batches != 1 || d.BatchedOps != n {
		t.Errorf("batch accounting = %d batches / %d ops, want 1 / %d", d.Batches, d.BatchedOps, n)
	}
	if got := m.Len(); got != n {
		t.Fatalf("map has %d entries after batch, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		v, ok := m.Get(bkey(i))
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i*7) {
			t.Fatalf("key %d lost or corrupt after batch commit", i)
		}
	}
	if b.Len() != 0 {
		t.Errorf("batch not emptied by Commit")
	}
}

// TestBatchMultiRootOneFence: a batch over three roots publishes as one
// staged group under the one fence a one-root batch pays, and so does
// every later one; so does a batch over every root a store can host, which
// recovers whole.
func TestBatchMultiRootOneFence(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	v, _ := st.Vector("v")
	st.Sync()

	for round := 0; round < 4; round++ {
		base := dev.Stats()
		b := st.NewBatch()
		for i := 0; i < 30; i++ {
			switch i % 3 {
			case 0:
				b.MapSet(m, bkey(round*30+i), bkey(i))
			case 1:
				b.QueueEnqueue(q, uint64(i))
			case 2:
				b.VectorPush(v, uint64(i))
			}
		}
		b.Commit()
		if d := dev.Stats().Sub(base); d.Fences != 1 {
			t.Errorf("round %d: multi-root batch used %d fences, want 1", round, d.Fences)
		}
	}
	if want := uint64(40); m.Len() != want || q.Len() != want || v.Len() != want {
		t.Fatalf("batch results: map=%d queue=%d vector=%d, want %d each", m.Len(), q.Len(), v.Len(), want)
	}

	// Every root a store can host: still one fence, and recovered whole.
	st = newTestStore(t)
	vecs := bindEveryRoot(t, st)
	st.Sync()
	base := st.Stats()
	b := st.NewBatch()
	for _, v := range vecs {
		b.VectorUpdate(v, 0, 200)
	}
	b.Commit()
	if d := st.Stats().Sub(base); d.Fences != 1 {
		t.Errorf("a batch over all %d roots used %d fences, want 1", len(vecs), d.Fences)
	}
	crashAcrossRoots(t, st, len(vecs), func(r *Store) int { return vectorsAt(t, r, len(vecs), 200) })
}

// bindEveryRoot binds a vector on every root slot s has, each holding its
// index, and checks that the root table then refuses one more name.
func bindEveryRoot(t *testing.T, s *Store) []*Vector {
	t.Helper()
	vecs := make([]*Vector, alloc.RootSlots)
	for i := range vecs {
		var err error
		if vecs[i], err = s.Vector(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("binding root %d of %d: %v", i, alloc.RootSlots, err)
		}
		vecs[i].Push(uint64(i))
	}
	if _, err := s.Vector("one-too-many"); err == nil {
		t.Fatalf("a store bound a root past its %d slots", alloc.RootSlots)
	}
	return vecs
}

// vectorsAt counts the vectors v0..v(n-1) of a recovered store whose
// element 0 is val.
func vectorsAt(t *testing.T, s *Store, n int, val uint64) int {
	t.Helper()
	got := 0
	for i := 0; i < n; i++ {
		v, err := s.Vector(fmt.Sprintf("v%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if v.Get(0) == val {
			got++
		}
	}
	return got
}

// crashAcrossRoots crashes s right after a commit that moved n roots, the
// first in slot 0, and recovers three images: no swap durable, the first
// line of root cells alone, and every swap. changed counts the roots a
// recovered store holds at the commit's version: none, then all — the
// group rolled forward behind its landed members — then all.
func crashAcrossRoots(t *testing.T, s *Store, n int, changed func(r *Store) int) {
	t.Helper()
	dev := s.dev.(*pmem.Device)
	none := dev.CrashImage(pmem.CrashFencedOnly, 0)
	first := append([]byte(nil), none...)
	line := s.heap.RootCellAddr(0) &^ (pmem.LineSize - 1)
	copy(first[line:line+pmem.LineSize], dev.Snapshot()[line:line+pmem.LineSize])
	for k, tc := range []struct {
		img  []byte
		want int
	}{{none, 0}, {first, n}, {dev.CrashImage(pmem.CrashAllInflight, 0), n}} {
		r, _, err := openStore(pmem.NewFromImage(pmem.DefaultConfig(int64(len(tc.img))), tc.img))
		if err != nil {
			t.Fatalf("image %d: recovery: %v", k, err)
		}
		if got := changed(r); got != tc.want {
			t.Errorf("image %d: %d of %d roots recovered the commit, want %d", k, got, n, tc.want)
		}
	}
}

func TestBatchNoOpAndChaining(t *testing.T) {
	dev, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	m.Set(bkey(1), []byte("one"))
	st.Sync()

	// A batch of pure no-ops publishes nothing and needs no fence.
	base := dev.Stats()
	b := st.NewBatch()
	b.MapDelete(m, bkey(404))
	b.Commit()
	if d := dev.Stats().Sub(base); d.Fences != 0 {
		t.Errorf("no-op batch used %d fences, want 0", d.Fences)
	}

	// Chained updates to one key within a batch: last write wins, the
	// intermediate shadows are retired.
	b = st.NewBatch()
	b.MapSet(m, bkey(2), []byte("a"))
	b.MapSet(m, bkey(2), []byte("b"))
	b.MapDelete(m, bkey(1))
	b.Commit()
	if v, ok := m.Get(bkey(2)); !ok || string(v) != "b" {
		t.Fatalf("chained batch: key 2 = %q, %v; want \"b\"", v, ok)
	}
	if _, ok := m.Get(bkey(1)); ok {
		t.Fatalf("chained batch: key 1 still present after batched delete")
	}
}

func TestBatchParentBoundPanics(t *testing.T) {
	_, st := newBatchTestStore(t)
	p, err := st.Parent("p", "left", "right")
	if err != nil {
		t.Fatal(err)
	}
	m, err := p.Map("left")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("batched update of a parent-bound structure did not panic")
		}
	}()
	st.NewBatch().MapSet(m, bkey(1), bkey(1))
}

// TestBatchConcurrentWriters drives many goroutines committing batches —
// some to private roots, some to a shared root — interleaved with
// Basic-interface writers, and checks nothing is lost (run with -race).
func TestBatchConcurrentWriters(t *testing.T) {
	_, st := newBatchTestStore(t)
	const (
		writers  = 4
		batches  = 30
		batchLen = 8
	)
	shared, err := st.Map("shared")
	if err != nil {
		t.Fatal(err)
	}
	st.Sync()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := st.Fork()
			own, err := h.Map(fmt.Sprintf("own-%d", w))
			if err != nil {
				t.Error(err)
				return
			}
			sh, err := h.Map("shared")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < batches; i++ {
				b := h.NewBatch()
				for j := 0; j < batchLen; j++ {
					k := i*batchLen + j
					b.MapSet(own, bkey(k), bkey(k))
					b.MapSet(sh, bkey(w*1_000_000+k), bkey(k))
				}
				b.Commit()
				// Interleave a Basic-interface FASE on the shared root.
				sh.Set(bkey(w*1_000_000+500_000+i), bkey(i))
			}
		}(w)
	}
	wg.Wait()
	st.Sync()

	wantOwn := uint64(batches * batchLen)
	for w := 0; w < writers; w++ {
		m, err := st.Map(fmt.Sprintf("own-%d", w))
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Len(); got != wantOwn {
			t.Errorf("own-%d has %d entries, want %d", w, got, wantOwn)
		}
	}
	wantShared := uint64(writers * (batches*batchLen + batches))
	if got := shared.Len(); got != wantShared {
		t.Errorf("shared map has %d entries, want %d", got, wantShared)
	}
}

// TestBatchAsyncCommitter exercises the commit queue: concurrent
// producers submit batches, tickets resolve durable, Sync drains; then,
// on an idle queue, the submitter leads its own round, whose one fence
// makes its batch durable whether it spans roots or not.
func TestBatchAsyncCommitter(t *testing.T) {
	dev, st := newBatchTestStore(t)
	cfgMaps := make([]*Map, 3)
	for i := range cfgMaps {
		m, err := st.Map(fmt.Sprintf("async-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		cfgMaps[i] = m
	}
	st.Sync()
	st.sh.queue.maxOps = 64

	const producers = 3
	const perProducer = 40
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := st.Fork()
			m, err := h.Map(fmt.Sprintf("async-%d", p))
			if err != nil {
				t.Error(err)
				return
			}
			var last *Ticket
			for i := 0; i < perProducer; i++ {
				b := h.NewBatch()
				b.MapSet(m, bkey(i), bkey(i*3))
				b.MapSet(m, bkey(100_000+i), bkey(i))
				last = b.CommitAsync()
			}
			last.Wait()
			if !last.Done() || last.Err() != nil {
				t.Errorf("ticket Wait returned unresolved or refused: done %v, err %v", last.Done(), last.Err())
			}
		}(p)
	}
	wg.Wait()
	st.Sync()

	for p, m := range cfgMaps {
		if got := m.Len(); got != 2*perProducer {
			t.Errorf("async-%d has %d entries, want %d", p, got, 2*perProducer)
		}
	}
	if s := dev.Stats(); s.Batches == 0 || s.BatchedOps < producers*perProducer*2 {
		t.Errorf("committer accounting: %d batches / %d ops", s.Batches, s.BatchedOps)
	}

	// An idle queue: the submitter leads, so its batch is durable when
	// CommitAsync returns and Wait adds nothing. On one root the round
	// staged the publication ahead of its fence, the only one paid; across
	// two roots it staged them as one group with digests, and that fence
	// is again the only one.
	for _, spans := range []bool{false, true} {
		base := dev.Stats()
		b := st.NewBatch()
		b.MapSet(cfgMaps[0], bkey(999), bkey(999))
		want := uint64(1)
		if spans {
			b.MapSet(cfgMaps[1], bkey(999), bkey(999))
		}
		tk := b.CommitAsync()
		if _, ok := cfgMaps[0].Get(bkey(999)); !ok {
			t.Fatal("CommitAsync on an idle queue returned before publishing")
		}
		if f := dev.Stats().Sub(base).Fences; f != want || !tk.Done() {
			t.Fatalf("spanning %v: leading CommitAsync returned after %d fences (want %d), durable %v", spans, f, want, tk.Done())
		}
		tk.Wait()
		if f := dev.Stats().Sub(base).Fences; f != want {
			t.Fatalf("spanning %v: Wait added %d fences, want 0", spans, f-want)
		}
	}
}

// TestBatchCrashAllOrNothing crashes a multi-root batch — two map keys
// and a queue element — at every PM write, while its shadows build,
// around its one fence and mid root-swap, under every crash policy,
// after prefixes of 0 to 16 committed batches: recovery sees the batch
// atomically, in the map and the queue or in neither, and line eviction
// both keeps it and drops it across the cuts.
func TestBatchCrashAllOrNothing(t *testing.T) {
	seen := map[bool]bool{} // under eviction: the batch recovered
	for pre := 0; pre < 20; pre += 4 {
		// Every write is cut, -short too: the diversity check below needs
		// an evicted image on each side of the batch's swap.
		h := &crashHist{roots: []histRoot{
			{name: "m", bind: mxBind((*Store).Map, mxMapOps)},
			{name: "q", bind: mxBind((*Store).Queue, mxQueueOps)},
		}, stride: 1}
		h.setup = func(e *histEnv) {
			for i := 0; i < pre; i++ {
				b := e.db.Store().NewBatch()
				e.ops[0].batch(b, i)
				e.ops[1].batch(b, i)
				b.Commit()
			}
		}
		h.window = func(e *histEnv, r *histRec) {
			r.do("batch", []durcheck.Effect{e.eff(0, 100), e.eff(1, 100), e.eff(0, 101)}, func() {
				b := e.db.Store().NewBatch()
				e.ops[0].batch(b, 100)
				e.ops[1].batch(b, 100)
				e.ops[0].batch(b, 101)
				b.Commit()
			})
		}
		h.expect = func(c histCut) error {
			if c.policy == pmem.CrashEvictRandom && !c.end {
				seen[len(c.got[1]) == pre+1] = true
			}
			return nil
		}
		h.run(t)
	}
	if !seen[true] || !seen[false] {
		t.Errorf("crash points not diverse: committed=%v dropped=%v", seen[true], seen[false])
	}
}

// TestBatchRecordStaleStatusRejected: a stale group member never rolls a
// later publication back. First as a checker history: a multi-root batch
// leaves its member slots in the stage table (the Sync that ends the setup
// fences its swaps), and a later one-root publication of one of its roots
// is covered by the fence of an unrelated FASE after it. Recovery must
// keep the later value instead of rolling the root back onto the batch's
// released version — at every PM write of both, under every crash policy.
// Then on a forged image: the later publication durable and the batch's
// other swap lost, so the group is landed — the other root rolls forward,
// the republished one keeps its later version; and with both member slots
// torn, nothing of them is acted on at all.
func TestBatchRecordStaleStatusRejected(t *testing.T) {
	h := &crashHist{roots: []histRoot{
		{name: "a", bind: mxBind((*Store).Map, mxMapOps)},
		{name: "b", bind: mxBind((*Store).Queue, mxQueueOps)},
		{name: "c", bind: mxBind((*Store).Stack, mxStackOps)},
	}}
	h.setup = func(e *histEnv) {
		b := e.db.Store().NewBatch()
		e.ops[0].batch(b, 1)
		e.ops[1].batch(b, 1)
		b.Commit()
	}
	h.window = func(e *histEnv, r *histRec) {
		r.do("later", e.effs(0, 2, 3), func() { e.ops[0].basic(2) })
		r.do("other", e.effs(2, 1, 2), func() { e.ops[2].basic(1) })
	}
	h.run(t)

	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st := newStore(dev)
	m, _ := st.Map("a")
	q, _ := st.Queue("b")
	st.Sync()
	qSlot, _ := st.heap.RootSlot("b")
	qCell := st.heap.RootCellAddr(qSlot)
	emptyQ := dev.ReadU64(qCell)
	// The forged image below names the empty queue again after the batch
	// replaced it: a snapshot pins it, so its block is not reclaimed and
	// reused (by the later map version, whose root shares its size class).
	pinQ := q.Snapshot()
	b := st.NewBatch()
	b.MapSet(m, bkey(1), []byte("v1"))
	b.QueueEnqueue(q, 1)
	b.Commit()
	st.Sync()
	m.Set(bkey(1), []byte("v2"))
	st.Sync()
	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	pinQ.Close()
	binary.LittleEndian.PutUint64(img[qCell:], emptyQ) // the batch's swap on b lost
	torn := append([]byte(nil), img...)
	for _, name := range []string{"a", "b"} {
		slot, _ := st.heap.RootSlot(name)
		for i := 0; i < 2; i++ {
			at := st.heap.StageSlotAddr(slot, i) + 8 // the group word
			binary.LittleEndian.PutUint64(torn[at:], binary.LittleEndian.Uint64(torn[at:])^0x100)
		}
	}
	for _, tc := range []struct {
		what  string
		img   []byte
		queue uint64
	}{{"landed group", img, 1}, {"torn member slots", torn, 0}} {
		st2, _, err := openStore(pmem.NewFromImage(cfg, tc.img))
		if err != nil {
			t.Fatalf("%s: recovery: %v", tc.what, err)
		}
		m2, _ := st2.Map("a")
		q2, qerr := st2.Queue("b")
		if qerr != nil {
			t.Fatalf("%s: %v", tc.what, qerr)
		}
		if v, ok := m2.Get(bkey(1)); !ok || string(v) != "v2" {
			t.Fatalf("%s: key 1 = %q, %v; want the later \"v2\"", tc.what, v, ok)
		}
		if q2.Len() != tc.queue {
			t.Fatalf("%s: queue has %d entries, want %d", tc.what, q2.Len(), tc.queue)
		}
	}
}

// TestBatchSyncBarrier: Sync must drain queued batches before returning.
// The test holds the queue's leadership, so 100 CommitAsync batches queue
// up unpublished; a Sync from another goroutine must not return until
// the leader steps down and its drain has published them all.
func TestBatchSyncBarrier(t *testing.T) {
	_, st := newBatchTestStore(t)
	m, _ := st.Map("m")
	q := &st.sh.queue
	q.mu.Lock()
	q.leading.Store(true)
	q.mu.Unlock()
	for i := 0; i < 100; i++ {
		b := st.NewBatch()
		b.MapSet(m, bkey(i), bkey(i))
		b.CommitAsync()
	}
	synced := make(chan struct{})
	go func() {
		defer close(synced)
		st.Fork().Sync()
	}()
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	select {
	case <-synced:
		t.Fatal("Sync returned while the batches queued before it were unpublished")
	default:
	}
	q.mu.Lock()
	st.release()
	<-synced
	if got := m.Len(); got != 100 {
		t.Fatalf("after Sync map has %d entries, want 100", got)
	}
}

// TestStageSlotLayoutV10 pins heap layout v10's stage slots as multi-root
// commits write them: one 32-byte slot per changed root, two to a line in
// the root's stage line inside the trace checker's exempt range, at the
// parity of the cell word it names; every member of one commit carries
// the same group word — a sequence number over the member count — and
// the next commit the next sequence number. A Batch.Commit's members
// carry no digest, a round's spanning members do.
func TestStageSlotLayoutV10(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st := newStore(dev)
	tb := st.heap.StageTableRange()
	if exempt := st.CheckerConfig().ExemptRanges; len(exempt) != 2 || exempt[1] != tb {
		t.Fatalf("checker exempts %#x, want the superblock and the stage table %#x", exempt, tb)
	}
	if tb[1]-tb[0] != alloc.RootSlots*pmem.LineSize {
		t.Fatalf("stage table spans %d bytes, want a line for each of %d roots", tb[1]-tb[0], alloc.RootSlots)
	}
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	v, _ := st.Vector("v")
	type slotWords struct{ final, group, digest, meta uint64 }
	member := func(s *Store, name string) slotWords {
		slot, _ := s.heap.RootSlot(name)
		w := s.dev.ReadU64(s.heap.RootCellAddr(slot))
		at := s.heap.StageSlotAddr(slot, int(w>>35&1))
		if at < tb[0] || at+32 > tb[1] || at/pmem.LineSize != s.heap.StageSlotAddr(slot, 1-int(w>>35&1))/pmem.LineSize {
			t.Fatalf("%s: stage slot %#x is not in the root's stage line inside the table", name, uint64(at))
		}
		return slotWords{s.dev.ReadU64(at), s.dev.ReadU64(at + 8), s.dev.ReadU64(at + 16), s.dev.ReadU64(at + 24)}
	}
	for seq := uint64(1); seq <= 3; seq++ {
		b := st.NewBatch()
		b.MapSet(m, bkey(int(seq)), bkey(int(seq)))
		b.QueueEnqueue(q, seq)
		b.Commit()
		for _, name := range []string{"m", "q"} {
			slot, _ := st.heap.RootSlot(name)
			got := member(st, name)
			if got.final != st.dev.ReadU64(st.heap.RootCellAddr(slot)) || got.group != seq<<16|2 || got.digest != 0 || got.meta == 0 || got.meta>>48 != 0 {
				t.Fatalf("commit %d: %s's member slot %+v, want its cell word, group %#x, no digest", seq, name, got, seq<<16|2)
			}
		}
	}
	async := st.NewBatch()
	async.MapSet(m, bkey(9), bkey(9))
	async.VectorPush(v, 9)
	tk := async.CommitAsync()
	if tk.Wait(); tk.Err() != nil {
		t.Fatal(tk.Err())
	}
	for _, name := range []string{"m", "v"} {
		if got := member(st, name); got.group != 4<<16|2 || got.meta>>48 == 0 {
			t.Fatalf("spanning round: %s's member slot %+v, want group %#x with a digest", name, got, 4<<16|2)
		}
	}
}

// TestStageSlotsConsumedAtReopen: group numbering is volatile. Recovery
// consumes every stage slot it finds, so a reopened store may number its
// groups from 1 again without a new group ever matching a stale member
// left over from before the crash.
func TestStageSlotsConsumedAtReopen(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st := newStore(dev)
	tb := st.heap.StageTableRange()
	commit := func(st *Store, i int) {
		m, _ := st.Map("m")
		q, _ := st.Queue("q")
		b := st.NewBatch()
		b.MapSet(m, bkey(i), bkey(i))
		b.QueueEnqueue(q, uint64(i))
		b.Commit()
	}
	group := func(s *Store, name string) uint64 {
		slot, _ := s.heap.RootSlot(name)
		w := s.dev.ReadU64(s.heap.RootCellAddr(slot))
		return s.dev.ReadU64(s.heap.StageSlotAddr(slot, int(w>>35&1)) + 8)
	}
	for i := 1; i <= 3; i++ {
		commit(st, i)
	}
	if got := group(st, "m"); got != 3<<16|2 {
		t.Fatalf("third commit: group word %#x, want %#x", got, 3<<16|2)
	}

	st.Sync()
	st2, _, err := openStore(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for at := tb[0]; at < tb[1]; at += 32 {
		if meta := st2.dev.ReadU64(at + 24); meta != 0 {
			t.Fatalf("stage slot %#x survived the recovery that decided it", uint64(at))
		}
	}
	commit(st2, 4)
	if got := group(st2, "m"); got != 1<<16|2 {
		t.Fatalf("first commit after reopen: group word %#x, want %#x", got, 1<<16|2)
	}
}
