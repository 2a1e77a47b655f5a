package core

import (
	"encoding/binary"
	"errors"
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
	st, err := newStore(dev)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
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

// TestBatchMultiRootOneFence: a batch over three roots publishes through
// the batch record under the one fence a one-root batch pays, and so does
// every later one — the record slots alternate, and each commit's fence
// retires the previous record instead of fencing it out separately.
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
// on an idle queue, the submitter leads its own round, and a spanning
// batch's leader pays the one settle fence before it returns.
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
	// two roots it went through the batch record after the fence, so the
	// leader found no round coming and paid one settle fence before it
	// stepped down.
	for _, spans := range []bool{false, true} {
		base := dev.Stats()
		b := st.NewBatch()
		b.MapSet(cfgMaps[0], bkey(999), bkey(999))
		want := uint64(1)
		if spans {
			b.MapSet(cfgMaps[1], bkey(999), bkey(999))
			want = 2
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
// around the record's fence and mid root-swap, under every crash policy,
// after prefixes of 0 to 16 committed batches: recovery sees the batch
// atomically, in the map and the queue or in neither, and line eviction
// both keeps it and drops it across the cuts.
func TestBatchCrashAllOrNothing(t *testing.T) {
	seen := map[bool]bool{} // under eviction: the batch recovered
	for pre := 0; pre < 20; pre += 4 {
		h := &crashHist{roots: []histRoot{
			{name: "m", bind: mxBind((*Store).Map, mxMapOps)},
			{name: "q", bind: mxBind((*Store).Queue, mxQueueOps)},
		}}
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

// TestBatchRecordStaleStatusRejected forges the two ways a stale record
// could roll a root back. First the stale-record hazard proper, as a
// checker history: a multi-root batch leaves its record live (its status
// durable since the commit's fence; the Sync that ends the setup fences
// its swaps but is no ordering point), and a later one-root publication
// of one of its roots is covered by the fence of an unrelated FASE after
// it. Recovery must keep the later value instead of rolling the root back
// onto the batch's released version — at every PM write of both, under
// every crash policy. Second, a durable live status forged over a body
// checksummed for a different sequence number must not be acted on at
// all.
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

	// A durable live status that does not match the body's checksummed
	// sequence number.
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := st.Map("a")
	q, _ := st.Queue("b")
	b := st.NewBatch()
	b.MapSet(m, bkey(1), []byte("v1"))
	b.QueueEnqueue(q, 1)
	b.Commit()
	st.Sync()
	m.Set(bkey(1), []byte("v2"))
	st.Sync()
	for i := range st.sh.live {
		rec := st.recSlot(i)
		dev.WriteU64(rec.base, 4242)
		dev.Clwb(rec.base)
	}
	dev.Sfence()
	st2, _, err := openStore(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatalf("forged status: recovery: %v", err)
	}
	m2, _ := st2.Map("a")
	q2, _ := st2.Queue("b")
	if v, ok := m2.Get(bkey(1)); !ok || string(v) != "v2" {
		t.Fatalf("forged status: key 1 = %q, %v; want \"v2\"", v, ok)
	}
	if q2.Len() != 1 {
		t.Fatalf("forged status: queue has %d entries, want the batch's 1", q2.Len())
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

// TestBatchRecordLayoutV8 pins heap layout v8's batch record: two slots
// in one block, alternating by sequence number, both inside the trace
// checker's exempt range; the retiring write keeps the sequence number;
// and an image stamped with layout v7 — one slot, a separately fenced
// commit word — is refused at open with ErrHeapVersion.
func TestBatchRecordLayoutV8(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.heap.PayloadSize(st.batchRec); batchRecSize != 2*recSlotSize || got < batchRecSize {
		t.Fatalf("batch record block holds %d bytes for two %d-byte slots", got, recSlotSize)
	}
	exempt := st.CheckerConfig().ExemptRanges[1]
	if exempt[0] != st.batchRec-alloc.HeaderSize || exempt[1] != st.recSlot(1).base+recSlotSize {
		t.Fatalf("checker exempts [%#x, %#x), want the header and both slots [%#x, %#x)",
			uint64(exempt[0]), uint64(exempt[1]), uint64(st.batchRec-alloc.HeaderSize), uint64(st.recSlot(1).base+recSlotSize))
	}
	m, _ := st.Map("m")
	q, _ := st.Queue("q")
	for seq := uint64(1); seq <= 3; seq++ {
		b := st.NewBatch()
		b.MapSet(m, bkey(int(seq)), bkey(int(seq)))
		b.QueueEnqueue(q, seq)
		b.Commit()
		live, other := st.recSlot(int(seq&1)), st.recSlot(int(seq&1^1))
		if got, entries, isLive := live.read(); got != seq || !isLive || len(entries) != 2 {
			t.Fatalf("commit %d: slot %d reads seq %d live=%v with %d entries", seq, seq&1, got, isLive, len(entries))
		}
		if seq > 1 {
			if got, _, isLive := other.read(); got != seq-1 || isLive {
				t.Fatalf("commit %d: the previous record reads seq %d live=%v, want %d retired by this commit's fence", seq, got, isLive, seq-1)
			}
		}
	}

	st.Sync()
	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	binary.LittleEndian.PutUint64(img[8:], 7) // the superblock's layout version word
	if _, _, err := Open(cfg, WithExistingImages([][]byte{img})); !errors.Is(err, alloc.ErrHeapVersion) {
		t.Fatalf("open of a v7 image: %v, want ErrHeapVersion", err)
	}
}

// TestBatchRecordSequenceSurvivesReopen: a retired status keeps its
// sequence number, and a reopened store numbers its next commits past
// every one found, so a stage over a slot's old body can never carry the
// sequence number that body's checksum is bound to.
func TestBatchRecordSequenceSurvivesReopen(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	st, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	commit := func(st *Store, i int) {
		m, _ := st.Map("m")
		q, _ := st.Queue("q")
		b := st.NewBatch()
		b.MapSet(m, bkey(i), bkey(i))
		b.QueueEnqueue(q, uint64(i))
		b.Commit()
	}
	for i := 1; i <= 3; i++ {
		commit(st, i)
	}
	st.Sync()
	st2, _, err := openStore(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range st2.sh.live {
		if seq, _, live := st2.recSlot(i).read(); live || seq < 2 {
			t.Fatalf("slot %d after reopen: seq %d live=%v, want a retired 2 or 3", i, seq, live)
		}
	}
	commit(st2, 4)
	if seq, _, live := st2.recSlot(0).read(); seq != 4 || !live {
		t.Fatalf("first commit after reopen staged seq %d (live=%v) in slot 0, want 4", seq, live)
	}
}
