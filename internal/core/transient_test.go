package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Tests for the edit-context (transient) path through the store: batched
// FASEs build one in-place-mutable shadow per root (DESIGN.md §8), so
// these pin (a) end-to-end correctness against a volatile model, (b) the
// copy/flush elision the path exists for, and (c) that unpublished edit
// nodes never leak into recovered state when a crash lands mid-edit.

// TestTransientBatchMatchesModel runs every batchable update — the ten
// rootOps handles.go shares between the Basic methods and their Batch
// twins — against a volatile model, both ways (one Basic FASE per op,
// whose results are checked too, or batches of 1, 3, 17 and 64 ops on
// the edit path) and on both flavors (a plain store, and one opened
// WithSelective folding every 16 records).
func TestTransientBatchMatchesModel(t *testing.T) {
	for _, flavor := range []string{"plain", "sel"} {
		for _, way := range []string{"basic", "batch"} {
			t.Run(flavor+"/"+way, func(t *testing.T) {
				var opts []Option
				if flavor == "sel" {
					opts = append(opts, WithSelective(16))
				}
				db, _, err := Open(pmem.DefaultConfig(32<<20), opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				runModel(t, db.Store(), way == "basic")
			})
		}
	}
}

// runModel drives seeded random updates over all five structures of st,
// as Basic FASEs or as batches, and checks every result and the final
// states against a volatile model after each batch size.
func runModel(t *testing.T, st *Store, basic bool) {
	m, err := st.Map("model-map")
	if err != nil {
		t.Fatal(err)
	}
	set, err := st.Set("model-set")
	if err != nil {
		t.Fatal(err)
	}
	v, err := st.Vector("model-vec")
	if err != nil {
		t.Fatal(err)
	}
	stk, err := st.Stack("model-stack")
	if err != nil {
		t.Fatal(err)
	}
	q, err := st.Queue("model-queue")
	if err != nil {
		t.Fatal(err)
	}

	model := map[string]string{}
	members := map[string]bool{}
	var vec, stack, queue []uint64
	seed := uint64(0xfeed)
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	check := func(what string, got, want any) {
		t.Helper()
		if got != want {
			t.Fatalf("%s returned %v, model says %v", what, got, want)
		}
	}
	for _, batchSize := range []int{1, 3, 17, 64} {
		b := st.NewBatch()
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("k%03d", next()%100)
			x := next()
			switch next() % 10 {
			case 0:
				val := fmt.Sprintf("v%x", x)
				_, had := model[k]
				if basic {
					check("Map.Set", m.Set([]byte(k), []byte(val)), had)
				} else {
					b.MapSet(m, []byte(k), []byte(val))
				}
				model[k] = val
			case 1:
				_, had := model[k]
				if basic {
					check("Map.Delete", m.Delete([]byte(k)), had)
				} else {
					b.MapDelete(m, []byte(k))
				}
				delete(model, k)
			case 2:
				if basic {
					check("Set.Insert", set.Insert([]byte(k)), members[k])
				} else {
					b.SetInsert(set, []byte(k))
				}
				members[k] = true
			case 3:
				if basic {
					check("Set.Delete", set.Delete([]byte(k)), members[k])
				} else {
					b.SetDelete(set, []byte(k))
				}
				delete(members, k)
			case 4:
				if basic {
					v.Push(x)
				} else {
					b.VectorPush(v, x)
				}
				vec = append(vec, x)
			case 5:
				if len(vec) == 0 {
					continue
				}
				j := x % uint64(len(vec))
				if basic {
					v.Update(j, x)
				} else {
					b.VectorUpdate(v, j, x)
				}
				vec[j] = x
			case 6:
				if basic {
					stk.Push(x)
				} else {
					b.StackPush(stk, x)
				}
				stack = append([]uint64{x}, stack...)
			case 7:
				want := popped{}
				if len(stack) > 0 {
					want = popped{stack[0], true}
					stack = stack[1:]
				}
				if basic {
					val, ok := stk.Pop()
					check("Stack.Pop", popped{val, ok}, want)
				} else {
					b.StackPop(stk)
				}
			case 8:
				if basic {
					q.Enqueue(x)
				} else {
					b.QueueEnqueue(q, x)
				}
				queue = append(queue, x)
			case 9:
				want := popped{}
				if len(queue) > 0 {
					want = popped{queue[0], true}
					queue = queue[1:]
				}
				if basic {
					val, ok := q.Dequeue()
					check("Queue.Dequeue", popped{val, ok}, want)
				} else {
					b.QueueDequeue(q)
				}
			}
			if b.Len() >= batchSize {
				b.Commit()
			}
		}
		b.Commit()

		if got := int(m.Len()); got != len(model) {
			t.Fatalf("batch=%d: map len %d, model %d", batchSize, got, len(model))
		}
		for k, want := range model {
			got, ok := m.Get([]byte(k))
			if !ok || string(got) != want {
				t.Fatalf("batch=%d: key %q = %q/%v, want %q", batchSize, k, got, ok, want)
			}
		}
		if got := int(set.Len()); got != len(members) {
			t.Fatalf("batch=%d: set len %d, model %d", batchSize, got, len(members))
		}
		for k := range members {
			if !set.Contains([]byte(k)) {
				t.Fatalf("batch=%d: set lost %q", batchSize, k)
			}
		}
		if got := int(v.Len()); got != len(vec) {
			t.Fatalf("batch=%d: vector len %d, model %d", batchSize, got, len(vec))
		}
		for i, want := range vec {
			if got := v.Get(uint64(i)); got != want {
				t.Fatalf("batch=%d: vec[%d] = %d, want %d", batchSize, i, got, want)
			}
		}
		ss, qs := stk.Snapshot(), q.Snapshot()
		if got := fmt.Sprint(ss.Version().Elements()); got != fmt.Sprint(stack) {
			t.Fatalf("batch=%d: stack %s, model %v", batchSize, got, stack)
		}
		if got := fmt.Sprint(qs.Version().Elements()); got != fmt.Sprint(queue) {
			t.Fatalf("batch=%d: queue %s, model %v", batchSize, got, queue)
		}
		ss.Close()
		qs.Close()
	}
}

// TestTransientBatchElidesWork pins the perf mechanism end to end: the
// same 128 updates cost >= 2x fewer flushes and node copies through one
// 64-op-per-FASE batch than as per-op FASEs, and the elision counters
// move.
func TestTransientBatchElidesWork(t *testing.T) {
	run := func(batchSize int) (flushes, copies, elided uint64) {
		dev, st := newBatchTestStore(t)
		m, err := st.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		v, err := st.Vector("v")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			m.Set(bkey(i), bkey(i))
			v.Push(uint64(i))
		}
		st.Sync()
		s0 := dev.Stats()
		a0 := st.Heap().Stats().Allocs
		b := st.NewBatch()
		for i := 0; i < 128; i++ {
			if i&1 == 0 {
				b.MapSet(m, bkey(i%96), bkey(i*7))
			} else {
				b.VectorPush(v, uint64(i))
			}
			if b.Len() >= batchSize {
				b.Commit()
			}
		}
		b.Commit()
		d := dev.Stats().Sub(s0)
		return d.Flushes, st.Heap().Stats().Allocs - a0, d.CopiesElided
	}
	perOpFlushes, perOpCopies, _ := run(1)
	batchFlushes, batchCopies, batchElided := run(64)
	if batchFlushes*2 > perOpFlushes {
		t.Errorf("flushes: batch %d vs per-op %d, want >= 2x elision", batchFlushes, perOpFlushes)
	}
	if batchCopies*2 > perOpCopies {
		t.Errorf("copies: batch %d vs per-op %d, want >= 2x elision", batchCopies, perOpCopies)
	}
	if batchElided == 0 {
		t.Error("CopiesElided did not move under a 64-op batch")
	}
}

// TestTransientCrashMidEditNeverLeaks lands crashes at every early write
// of a batched FASE — squarely inside the edit, before the publish fence
// can run — and proves recovery returns exactly the pre-batch state with
// the edit's unpublished nodes swept as leaks, never reachable.
func TestTransientCrashMidEditNeverLeaks(t *testing.T) {
	sawLeaks := false
	for countdown := 1; countdown <= 120; countdown += 7 {
		cfg := pmem.DefaultConfig(64 << 20)
		cfg.TrackDurable = true
		dev := pmem.New(cfg)
		st := newStore(dev)
		m, _ := st.Map("m")
		v, _ := st.Vector("v")
		for i := 0; i < 10; i++ {
			b := st.NewBatch()
			b.MapSet(m, bkey(i), bkey(i*3))
			b.VectorPush(v, uint64(i))
			b.Commit()
		}
		st.Sync()

		tr := pmem.NewCrashCountdown(dev, countdown, pmem.CrashEvictRandom, uint64(countdown))
		dev.SetTracer(tr)
		b := st.NewBatch()
		for i := 0; i < 32; i++ {
			b.MapSet(m, bkey(1000+i), []byte("edit"))
			b.VectorPush(v, uint64(2000+i))
		}
		b.Commit()
		dev.SetTracer(nil)
		img := tr.Image()
		if img == nil {
			t.Fatalf("countdown %d: crash landed past the batch", countdown)
		}

		dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
		st2, rs, err := openStore(dev2)
		if err != nil {
			t.Fatalf("countdown %d: recovery: %v", countdown, err)
		}
		m2, _ := st2.Map("m")
		v2, _ := st2.Vector("v")

		// All-or-nothing per batch; with the crash inside the edit (well
		// before publication) the batch must be entirely absent.
		committed := false
		if _, ok := m2.Get(bkey(1000)); ok {
			committed = true
		}
		if committed {
			t.Fatalf("countdown %d: batch visible after a mid-edit crash", countdown)
		}
		if got := m2.Len(); got != 10 {
			t.Fatalf("countdown %d: map len %d, want 10", countdown, got)
		}
		if got := v2.Len(); got != 10 {
			t.Fatalf("countdown %d: vector len %d, want 10", countdown, got)
		}
		for i := 0; i < 10; i++ {
			if _, ok := m2.Get(bkey(i)); !ok {
				t.Fatalf("countdown %d: pre-batch key %d lost", countdown, i)
			}
			if got := v2.Get(uint64(i)); got != uint64(i) {
				t.Fatalf("countdown %d: pre-batch vec[%d] = %d", countdown, i, got)
			}
		}
		if rs.LeakedBlocks > 0 {
			sawLeaks = true
		}
		// The recovered store stays usable through the edit path.
		nb := st2.NewBatch()
		for i := 0; i < 8; i++ {
			nb.MapSet(m2, bkey(500+i), []byte("post"))
		}
		nb.Commit()
		if _, ok := m2.Get(bkey(507)); !ok {
			t.Fatalf("countdown %d: store unusable after recovery", countdown)
		}
	}
	if !sawLeaks {
		t.Error("no crash point left edit allocations to sweep — countdowns too late?")
	}
}

// TestTransientConcurrentReadersDuringEdits runs snapshot readers against
// a writer committing batched edits; under -race this doubles as the
// proof that in-place edit mutation never touches published state.
func TestTransientConcurrentReadersDuringEdits(t *testing.T) {
	_, st := newBatchTestStore(t)
	m, err := st.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		m.Set(bkey(i), bkey(i))
	}
	st.Sync()

	const rounds = 300
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := st.Fork()
			mr, err := h.Map("m")
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := mr.Snapshot()
				n := uint64(0)
				snap.Range(func(k, v []byte) bool { n++; return true })
				if n != snap.Len() {
					t.Errorf("reader %d: snapshot Range saw %d, Len %d", r, n, snap.Len())
					snap.Close()
					return
				}
				snap.Close()
			}
		}(r)
	}

	w := st.Fork()
	mw, err := w.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rounds; i++ {
		b := w.NewBatch()
		for j := 0; j < 16; j++ {
			b.MapSet(mw, bkey((i*16+j)%64), bkey(i))
		}
		b.Commit()
	}
	close(stop)
	wg.Wait()
	if got := m.Len(); got < 32 {
		t.Errorf("map shrank to %d", got)
	}
}
