package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/pmem"
)

// Tests for a commit-queue round that absorbs the one-root CommitAsync
// submissions queued after its cut (batch.go absorb), and for a round
// that panics (abortRound).

// queueLed marks s's queue led, so that submissions queue behind the
// leader leadRound makes of the caller.
func queueLed(s *Store) {
	q := &s.sh.queue
	q.mu.Lock()
	q.leading.Store(true)
	q.mu.Unlock()
}

// leadRound makes the calling goroutine lead s's queue (queueLed) over
// what is queued, as a submitter that found it idle does, and calls
// during once, at the first PM write of its first round: while that round
// builds, after its cut. It returns the fences the leader paid.
func leadRound(s *Store, during func()) uint64 {
	fired := false
	s.dev.SetTracer(&crashProbe{onWrite: func(pmem.Addr) {
		if !fired {
			fired = true
			during()
		}
	}})
	defer s.dev.SetTracer(nil)
	before := s.dev.Stats().Fences
	q := &s.sh.queue
	q.mu.Lock()
	s.release()
	return s.dev.Stats().Fences - before
}

// asyncOne submits one Map.Set of m as a one-root CommitAsync.
func asyncOne(s *Store, m *Map, k, v string) *Ticket {
	b := s.NewBatch()
	b.MapSet(m, []byte(k), []byte(v))
	return b.CommitAsync()
}

// absorbStore is a store on a durability-tracking device with maps a, b
// and c bound, each holding a few keys, and synced.
func absorbStore(t *testing.T, opts ...Option) (pmem.Config, *Store, []*Map) {
	t.Helper()
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	db, _, err := Open(cfg, append([]Option{WithDevices(pmem.New(cfg))}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	s := db.Store()
	var ms []*Map
	for _, name := range []string{"a", "b", "c"} {
		m, err := s.Map(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			m.Set([]byte(fmt.Sprintf("pre%02d", i)), []byte("x"))
		}
		ms = append(ms, m)
	}
	s.Sync()
	return cfg, s, ms
}

// TestRoundAbsorbsLateOneRootSubmissions: two one-root CommitAsync
// submissions on distinct roots, queued while a round on a third root
// builds, ride that round's fence: the leader pays one fence for all
// three, and every ticket has resolved when it steps down. Each ack is in
// a fenced-only image taken right after its Wait, with no fence since the
// round's: the cells the round swapped after its fence are not in it, so
// recovery finds the absorbed publications by their stage slots.
func TestRoundAbsorbsLateOneRootSubmissions(t *testing.T) {
	cfg, s, ms := absorbStore(t)
	queueLed(s)
	ta := asyncOne(s, ms[0], "k", "a")
	var tb, tc *Ticket
	fences := leadRound(s, func() {
		tb = asyncOne(s, ms[1], "k", "b")
		tc = asyncOne(s, ms[2], "k", "c")
	})
	if fences != 1 {
		t.Fatalf("a round on a and the submissions on b and c queued while it built paid %d fences, want 1", fences)
	}
	for _, tk := range []*Ticket{ta, tb, tc} {
		if !tk.Done() {
			t.Fatal("the leader stepped down with a ticket unresolved")
		}
	}
	for i, tk := range []*Ticket{tb, tc} {
		mxWait(t, tk)
		img := s.dev.CrashImage(pmem.CrashFencedOnly, uint64(i))
		s2, rs := recoverImage(t, cfg, img)
		for j, name := range []string{"a", "b", "c"} {
			m2, _ := s2.Map(name)
			if v, ok := m2.Get([]byte("k")); !ok || string(v) != name {
				t.Fatalf("image right after Wait %d: root %d reads %q, %v: an acknowledged submission is lost", i, j, v, ok)
			}
		}
		if rs.StagedRoots != 3 {
			t.Fatalf("recovery moved %d roots by their stage slots, want 3", rs.StagedRoots)
		}
	}
}

// TestRoundAbsorbsNothingAheadOfItsRoot: a one-root submission queued
// while a round builds is not absorbed ahead of an earlier submission
// still queued on its root — a CommitAsync spanning roots, an enrolled
// Basic update, or a Sync barrier, which stands for every root. The
// first two write the same key as the later submission, whose value must
// win; behind the barrier, the later submission rides the barrier's
// round, so the leader prepares two batches where absorbing it would have
// made one.
func TestRoundAbsorbsNothingAheadOfItsRoot(t *testing.T) {
	for _, earlier := range []string{"spanning", "basic", "barrier"} {
		t.Run(earlier, func(t *testing.T) {
			_, s, ms := absorbStore(t)
			q := &s.sh.queue
			queued := func() int {
				q.mu.Lock()
				defer q.mu.Unlock()
				return len(q.pending)
			}
			fork := s.Fork()
			fb, _ := fork.Map("b")
			queueLed(s)
			ta := asyncOne(s, ms[0], "k", "a")
			var tl *Ticket
			done := make(chan struct{})
			before := s.dev.Stats().Batches
			leadRound(s, func() {
				switch earlier {
				case "spanning":
					b := s.NewBatch()
					b.MapSet(ms[1], []byte("k"), []byte("earlier"))
					b.MapSet(ms[2], []byte("k"), []byte("earlier"))
					b.CommitAsync()
					close(done)
				case "basic":
					go func() {
						defer close(done)
						fb.Set([]byte("k"), []byte("earlier")) // the queue is led: it enrolls
					}()
				case "barrier":
					go func() {
						defer close(done)
						fork.Sync()
					}()
				}
				for queued() == 0 {
					time.Sleep(time.Millisecond)
				}
				tl = asyncOne(s, ms[1], "k", "later")
			})
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("the earlier submission never returned")
			}
			mxWait(t, ta)
			mxWait(t, tl)
			if earlier == "barrier" {
				if n := s.dev.Stats().Batches - before; n != 2 {
					t.Fatalf("%d batches, want 2: the later submission was absorbed ahead of the barrier", n)
				}
				return
			}
			if v, ok := ms[1].Get([]byte("k")); !ok || string(v) != "later" {
				t.Fatalf("b[k] = %q, %v: the later submission was published ahead of the %s one", v, ok, earlier)
			}
		})
	}
}

// TestRoundAbsorbsWithinMaxOps: with rounds capped at two operations, a
// round of one op absorbs one of two one-root submissions queued while it
// builds, and the other pays a round of its own.
func TestRoundAbsorbsWithinMaxOps(t *testing.T) {
	for _, c := range []struct {
		maxOps int
		fences uint64
	}{{2, 2}, {3, 1}} {
		t.Run(fmt.Sprintf("maxOps=%d", c.maxOps), func(t *testing.T) {
			_, s, ms := absorbStore(t, WithCommitter(c.maxOps))
			queueLed(s)
			ta := asyncOne(s, ms[0], "k", "a")
			var tb, tc *Ticket
			fences := leadRound(s, func() {
				tb = asyncOne(s, ms[1], "k", "b")
				tc = asyncOne(s, ms[2], "k", "c")
			})
			for _, tk := range []*Ticket{ta, tb, tc} {
				mxWait(t, tk)
			}
			if fences != c.fences {
				t.Fatalf("%d fences, want %d", fences, c.fences)
			}
		})
	}
}

// TestAbsorbedRoundsCrashImages is a checker history whose cuts land
// inside absorbed rounds. First, pinned: three times, a round on one root
// absorbs two one-root submissions queued while it builds, each invoked
// mid-round (the fence count proves the absorption). Then, concurrent:
// three writers of CommitAsync + Wait on their own roots and one on a
// shared root, whose arrivals rounds absorb as they come. Every PM write
// of the pinned rounds is a cut, every third of the rest, each under
// every crash policy.
func TestAbsorbedRoundsCrashImages(t *testing.T) {
	const roots, writers, ops = 4, 4, 6
	h := &crashHist{stride: 1}
	for r := 0; r < roots; r++ {
		h.roots = append(h.roots, histRoot{name: fmt.Sprintf("r%d", r), bind: mxBind((*Store).Map, mxMapOps)})
	}
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		ms := make([]*Map, roots)
		for i := range ms {
			ms[i], _ = s.Map(fmt.Sprintf("r%d", i))
		}
		for round := 0; round < 3; round++ {
			var ids []int
			var tks []*Ticket
			submit := func(root int) {
				key := fmt.Sprintf("pin%d-%d", round, root)
				ids = append(ids, r.invoke(key, durcheck.Effect{Root: root, Key: key, Val: key}))
				tks = append(tks, asyncOne(s, ms[root], key, key))
			}
			queueLed(s)
			submit(round % roots)
			fired := false
			r.p.onWrite = func(pmem.Addr) {
				if !fired {
					fired = true
					submit((round + 1) % roots)
					submit((round + 2) % roots)
				}
			}
			before := s.dev.Stats().Fences
			q := &s.sh.queue
			q.mu.Lock()
			s.release()
			r.p.onWrite = nil
			if f := s.dev.Stats().Fences - before; f != 1 {
				e.t.Fatalf("pinned round %d paid %d fences, want 1: nothing was absorbed", round, f)
			}
			for i, tk := range tks {
				mxWait(e.t, tk)
				r.respond(ids[i], true)
			}
		}
		r.p.mu.Lock()
		r.p.every = 3
		r.p.mu.Unlock()
		done := make(chan struct{})
		for w := 0; w < writers; w++ {
			h := s.Fork()
			hm := make([]*Map, roots)
			for i := range hm {
				hm[i], _ = h.Map(fmt.Sprintf("r%d", i))
			}
			go func(w int) {
				defer func() { done <- struct{}{} }()
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("w%d-%d", w, i)
					root := w % roots
					if w == writers-1 {
						root = i % roots // the shared writer
					}
					r.durable(key, []durcheck.Effect{{Root: root, Key: key, Val: key}}, func() {
						mxWait(e.t, asyncOne(h, hm[root], key, key))
					})
				}
			}(w)
		}
		for w := 0; w < writers; w++ {
			<-done
		}
	}
	h.run(t)
}

// plantWildChild overwrites the first child reference in the root trie
// node of the map bound to name with one past the arena and re-stamps the
// node's checksum over it, as TestWildReferenceIsCorruptionNotPanic does:
// every update of the map then meets the damage.
func plantWildChild(t *testing.T, s *Store, name string) {
	t.Helper()
	slot, node := firstChildSlot(t, s, name)
	n, _, _ := s.heap.Checksum(node)
	s.dev.WriteU32(slot, ^uint32(0))
	s.heap.SetChecksum(node, n)
}

// resolvesWithin waits for tk up to d and reports whether it resolved.
func resolvesWithin(tk *Ticket, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		tk.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// TestPanickingRoundLeavesQueueServing: a round whose op meets a damaged
// node (a wild child reference in a map's root node) answers that
// submission with the corruption — its submitter sees the typed panic or
// ErrCorrupted — and leaves the queue serving: its roots unlocked, its
// FASE closed, leadership released. A later CommitAsync on a healthy root
// resolves; so do the round's other submissions, queued again for the
// next round, and an enrolled Basic update meeting the damage raises the
// typed panic on its own goroutine.
func TestPanickingRoundLeavesQueueServing(t *testing.T) {
	build := func(t *testing.T) (*Store, *Map, *Map, *Map) {
		cfg := pmem.DefaultConfig(4 << 20)
		db, _, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if !t.Failed() { // Close would wait forever on a wedged queue
				db.Close()
			}
		})
		s := db.Store()
		bad, _ := s.Map("bad")
		for i := 0; i < 300; i++ {
			bad.Set([]byte(fmt.Sprintf("key-%08d", i)), []byte("v"))
		}
		ok1, _ := s.Map("ok1")
		ok2, _ := s.Map("ok2")
		s.Sync()
		plantWildChild(t, s, "bad")
		return s, bad, ok1, ok2
	}
	corrupted := func(t *testing.T, tk *Ticket) {
		t.Helper()
		if !resolvesWithin(tk, 3*time.Second) {
			t.Fatal("the damaged submission's ticket never resolved")
		}
		var cp *alloc.CorruptionPanic
		if err := tk.Err(); !errors.Is(err, ErrCorrupted) || !errors.As(err, &cp) {
			t.Fatalf("the damaged submission resolved with %v, want a corruption error", err)
		}
	}
	healthy := func(t *testing.T, s *Store, m *Map, k string) {
		t.Helper()
		tk := asyncOne(s, m, k, k)
		if !resolvesWithin(tk, 3*time.Second) {
			t.Fatal("a CommitAsync on a healthy root never resolved after a round panicked: the queue is wedged")
		}
		if err := tk.Err(); err != nil {
			t.Fatal(err)
		}
		if v, ok := m.Get([]byte(k)); !ok || string(v) != k {
			t.Fatalf("%s reads %q, %v after its ack", k, v, ok)
		}
	}

	t.Run("leader", func(t *testing.T) {
		s, bad, ok1, _ := build(t)
		var tk *Ticket
		if raised := raisesCorruption(func() { tk = asyncOne(s, bad, "k", "v") }); !raised {
			corrupted(t, tk)
		}
		healthy(t, s, ok1, "after")
	})
	t.Run("round", func(t *testing.T) {
		s, bad, ok1, ok2 := build(t)
		queueLed(s)
		t1 := asyncOne(s, ok1, "before", "before")
		tBad := asyncOne(s, bad, "k", "v")
		t2 := asyncOne(s, ok2, "with", "with")
		var fences uint64
		if raisesCorruption(func() { fences = leadRound(s, func() {}) }) {
			t.Error("the leader raised the corruption of a submission it answered")
		}
		corrupted(t, tBad)
		for _, tk := range []*Ticket{t1, t2} {
			if tk.Wait(); tk.Err() != nil {
				t.Fatalf("a submission sharing the damaged one's round: %v", tk.Err())
			}
		}
		if fences != 1 {
			t.Fatalf("%d fences, want 1: the round again, without the damaged submission", fences)
		}
		for _, kv := range []struct {
			m *Map
			k string
		}{{ok1, "before"}, {ok2, "with"}} {
			if v, ok := kv.m.Get([]byte(kv.k)); !ok || string(v) != kv.k {
				t.Fatalf("%s reads %q, %v", kv.k, v, ok)
			}
		}
		healthy(t, s, ok1, "after")
	})
	t.Run("basic", func(t *testing.T) {
		s, bad, ok1, _ := build(t)
		queueLed(s)
		raised := make(chan bool, 1)
		go func() { raised <- raisesCorruption(func() { bad.Set([]byte("k"), []byte("v")) }) }()
		q := &s.sh.queue
		for {
			q.mu.Lock()
			n := len(q.pending)
			q.mu.Unlock()
			if n > 0 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		if raisesCorruption(func() { leadRound(s, func() {}) }) {
			t.Error("the leader raised the corruption of a submission it answered")
		}
		select {
		case r := <-raised:
			if !r {
				t.Fatal("an enrolled Basic update over a damaged node returned without the typed panic")
			}
		case <-time.After(3 * time.Second):
			t.Fatal("an enrolled Basic update over a damaged node never returned")
		}
		healthy(t, s, ok1, "after")
	})
}
