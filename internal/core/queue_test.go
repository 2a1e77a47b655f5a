package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/pmem"
)

// Tests for the commit queue (batch.go): leadership is never released
// with work queued, and every ticket resolves durable or refused, under
// every kind of submission at once.

// TestLeaderDrainsArrivalsBeforeSteppingDown replays the interleaving that
// strands a ticket if a leader steps down without draining: goroutine A
// leads the round of its own batch, which spans two roots of a selective
// store and stages them as one group with digests, and is inside that
// round's fence, still leading, when B submits. B's CommitAsync returns at
// once with its batch queued behind A; A must publish it before it steps
// down, so B's ticket resolves with no call by anyone but A. B's batch,
// on one root of the same store, is that root's second record, so its
// round folds a checkpoint, whose sealed crown rides the round's fence;
// its member carries no digest, so the round fences once more after its
// swap before the ticket resolves.
//
// It is a checker history with a named schedule: the fence hook parks A,
// and every PM write of both rounds is a cut.
func TestLeaderDrainsArrivalsBeforeSteppingDown(t *testing.T) {
	h := &crashHist{roots: []histRoot{
		{name: "m", sel: true, bind: mxBind((*Store).Map, mxMapOps)},
		{name: "n", sel: true, bind: mxBind((*Store).Map, mxMapOps)},
	}}
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		dev := s.Device()
		a := s.Fork()
		am, _ := a.Map("m")
		an, _ := a.Map("n")
		ab := a.NewBatch()
		ab.MapSet(am, []byte("a"), []byte("1"))
		ab.MapSet(an, []byte("a"), []byte("1"))
		m, _ := s.Map("m") // bound before A's round holds the root

		// Park A inside its round's fence until resume is closed.
		parked, resume := make(chan struct{}), make(chan struct{})
		fences := 0
		r.p.onFence = func(int) {
			if fences++; fences == 1 {
				close(parked)
				<-resume
			}
		}
		before := dev.Stats().Fences
		var ta *Ticket
		aDone := make(chan struct{})
		ia := r.invoke("a", durcheck.Effect{Root: 0, Key: "a", Val: "1"}, durcheck.Effect{Root: 1, Key: "a", Val: "1"})
		go func() {
			defer close(aDone)
			ta = ab.CommitAsync() // an idle queue: A leads its own round
		}()
		select {
		case <-parked:
		case <-time.After(30 * time.Second):
			e.t.Fatal("A's round never fenced")
		}
		if !s.sh.queue.leading.Load() {
			e.t.Fatal("A fenced its round after stepping down")
		}

		bb := s.NewBatch()
		bb.MapSet(m, []byte("b"), []byte("2"))
		ib := r.invoke("b", durcheck.Effect{Root: 0, Key: "b", Val: "2"})
		tb := bb.CommitAsync()
		if tb.Done() {
			e.t.Fatal("B's batch resolved while A led the queue from inside its fence")
		}
		close(resume)
		select {
		case <-aDone:
		case <-time.After(30 * time.Second):
			e.t.Fatal("A never stepped down")
		}
		if !ta.Done() || ta.Err() != nil {
			e.t.Fatalf("A's ticket after its CommitAsync returned: durable %v, err %v", ta.Done(), ta.Err())
		}
		r.respond(ia, true)
		if !tb.Done() {
			e.t.Fatal("A stepped down without publishing the batch B queued behind it: B's ticket is stranded")
		}
		if f := dev.Stats().Fences - before; f != 3 {
			e.t.Fatalf("%d fences, want 3: A's round; B's round, which folds a checkpoint, and the fence after its swap", f)
		}
		mxWait(e.t, tb)
		r.respond(ib, true)
	}
	h.run(t)
}

// TestCommitQueueStress races every kind of submission on one store, for
// -race: three CommitAsync producers on their own roots — every fourth
// batch also writes the shared hot root, so it spans two roots and its
// round stages a group with digests — two Basic writers contending on the
// hot root (so they enroll on the queue), Sync and Close racing them, and a
// goroutine that Waits on every producer's tickets too. Every ticket must
// resolve, for both of its waiters — ErrStoreClosed only once Close has
// begun — a fenced-only image a producer takes right after one Wait
// returns, with no fence of its own, must hold that producer's batches up
// to it, and a fenced-only image taken after Close must hold every
// acknowledged batch and every Basic write that returned before Close
// began. WithCommitterLinger is a no-op kept for callers; the subtest
// passes it so the store under test is the one such a caller opens.
func TestCommitQueueStress(t *testing.T) {
	t.Run("linger=0s", func(t *testing.T) { commitQueueStress(t, WithCommitterLinger(0)) })
}

func commitQueueStress(t *testing.T, extra ...Option) {
	const (
		producers   = 3
		writers     = 2
		perProducer = 150
		perWriter   = 400
	)
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	db, _, err := Open(cfg, append([]Option{WithDevices(dev), WithCommitter(8)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	s := db.Store()
	roots := []string{"hot"}
	for p := 0; p < producers; p++ {
		roots = append(roots, fmt.Sprintf("p%d", p))
	}
	for _, r := range roots {
		if _, err := s.Map(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Sync()

	var (
		closing     atomic.Bool // set before Close is called
		acks        atomic.Int64
		enough      = make(chan struct{})
		wg          sync.WaitGroup
		producersWG sync.WaitGroup
		foreign     = make(chan *Ticket, producers*perProducer) // every producer ticket, for the other waiter
		acked       = make([][][2]string, producers+writers)    // (root, key) per goroutine
		ackImages   = make([][]byte, producers)                 // producer p's image right after an ack
		ackedAt     = make([]int, producers)                    // how many of its writes that image must hold
	)
	// Handles are forked and bound up front: a bind racing Close fails.
	bound := func(root string) (*Store, *Map) {
		h := s.Fork()
		m, err := h.Map(root)
		if err != nil {
			t.Fatal(err)
		}
		return h, m
	}
	for p := 0; p < producers; p++ {
		root := fmt.Sprintf("p%d", p)
		h, m := bound(root)
		hot, err := h.Map("hot")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		producersWG.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersWG.Done()
			for i := 0; i < perProducer; i++ {
				k := fmt.Sprintf("%s-%d", root, i)
				b := h.NewBatch()
				b.MapSet(m, []byte(k), []byte(k))
				writes := [][2]string{{root, k}}
				if i%4 == 3 {
					b.MapSet(hot, []byte(k), []byte(k))
					writes = append(writes, [2]string{"hot", k})
				}
				tk := b.CommitAsync()
				foreign <- tk
				tk.Wait()
				if err := tk.Err(); err != nil {
					if !errors.Is(err, ErrStoreClosed) || !closing.Load() {
						t.Errorf("%s: ticket error %v before Close began", k, err)
					}
					return
				}
				if !tk.Done() {
					t.Errorf("%s: Wait returned before its ticket resolved", k)
					return
				}
				acked[p] = append(acked[p], writes...)
				if i == perProducer/4 {
					ackImages[p], ackedAt[p] = dev.CrashImage(pmem.CrashFencedOnly, uint64(p)), len(acked[p])
				}
				if acks.Add(1) == producers*perProducer/2 {
					close(enough)
				}
			}
		}(p)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for tk := range foreign {
			tk.Wait()
			if err := tk.Err(); !tk.Done() || err != nil && (!errors.Is(err, ErrStoreClosed) || !closing.Load()) {
				t.Errorf("a ticket Waited on by another goroutine: done %v, err %v", tk.Done(), err)
			}
		}
	}()
	for w := 0; w < writers; w++ {
		_, m := bound("hot")
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter && !closing.Load(); i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				m.Set([]byte(k), []byte(k))
				if !closing.Load() { // returned before Close began: Close's fence covers it
					acked[producers+w] = append(acked[producers+w], [2]string{"hot", k})
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := s.Fork()
		for !closing.Load() {
			h.Sync()
		}
	}()
	producersDone := make(chan struct{})
	go func() {
		producersWG.Wait()
		close(foreign)
		close(producersDone)
	}()
	select {
	case <-enough:
	case <-producersDone:
	}
	closing.Store(true)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	allDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(allDone)
	}()
	select {
	case <-allDone:
	case <-time.After(2 * time.Minute):
		t.Fatal("a submitter or waiter never returned: a ticket or an enrolled op was stranded")
	}
	if t.Failed() {
		return
	}

	check := func(what string, img []byte, writes [][2]string) {
		t.Helper()
		s2, _, err := openStore(pmem.NewFromImage(cfg, img))
		if err != nil {
			t.Fatal(err)
		}
		maps := map[string]*Map{}
		for _, r := range roots {
			if maps[r], err = s2.Map(r); err != nil {
				t.Fatal(err)
			}
		}
		for _, rk := range writes {
			if v, ok := maps[rk[0]].Get([]byte(rk[1])); !ok || string(v) != rk[1] {
				t.Fatalf("%s on %s acknowledged before %s, lost in it (%q, %v)", rk[1], rk[0], what, v, ok)
			}
		}
	}
	if acks.Load() == 0 {
		t.Fatal("no batch was acknowledged before Close")
	}
	var all [][2]string
	for _, writes := range acked {
		all = append(all, writes...)
	}
	check("Close", dev.CrashImage(pmem.CrashFencedOnly, 1), all)
	for p, img := range ackImages {
		if img != nil { // nil: closed before this producer got that far
			check("an image taken right after its Wait", img, acked[p][:ackedAt[p]])
		}
	}
}
