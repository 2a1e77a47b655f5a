package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/pmem"
)

// Tests for the commit queue (batch.go): leadership is never released
// with work queued, and every ticket resolves durable or refused, under
// every kind of submission at once.

// published reports whether a round has published t's batch.
func published(t *Ticket) bool {
	select {
	case <-t.pub:
		return true
	default:
		return false
	}
}

// fenceGate parks the first fence after it is armed inside its tracer
// hook — the fence done, its caller not yet resumed — until resume is
// closed.
type fenceGate struct {
	*pmem.CrashCountdown // its Write and Fence are shadowed, so it only supplies the other, empty hooks
	armed                atomic.Bool
	parked, resume       chan struct{}
}

func (g *fenceGate) Write(pmem.Addr, int) {}

func (g *fenceGate) Fence(int) {
	if g.armed.CompareAndSwap(true, false) {
		close(g.parked)
		<-g.resume
	}
}

// TestSettleLeaderDrainsArrivals replays the interleaving that strands a
// ticket if a leader steps down without draining: goroutine A settles its
// own ticket and is inside its settling fence, leading the queue, when B
// submits. B's CommitAsync returns at once with its batch queued behind
// A; A must publish it before it steps down, so B's ticket resolves with
// no call by anyone but B's own Wait. A's batch spans two roots, the
// submission a round publishes through the batch record and Wait settles;
// B's is on one root, durable at its own round's fence.
func TestSettleLeaderDrainsArrivals(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(4 << 20))
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.Map("m")
	s.Map("n")
	armStaging(s)
	s.Sync()

	a := s.Fork()
	am, _ := a.Map("m")
	an, _ := a.Map("n")
	ab := a.NewBatch()
	ab.MapSet(am, []byte("a"), []byte("1"))
	ab.MapSet(an, []byte("a"), []byte("1"))
	ta := ab.CommitAsync() // an idle queue: A leads its own round
	if !published(ta) || ta.Done() {
		t.Fatalf("A's ticket after leading its round: published %v, durable %v; want published, not durable", published(ta), ta.Done())
	}

	gate := &fenceGate{
		CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0),
		parked:         make(chan struct{}),
		resume:         make(chan struct{}),
	}
	gate.armed.Store(true)
	dev.SetTracer(gate)
	defer dev.SetTracer(nil)
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		ta.Wait()
	}()
	<-gate.parked // A leads the queue, inside its settling fence

	bb := s.NewBatch()
	bb.MapSet(m, []byte("b"), []byte("2"))
	tb := bb.CommitAsync()
	if published(tb) {
		t.Fatal("B's batch was published while A led the queue from inside its fence")
	}
	close(gate.resume)
	select {
	case <-aDone:
	case <-time.After(30 * time.Second):
		t.Fatal("A never returned from its settle")
	}
	if !ta.Done() {
		t.Fatal("A's Wait returned before a fence covered its batch")
	}
	if !published(tb) {
		t.Fatal("A stepped down without publishing the batch B queued behind it: B's ticket is stranded")
	}
	if !tb.Done() {
		t.Fatal("B's one-root batch is published but its own round's fence did not make it durable")
	}
	bDone := make(chan struct{})
	go func() {
		defer close(bDone)
		tb.Wait()
	}()
	select {
	case <-bDone:
	case <-time.After(30 * time.Second):
		t.Fatal("B's ticket never resolved")
	}
	if !tb.Done() || tb.Err() != nil {
		t.Fatalf("B's ticket: durable %v, err %v", tb.Done(), tb.Err())
	}
	if v, ok := m.Get([]byte("b")); !ok || string(v) != "2" {
		t.Fatalf("B's batch reads %q, %v", v, ok)
	}
}

// TestCommitQueueStress races every kind of submission on one store, for
// -race: three CommitAsync+Wait producers on their own roots, two Basic
// writers contending on one root (so they enroll on the queue), and Sync
// and Close racing them, with and without a settle linger. Every ticket
// must resolve — ErrStoreClosed only once Close has begun — a ticket
// whose Wait returns nil must be fence-covered (Done, FenceSeq past its
// tag), a fenced-only image a producer takes right after one Wait
// returns, with no fence of its own, must hold that producer's batches up
// to it (a one-root ack is durable at its round's fence), and a
// fenced-only image taken after Close must hold every acknowledged batch
// and every Basic write that returned before Close began.
func TestCommitQueueStress(t *testing.T) {
	for _, linger := range []time.Duration{0, 20 * time.Microsecond} {
		t.Run(fmt.Sprintf("linger=%v", linger), func(t *testing.T) { runQueueStress(t, linger) })
	}
}

func runQueueStress(t *testing.T, linger time.Duration) {
	const (
		producers   = 3
		writers     = 2
		perProducer = 150
		perWriter   = 400
	)
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	db, _, err := Open(cfg, WithDevices(dev), WithCommitter(8), WithCommitterLinger(linger))
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
		acked       = make([][][2]string, producers+writers) // (root, key) per goroutine
		ackImages   = make([][]byte, producers)              // producer p's image right after an ack
		ackedAt     = make([]int, producers)                 // how many of its batches that image must hold
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
		wg.Add(1)
		producersWG.Add(1)
		go func(p int) {
			defer wg.Done()
			defer producersWG.Done()
			for i := 0; i < perProducer; i++ {
				k := fmt.Sprintf("%s-%d", root, i)
				b := h.NewBatch()
				b.MapSet(m, []byte(k), []byte(k))
				tk := b.CommitAsync()
				tk.Wait()
				if err := tk.Err(); err != nil {
					if !errors.Is(err, ErrStoreClosed) || !closing.Load() {
						t.Errorf("%s: ticket error %v before Close began", k, err)
					}
					return
				}
				if !tk.Done() || h.Device().FenceSeq() <= tk.tag {
					t.Errorf("%s: Wait returned with FenceSeq %d, tag %d", k, h.Device().FenceSeq(), tk.tag)
					return
				}
				acked[p] = append(acked[p], [2]string{root, k})
				if i == perProducer/4 {
					ackImages[p], ackedAt[p] = dev.CrashImage(pmem.CrashFencedOnly, uint64(p)), len(acked[p])
				}
				if acks.Add(1) == producers*perProducer/2 {
					close(enough)
				}
			}
		}(p)
	}
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
		t.Fatal("a submitter never returned: a ticket or an enrolled op was stranded")
	}
	if t.Failed() {
		return
	}

	s2, _, err := openStore(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	maps := map[string]*Map{}
	for _, r := range roots {
		if maps[r], err = s2.Map(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, keys := range acked {
		for _, rk := range keys {
			if v, ok := maps[rk[0]].Get([]byte(rk[1])); !ok || string(v) != rk[1] {
				t.Fatalf("%s on %s acknowledged before Close, lost after it (%q, %v)", rk[1], rk[0], v, ok)
			}
		}
	}
	if acks.Load() == 0 {
		t.Fatal("no batch was acknowledged before Close")
	}
	for p, img := range ackImages {
		if img == nil {
			continue // closed before this producer got that far
		}
		s3, _, err := openStore(pmem.NewFromImage(cfg, img))
		if err != nil {
			t.Fatal(err)
		}
		m, err := s3.Map(fmt.Sprintf("p%d", p))
		if err != nil {
			t.Fatal(err)
		}
		for _, rk := range acked[p][:ackedAt[p]] {
			if v, ok := m.Get([]byte(rk[1])); !ok || string(v) != rk[1] {
				t.Fatalf("%s acknowledged before an image taken right after its Wait, lost in it (%q, %v)", rk[1], v, ok)
			}
		}
	}
}
