package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Tests for the two-tier commit path (optimistic.go): the typed
// concurrent-writer error, race-detector coverage of mixed Basic/Batch
// traffic on one root with exact fence accounting, and a checker history
// over both commit tiers' publication windows.

// TestErrConcurrentWriterTyped pins the Composition-interface contract:
// a commit whose base version went stale returns a wrapped
// ErrConcurrentWriter (errors.Is-able, not a panic), publishes nothing,
// and a rebound handle can rebuild and retry successfully.
func TestErrConcurrentWriterTyped(t *testing.T) {
	s := newTestStore(t)
	m, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	m.Set([]byte("k0"), []byte("v0"))

	s.BeginFASE()
	shadow, _ := m.PureSet([]byte("stale"), []byte("never-committed"))

	// A second logical writer moves the root between Pure* and Commit*.
	other := s.Fork()
	om, err := other.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	om.Set([]byte("intruder"), []byte("vi"))

	err = s.CommitSingle(m, shadow)
	s.EndFASE()
	if err == nil {
		t.Fatal("CommitSingle with a stale base succeeded, want ErrConcurrentWriter")
	}
	if !errors.Is(err, ErrConcurrentWriter) {
		t.Fatalf("errors.Is(err, ErrConcurrentWriter) = false for %v", err)
	}
	if _, ok := m.Get([]byte("stale")); ok {
		t.Fatal("failed commit leaked its shadow into the committed state")
	}
	if _, ok := m.Get([]byte("intruder")); !ok {
		t.Fatal("interfering writer's committed update lost")
	}

	// Recovery recipe from the error docs: rebind (adopting the current
	// committed version), rebuild the shadow, retry.
	m2, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	s.BeginFASE()
	shadow2, _ := m2.PureSet([]byte("stale"), []byte("retried"))
	if err := s.CommitSingle(m2, shadow2); err != nil {
		t.Fatalf("retry after rebind failed: %v", err)
	}
	s.EndFASE()
	if got, ok := m2.Get([]byte("stale")); !ok || string(got) != "retried" {
		t.Fatalf("retried commit not visible: %q, %v", got, ok)
	}
}

func subCommitStats(a, b CommitStats) CommitStats {
	return CommitStats{
		FastWins:       a.FastWins - b.FastWins,
		FastAborts:     a.FastAborts - b.FastAborts,
		FastLosses:     a.FastLosses - b.FastLosses,
		Combines:       a.Combines - b.Combines,
		CombineRetries: a.CombineRetries - b.CombineRetries,
		CombinedOps:    a.CombinedOps - b.CombinedOps,
		LockedCommits:  a.LockedCommits - b.LockedCommits,
	}
}

// TestConcurrentRootHammerFenceAccounting drives G goroutines at ONE
// shared map root through both write interfaces at once — Basic Sets
// (two-tier commit path) interleaved with explicit Batches (locked
// group-commit path) — and checks, exactly:
//
//   - no update is lost: every key written by any goroutine is present
//     with its last-written value (keys are per-goroutine, so last
//     writer is well defined);
//   - every Basic op committed through exactly one tier:
//     FastWins + CombinedOps + LockedCommits == total Basic ops;
//   - the device fence count equals the sum of paid-for ordering
//     points: one per CAS win, one per post-fence CAS loss, one per
//     combining round (a combined commit fences ONCE for all its ops,
//     and holding the root's mutex it never loses and re-applies), one
//     per locked commit, and one per batch. Pre-fence aborts are free by
//     construction.
//
// Run under -race this is also the data-race certificate for the
// lock-free publication path.
func TestConcurrentRootHammerFenceAccounting(t *testing.T) {
	const (
		G  = 8  // goroutines
		M  = 40 // Basic Sets per goroutine
		B  = 6  // batches per goroutine
		BO = 4  // ops per batch
	)
	s := newTestStore(t)
	m, err := s.Map("hammer")
	if err != nil {
		t.Fatal(err)
	}
	s.Sync()
	dev := s.Device()
	statsBase := dev.Stats()
	commitBase := s.CommitStats()

	bkey := func(g, i int) []byte { return []byte(fmt.Sprintf("g%02d-basic-%04d", g, i)) }
	bval := func(g, i int) []byte { return []byte(fmt.Sprintf("bv-%02d-%04d", g, i)) }
	tkey := func(g, b, j int) []byte { return []byte(fmt.Sprintf("g%02d-batch-%02d-%02d", g, b, j)) }
	tval := func(g, b, j int) []byte { return []byte(fmt.Sprintf("tv-%02d-%02d-%02d", g, b, j)) }

	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st := s.Fork()
			hm, err := st.Map("hammer")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < M; i++ {
				hm.Set(bkey(g, i), bval(g, i))
				// Overwrite the same key once in three to exercise
				// last-writer-wins on replacement, not just insertion.
				if i%3 == 0 {
					hm.Set(bkey(g, i), bval(g, i+1000))
				}
			}
			for b := 0; b < B; b++ {
				bt := st.NewBatch()
				for j := 0; j < BO; j++ {
					bt.MapSet(hm, tkey(g, b, j), tval(g, b, j))
				}
				bt.Commit()
			}
		}(g)
	}
	wg.Wait()

	delta := dev.Stats().Sub(statsBase)
	cs := subCommitStats(s.CommitStats(), commitBase)
	basicOps := uint64(G * (M + M/3 + 1)) // +1: i=0,3,...,39 is 14 overwrites per goroutine
	// Recompute exactly rather than trusting the comment arithmetic.
	basicOps = 0
	for i := 0; i < M; i++ {
		basicOps++
		if i%3 == 0 {
			basicOps++
		}
	}
	basicOps *= G

	if got := cs.FastWins + cs.CombinedOps + cs.LockedCommits; got != basicOps {
		t.Fatalf("commit tiers account for %d Basic ops (wins %d + combined %d + locked %d), want %d",
			got, cs.FastWins, cs.CombinedOps, cs.LockedCommits, basicOps)
	}
	wantFences := cs.FastWins + cs.FastLosses + cs.Combines + cs.LockedCommits + uint64(G*B)
	if delta.Fences != wantFences {
		t.Fatalf("device fences = %d, want %d (wins %d + losses %d + combines %d + locked %d + batches %d); aborts %d should be fence-free",
			delta.Fences, wantFences, cs.FastWins, cs.FastLosses, cs.Combines,
			cs.LockedCommits, G*B, cs.FastAborts)
	}
	if cs.CombineRetries != 0 {
		t.Fatalf("CombineRetries = %d: a combining round holds the root's mutex and cannot lose its publication", cs.CombineRetries)
	}

	for g := 0; g < G; g++ {
		for i := 0; i < M; i++ {
			want := bval(g, i)
			if i%3 == 0 {
				want = bval(g, i+1000)
			}
			if got, ok := m.Get(bkey(g, i)); !ok || string(got) != string(want) {
				t.Fatalf("g%d basic key %d: got %q, %v; want %q", g, i, got, ok, want)
			}
		}
		for b := 0; b < B; b++ {
			for j := 0; j < BO; j++ {
				if got, ok := m.Get(tkey(g, b, j)); !ok || string(got) != string(tval(g, b, j)) {
					t.Fatalf("g%d batch %d op %d: got %q, %v", g, b, j, got, ok)
				}
			}
		}
	}
	s.Sync()
}

// tierBuild opens a fresh store with mxPrefix committed entries in a
// map, synced, so device stats taken afterwards count only what follows.
func tierBuild(t *testing.T) (*pmem.Device, *Store, *Map) {
	t.Helper()
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, err := s.Map("tier")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mxPrefix; i++ {
		m.Set(mxMapKey(i), mxMapVal(i))
	}
	s.Sync()
	return dev, s, m
}

// enrollSets queues Sets of map-row ops [from, to) on the store's commit
// queue, as update would for writers that lost the CAS, and holds the
// queue's leadership so that nobody drains them until runCombiner.
func enrollSets(s *Store, m *Map, from, to int) []*Ticket {
	q := &s.sh.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.leading.Swap(true) {
		panic("enrollSets: the commit queue already has a leader")
	}
	var tickets []*Ticket
	for i := from; i < to; i++ {
		k, v := mxMapKey(i), mxMapVal(i)
		t := &Ticket{done: make(chan struct{})}
		q.pending = append(q.pending, submission{ticket: t, kind: subBasic, ops: []batchOp{{ds: m, apply: mapSet(k, v, nil)}}})
		tickets = append(tickets, t)
	}
	return tickets
}

// runCombiner steps down from the leadership enrollSets took, which
// drains the queue.
func runCombiner(s *Store) {
	s.sh.queue.mu.Lock()
	s.release()
}

// TestCombinerWaitsForLockPath pins a combining round to the locked
// publication: a round whose root is held by a lock-path commit builds
// nothing — not one PM write, let alone a fence it might then waste —
// until the lock is released, and then publishes every enrolled op under
// exactly one fence.
func TestCombinerWaitsForLockPath(t *testing.T) {
	dev, s, m := tierBuild(t)
	const n = 5
	tickets := enrollSets(s, m, mxPrefix, mxPrefix+n)
	base := dev.Stats()

	mu := &s.sh.rootMu[m.loc.slot]
	mu.Lock()
	w := s.Fork()
	done := make(chan struct{})
	go func() {
		defer close(done)
		runCombiner(w)
	}()
	// Wait for the round to have cut the queue: from there the parent
	// commit went straight on to build and fence.
	q := &s.sh.queue
	for drained := false; !drained; runtime.Gosched() {
		q.mu.Lock()
		drained = len(q.pending) == 0
		q.mu.Unlock()
	}
	for i := 0; i < 200; i++ {
		runtime.Gosched()
	}
	held := dev.Stats().Sub(base)
	for _, tk := range tickets {
		if tk.Done() {
			t.Error("ticket resolved while the root's commit mutex was held")
		}
	}
	mu.Unlock()
	<-done
	if held.Writes != 0 || held.Fences != 0 {
		t.Fatalf("combining round made %d PM writes and %d fences while a lock-path commit held the root", held.Writes, held.Fences)
	}

	if d := dev.Stats().Sub(base); d.Fences != 1 {
		t.Fatalf("combining round of %d ops paid %d fences, want 1", n, d.Fences)
	}
	for _, tk := range tickets {
		if !tk.Done() {
			t.Fatal("the leader stepped down with an unpublished enrolled op")
		}
	}
	if q.leading.Load() {
		t.Fatal("the queue still has a leader after the round")
	}
	for i := mxPrefix; i < mxPrefix+n; i++ {
		if v, ok := m.Get(mxMapKey(i)); !ok || string(v) != string(mxMapVal(i)) {
			t.Fatalf("enrolled op %d not published: %q, %v", i, v, ok)
		}
	}
	if cs := s.CommitStats(); cs.Combines != 1 || cs.CombinedOps != n || cs.CombineRetries != 0 {
		t.Fatalf("commit stats after one round of %d: %+v", n, cs)
	}
}

// TestCrashMatrixCommitTiers is a checker history over both commit
// tiers' publication windows, crashed at every PM write under every
// crash policy: mxProbe uncontended Basic Sets, each its own tier-1 CAS
// and its own op, which may recover as any per-op prefix; or the same
// Sets enrolled on the commit queue and drained by one leader, one op
// whose single root write publishes the whole merged version, so it is
// all or nothing. The -sel rows run a selective map checkpointing every
// 2 records, so the combined round folds a checkpoint: its sealed crown
// and clone ride the round's one fence, every write of which is a cut.
// Each window pays its tier's ordering points, a fold none more.
func TestCrashMatrixCommitTiers(t *testing.T) {
	for _, tier := range []struct {
		name                string
		selective, combined bool
		fences              uint64
	}{
		{"fastpath", false, false, mxProbe},
		{"combined", false, true, 1},
		// Prefix of 3 leaves one record on the chain: per-op Sets fold at
		// the first and third (one fence each, as every Set), the round
		// folds its three at once.
		{"fastpath-sel", true, false, mxProbe},
		{"combined-sel", true, true, 1},
	} {
		t.Run(tier.name, func(t *testing.T) {
			h := &crashHist{roots: []histRoot{{name: "tier", sel: tier.selective, bind: mxBind((*Store).Map, mxMapOps)}}}
			var m *Map
			h.setup = func(e *histEnv) {
				for i := 0; i < mxPrefix; i++ {
					e.ops[0].basic(i)
				}
				m, _ = e.db.Store().Map("tier")
			}
			h.window = func(e *histEnv, r *histRec) {
				s := e.db.Store()
				base := s.Device().Stats()
				if tier.combined {
					r.do("round", e.effs(0, mxPrefix, mxPrefix+mxProbe), func() {
						tickets := enrollSets(s, m, mxPrefix, mxPrefix+mxProbe)
						runCombiner(s)
						for _, tk := range tickets {
							if !tk.Done() {
								e.t.Error("the leader stepped down with an unpublished enrolled op")
							}
						}
					})
				} else {
					for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
						r.do(fmt.Sprint("set", i), e.effs(0, i, i+1), func() { e.ops[0].basic(i) })
					}
				}
				if f := s.Device().Stats().Sub(base).Fences; f != tier.fences {
					e.t.Errorf("the window paid %d fences, want %d", f, tier.fences)
				}
			}
			h.run(t)
		})
	}
}
