package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/pmem"
)

// TestConcurrentSnapshotsDuringCommits is the headline concurrency test:
// four reader goroutines continuously snapshot a map while one writer
// commits over a thousand FASEs. Snapshots must always observe a fully
// committed version — every preloaded key present, values never torn —
// and the run must be race-clean under -race.
func TestConcurrentSnapshotsDuringCommits(t *testing.T) {
	const (
		readers  = 4
		commits  = 1200
		preload  = 64
		perCheck = 8
	)
	s := newTestStore(t)
	m, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < preload; i++ {
		m.Set(key64(i), key64(i*3))
	}
	s.Sync()

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		snapshot atomic.Int64 // snapshots taken, for the log line
		errs     = make(chan error, readers+1)
	)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			st := s.Fork()
			rm, err := st.Map("m")
			if err != nil {
				errs <- err
				return
			}
			var k uint64
			for !stop.Load() {
				snap := rm.Snapshot()
				if n := snap.Len(); n < preload {
					snap.Close()
					errs <- fmt.Errorf("reader %d: snapshot len %d < preload %d", r, n, preload)
					return
				}
				for j := 0; j < perCheck; j++ {
					k = (k + 7) % preload
					v, ok := snap.Get(key64(k))
					if !ok {
						snap.Close()
						errs <- fmt.Errorf("reader %d: preloaded key %d missing", r, k)
						return
					}
					// Preloaded keys are never overwritten by the writer
					// (it writes keys >= preload), so the value must be
					// exactly the preloaded one in every version.
					if len(v) != 8 {
						snap.Close()
						errs <- fmt.Errorf("reader %d: torn value for key %d: %x", r, k, v)
						return
					}
				}
				snap.Close()
				snapshot.Add(1)
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		st := s.Fork()
		wm, err := st.Map("m")
		if err != nil {
			errs <- err
			return
		}
		for i := uint64(0); i < commits; i++ {
			wm.Set(key64(preload+i%512), key64(i))
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	t.Logf("%d snapshots observed across %d commits", snapshot.Load(), commits)

	// After the storm: all preloaded keys intact, retired versions
	// reclaimable once the readers have unpinned.
	s.Sync()
	for i := uint64(0); i < preload; i++ {
		if _, ok := m.Get(key64(i)); !ok {
			t.Fatalf("preloaded key %d lost", i)
		}
	}
	if q := s.Heap().Stats().Quarantine; q != 0 {
		t.Fatalf("Quarantine = %d after Sync with no pinned readers, want 0", q)
	}
}

// TestParallelWritersDistinctRoots checks that writers to different roots
// commit in parallel without corrupting each other: every written key is
// present afterwards and the heap's view survives recovery.
func TestParallelWritersDistinctRoots(t *testing.T) {
	const (
		writers = 4
		ops     = 300
	)
	s := newTestStore(t)
	// Bind all roots up front so the test exercises commits, not binds.
	for w := 0; w < writers; w++ {
		if _, err := s.Map(fmt.Sprintf("root-%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := s.Fork()
			m, err := st.Map(fmt.Sprintf("root-%d", w))
			if err != nil {
				errs <- err
				return
			}
			for i := uint64(0); i < ops; i++ {
				m.Set(key64(i), key64(uint64(w)<<32|i))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Sync()
	for w := 0; w < writers; w++ {
		m, _ := s.Map(fmt.Sprintf("root-%d", w))
		if m.Len() != ops {
			t.Fatalf("root-%d has %d entries, want %d", w, m.Len(), ops)
		}
		for i := uint64(0); i < ops; i++ {
			if _, ok := m.Get(key64(i)); !ok {
				t.Fatalf("root-%d key %d missing", w, i)
			}
		}
	}
}

// TestConcurrentWritersSameRootSerialize: Basic-interface writers racing
// on one root must not lose updates, because each attempt applies against
// the committed version and publishes with a CAS — whether every writer
// works through its own forked store handle or all of them share one
// store handle and one Map handle. Sharing is the harder case for the
// handle's parked per-FASE state (the reusable edit and cascade buffers
// of its alloc.Heap): concurrent FASEs must never be handed the same
// edit. Run under -race.
func TestConcurrentWritersSameRootSerialize(t *testing.T) {
	const (
		writers = 4
		ops     = 200
	)
	for _, shared := range []bool{false, true} {
		name := "forked handles"
		if shared {
			name = "one shared handle"
		}
		t.Run(name, func(t *testing.T) {
			s := newTestStore(t)
			common, err := s.Map("shared")
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					m := common
					if !shared {
						var err error
						if m, err = s.Fork().Map("shared"); err != nil {
							t.Error(err)
							return
						}
					}
					for i := uint64(0); i < ops; i++ {
						// Disjoint key ranges: a lost update would show as a
						// missing key. Every other key is rewritten at once, so
						// FASEs also release blocks and run cascades.
						k := key64(uint64(w)*ops + i)
						m.Set(k, key64(i))
						if i%2 == 0 {
							m.Set(k, key64(i+1))
						}
					}
				}(w)
			}
			wg.Wait()
			s.Sync()
			m, _ := s.Map("shared")
			if m.Len() != writers*ops {
				t.Fatalf("shared map has %d entries, want %d (lost updates)", m.Len(), writers*ops)
			}
			for w := uint64(0); w < writers; w++ {
				for i := uint64(0); i < ops; i++ {
					want := key64(i + (i+1)%2)
					if got, ok := m.Get(key64(w*ops + i)); !ok || string(got) != string(want) {
						t.Fatalf("writer %d key %d reads %x, %v; want %x", w, i, got, ok, want)
					}
				}
			}
		})
	}
}

// TestConcurrentBindSameRoot races first-time binds of one name; exactly
// one create must win and all handles must observe the same structure.
func TestConcurrentBindSameRoot(t *testing.T) {
	s := newTestStore(t)
	const n = 8
	var wg sync.WaitGroup
	maps := make([]*Map, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := s.Fork()
			m, err := st.Map("contended")
			if err != nil {
				t.Error(err)
				return
			}
			maps[i] = m
		}(i)
	}
	wg.Wait()
	s.Sync()
	maps[0].Set([]byte("k"), []byte("v"))
	for i := 1; i < n; i++ {
		snap := maps[i].Snapshot()
		if _, ok := snap.Get([]byte("k")); !ok {
			t.Fatalf("handle %d bound to a different structure", i)
		}
		snap.Close()
	}
}

// TestSnapshotSurvivesReclaim pins a snapshot, then commits enough FASEs
// to recycle the snapshot's version many times over were it not pinned;
// the snapshot must stay fully readable throughout.
func TestSnapshotSurvivesReclaim(t *testing.T) {
	s := newTestStore(t)
	m, _ := s.Map("m")
	const preload = 32
	for i := uint64(0); i < preload; i++ {
		m.Set(key64(i), key64(i+1000))
	}
	s.Sync()

	snap := m.Snapshot()
	for i := uint64(0); i < 500; i++ {
		m.Set(key64(i%preload), key64(i)) // overwrite the snapshot's entries
	}
	s.Sync()
	// The pinned snapshot still sees the old values.
	for i := uint64(0); i < preload; i++ {
		v, ok := snap.Get(key64(i))
		if !ok {
			t.Fatalf("pinned snapshot lost key %d", i)
		}
		var want [8]byte
		copy(want[:], key64(i+1000))
		if string(v) != string(want[:]) {
			t.Fatalf("pinned snapshot key %d changed: got %x", i, v)
		}
	}
	pinned := s.Heap().Stats().Quarantine
	if pinned == 0 {
		t.Fatal("expected retired blocks held by the pinned snapshot")
	}
	snap.Close()
	s.Sync()
	if q := s.Heap().Stats().Quarantine; q != 0 {
		t.Fatalf("Quarantine = %d after Close+Sync, want 0", q)
	}
}

// TestCommitUnrelatedCrashAtomicAcrossSeeds runs the CommitUnrelated
// history of TestCommitUnrelatedCrashAroundRecordFence under eight more
// seeds of line eviction — the member slots, the swaps and the shadows land or
// not at the seed's whim — at every third PM write.
func TestCommitUnrelatedCrashAtomicAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		h := unrelatedPairHist(seed, true)
		h.stride = 3
		h.run(t)
	}
}

// commitUnrelatedPair builds two one-element vectors on a fresh store,
// pushes onto both through one CommitUnrelated and returns the device and
// store with the commit published and no fence after it.
func commitUnrelatedPair(t *testing.T) (*pmem.Device, *Store) {
	t.Helper()
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	v1, _ := s.Vector("v1")
	v2, _ := s.Vector("v2")
	v1.Push(1)
	v2.Push(2)
	s.BeginFASE()
	s1 := v1.PurePush(10)
	s2 := v2.PurePush(20)
	if err := s.CommitUnrelated(Update{DS: v1, Shadows: []Version{s1}}, Update{DS: v2, Shadows: []Version{s2}}); err != nil {
		t.Fatal(err)
	}
	s.EndFASE()
	return dev, s
}

// recoverPair reopens a crash image of commitUnrelatedPair's store and
// returns the two vectors' lengths.
func recoverPair(t *testing.T, img []byte) (len1, len2 uint64) {
	t.Helper()
	s, _, err := openStore(pmem.NewFromImage(pmem.DefaultConfig(16<<20), img))
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Vector("v1")
	v2, _ := s.Vector("v2")
	return v1.Len(), v2.Len()
}

// TestCommitUnrelatedCompletedSurvivesCrash is the other half: a
// multi-root commit has the one-root durability contract — published on
// return, durable at the store's next fence — so once a later FASE's
// fence has run (here a one-root push on an unrelated root), a crash
// that keeps only fenced lines must preserve both new versions.
func TestCommitUnrelatedCompletedSurvivesCrash(t *testing.T) {
	dev, s := commitUnrelatedPair(t)
	other, _ := s.Stack("other")
	other.Push(1)
	if l1, l2 := recoverPair(t, dev.CrashImage(pmem.CrashFencedOnly, 1)); l1 != 2 || l2 != 2 {
		t.Fatalf("fence-covered commit lost: v1=%d v2=%d, want 2/2", l1, l2)
	}
}

// TestCommitUnrelatedUnfencedAllOrNothing: before any later fence the
// commit's swaps are clwb'd but not durable. A crash right after it
// returns, under every policy and sixteen seeds, loses the commit whole or
// keeps it whole, never torn: whole whenever every flushed line
// persisted, lost whenever only fenced lines did, and partial writeback
// or eviction both keeps it and loses it across the seeds.
func TestCommitUnrelatedUnfencedAllOrNothing(t *testing.T) {
	seen := map[bool]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		h := unrelatedPairHist(seed, false)
		h.stride = 1 << 30 // the crash after the return only
		pinned := h.expect
		h.expect = func(c histCut) error {
			if !c.end && (c.policy == pmem.CrashInflightRandom || c.policy == pmem.CrashEvictRandom) {
				seen[len(c.got[0]) == 2] = true
			}
			return pinned(c)
		}
		h.run(t)
	}
	if !seen[false] || !seen[true] {
		t.Errorf("partial writeback never both kept and lost the commit: %v", seen)
	}
}

// TestConcurrentBatchAndCASCrashImages is a concurrent history: five
// writers on three shared roots — two Basic writers (which race their
// CASes, or enroll on the commit queue while it is led), one of multi-root
// Batch.Commits, and two of CommitAsync + Wait alternating one-root
// batches, staged and durable at their own round's fence, with two-root
// ones the leader owes a later fence — so a CAS can publish past a live
// record naming its root, records retire at other goroutines' ordering
// points, and queue rounds carry several goroutines' batches. The async
// writers also cut right after every fourth Wait returns (durability
// before ack). Run under -race.
func TestConcurrentBatchAndCASCrashImages(t *testing.T) {
	const roots, writers, ops = 3, 5, 8 // writers 0 and 3 Basic, 1 Batch.Commit, 2 and 4 CommitAsync + Wait
	h := &crashHist{stride: 5}
	for r := 0; r < roots; r++ {
		h.roots = append(h.roots, histRoot{name: fmt.Sprintf("r%d", r), bind: mxBind((*Store).Map, mxMapOps)})
	}
	h.window = func(e *histEnv, r *histRec) {
		before := e.db.Store().CommitStats()
		defer func() {
			st := e.db.Store().CommitStats()
			e.t.Logf("%d CAS wins, %d losses, %d enrolled Basic updates", st.FastWins-before.FastWins, st.FastLosses-before.FastLosses, st.CombinedOps-before.CombinedOps)
		}()
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := e.db.Store().Fork()
				ms := make([]*Map, roots)
				for i := range ms {
					ms[i], _ = s.Map(fmt.Sprintf("r%d", i))
				}
				for i := 0; i < ops; i++ {
					key := fmt.Sprintf("w%d-%d", w, i)
					on := []int{(w + i) % roots}
					if w == 1 || (w%3 != 0 && i%2 == 1) {
						on = append(on, (w+i+1)%roots) // spans two roots
					}
					var effs []durcheck.Effect
					for _, root := range on {
						effs = append(effs, durcheck.Effect{Root: root, Key: key, Val: key})
					}
					if w%3 == 0 {
						r.do(key, effs, func() { ms[on[0]].Set([]byte(key), []byte(key)) })
						continue
					}
					b := s.NewBatch()
					for _, root := range on {
						b.MapSet(ms[root], []byte(key), []byte(key))
					}
					switch w {
					case 1:
						r.do(key, effs, b.Commit)
					default:
						r.durable(key, effs, func() { mxWait(e.t, b.CommitAsync()) })
						if i%4 == 0 {
							r.crash()
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
	h.run(t)
}

// TestConcurrentMixedStructures runs writers over all five structure
// kinds at once with readers snapshotting each, as a broad race sweep.
func TestConcurrentMixedStructures(t *testing.T) {
	s := newTestStore(t)
	m, _ := s.Map("m")
	vec, _ := s.Vector("vec")
	st, _ := s.Stack("st")
	q, _ := s.Queue("q")
	set, _ := s.Set("set")
	m.Set([]byte("seed"), []byte("x"))
	vec.Push(1)
	st.Push(1)
	q.Enqueue(1)
	set.Insert([]byte("seed"))
	s.Sync()

	const ops = 150
	var writerWG, readerWG sync.WaitGroup
	run := func(wg *sync.WaitGroup, fn func(st *Store)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(s.Fork())
		}()
	}
	run(&writerWG, func(fs *Store) {
		m, _ := fs.Map("m")
		for i := uint64(0); i < ops; i++ {
			m.Set(key64(i), key64(i))
		}
	})
	run(&writerWG, func(fs *Store) {
		v, _ := fs.Vector("vec")
		for i := uint64(0); i < ops; i++ {
			v.Push(i)
		}
	})
	run(&writerWG, func(fs *Store) {
		st, _ := fs.Stack("st")
		for i := uint64(0); i < ops; i++ {
			st.Push(i)
			if i%3 == 0 {
				st.Pop()
			}
		}
	})
	run(&writerWG, func(fs *Store) {
		q, _ := fs.Queue("q")
		for i := uint64(0); i < ops; i++ {
			q.Enqueue(i)
			if i%3 == 0 {
				q.Dequeue()
			}
		}
	})
	run(&writerWG, func(fs *Store) {
		set, _ := fs.Set("set")
		for i := uint64(0); i < ops; i++ {
			set.Insert(key64(i))
		}
	})
	// One reader cycling over every structure kind.
	var stop atomic.Bool
	run(&readerWG, func(fs *Store) {
		m, _ := fs.Map("m")
		vec, _ := fs.Vector("vec")
		st, _ := fs.Stack("st")
		q, _ := fs.Queue("q")
		set, _ := fs.Set("set")
		for !stop.Load() {
			ms := m.Snapshot()
			ms.Get([]byte("seed"))
			ms.Close()
			vs := vec.Snapshot()
			if vs.Len() > 0 {
				vs.Get(0)
			}
			vs.Close()
			ss := st.Snapshot()
			ss.Peek()
			ss.Close()
			qs := q.Snapshot()
			qs.Peek()
			qs.Close()
			es := set.Snapshot()
			es.Contains([]byte("seed"))
			es.Close()
		}
	})
	writerWG.Wait()
	stop.Store(true)
	readerWG.Wait()
	s.Sync()
	if m2, _ := s.Map("m"); m2.Len() < ops {
		t.Fatalf("map lost entries: %d < %d", m2.Len(), ops)
	}
}

// TestCASPublishesPastUncoveredRecord pins the interleaving in which an
// optimistic CAS publishes past a multi-root group's member slot on its
// root with no fence covering the group's swaps yet: a two-root batch
// parks at its first root swap while a writer on that root builds its
// update and fences, then finishes its swaps before the writer's CAS. The
// writer's first CAS wins. It needs no covering fence for the group: the
// CAS advances the root's publication counter past the member's final,
// and recovery leaves such a cell alone, so the group cannot roll the
// writer back — at every PM write, under every crash policy: wherever the
// writer's cell write reached the image, before any fence acknowledges
// it, the image recovers the writer's key over the batch. At least four
// images per policy from the batch's first swap on precede that.
func TestCASPublishesPastUncoveredRecord(t *testing.T) {
	h := &crashHist{roots: []histRoot{
		{name: "x", bind: mxBind((*Store).Map, mxMapOps)},
		{name: "y", bind: mxBind((*Store).Map, mxMapOps)},
	}}
	type casCut struct {
		policy     pmem.CrashPolicy
		word       uint64 // root x's cell in the image
		cas, batch bool   // recovered: the writer's key, the batch's key in x
		end        bool
	}
	var cuts []casCut
	var cell pmem.Addr
	var casWord uint64
	var fired atomic.Bool
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		slot, _ := s.heap.RootSlot("x")
		cell = s.heap.RootCellAddr(slot)
		w, _ := s.Fork().Map("x") // bound up front: a bind takes the root's commit mutex
		var armed atomic.Bool
		fenced, done := make(chan struct{}), make(chan struct{})
		r.p.onWrite = func(addr pmem.Addr) {
			if addr == cell && fired.CompareAndSwap(false, true) {
				armed.Store(true)
				go func() {
					defer close(done)
					r.do("cas", []durcheck.Effect{{Root: 0, Key: "cas", Val: "w"}}, func() { w.Set([]byte("cas"), []byte("w")) })
				}()
				<-fenced
			}
		}
		r.p.onFence = func(int) {
			if armed.CompareAndSwap(true, false) {
				close(fenced)
			}
		}
		before := s.CommitStats()
		mxBatch(e, r, "batch", 0, 0, 1)
		<-done
		casWord = s.dev.ReadU64(cell)
		if !fired.Load() {
			e.t.Fatal("the batch never swapped root x")
		}
		if st := s.CommitStats(); st.FastWins != before.FastWins+1 || st.FastLosses != before.FastLosses {
			e.t.Errorf("writer: %d wins, %d losses; want its first CAS to win", st.FastWins-before.FastWins, st.FastLosses-before.FastLosses)
		}
	}
	h.expect = func(c histCut) error { // under the probe's lock, from either writer
		if fired.Load() {
			cuts = append(cuts, casCut{c.policy, c.word(0, cell), slices.Contains(c.got[0], "cas=w"), slices.Contains(c.got[0], "k000=v000"), c.end})
		}
		return nil
	}
	h.run(t)
	pending := map[pmem.CrashPolicy]int{} // images in which the writer's cell write is not there yet
	for n, c := range cuts {
		switch {
		case c.word == casWord && (!c.cas || !c.batch):
			t.Fatalf("policy %d, image %d/%d: the writer's cell is in the image, yet it recovered the writer's key %v, the batch %v", c.policy, n, len(cuts), c.cas, c.batch)
		case c.end && c.word != casWord:
			t.Fatal("the writer's cell write is not durable after Sync")
		case c.word != casWord:
			pending[c.policy]++
		}
	}
	for _, policy := range crashPolicies {
		if pending[policy] < 4 {
			t.Errorf("policy %d: only %d images precede the writer's cell write", policy, pending[policy])
		}
	}
}

// TestCASLossRetriesThenEnrolls is a checker history with a named
// schedule: writer A's optimistic Set parks after its commit fence, before
// its CAS, while B publishes on the same root — twice, so A's CAS loses,
// it retries, loses again and enrolls on the commit queue, whose round
// publishes it. Every PM write is a cut.
func TestCASLossRetriesThenEnrolls(t *testing.T) {
	h := &crashHist{roots: []histRoot{{name: "m", bind: mxBind((*Store).Map, mxMapOps)}}}
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		a, _ := mxBind((*Store).Map, mxMapOps)(s.Fork(), "m")
		var armed atomic.Bool
		parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		r.p.onFence = func(int) {
			if armed.CompareAndSwap(true, false) {
				parked <- struct{}{}
				<-resume
			}
		}
		before := s.CommitStats()
		armed.Store(true)
		go func() {
			defer close(done)
			r.do("a", e.effs(0, 0, 1), func() { a.basic(0) })
		}()
		for i := 1; i <= 2; i++ {
			<-parked
			r.do(fmt.Sprint("b", i), e.effs(0, i, i+1), func() { e.ops[0].basic(i) })
			armed.Store(i == 1)
			resume <- struct{}{}
		}
		<-done
		st := s.CommitStats()
		if st.FastWins-before.FastWins != 2 || st.FastLosses-before.FastLosses != 2 || st.CombinedOps-before.CombinedOps != 1 {
			e.t.Errorf("%d CAS wins, %d losses, %d enrolled; want B's 2 wins, A's 2 losses, then A enrolled",
				st.FastWins-before.FastWins, st.FastLosses-before.FastLosses, st.CombinedOps-before.CombinedOps)
		}
	}
	h.run(t)
}
