package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

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

// TestCommitUnrelatedCrashAtomicAcrossSeeds interrupts CommitUnrelated
// between its record fences and crashes with adversarial line eviction
// across many seeds — the write in flight (commit point, first root swap,
// record retirement) lands or not at the seed's whim. Recovery must show
// both new versions or neither, and both once the commit point was fenced.
func TestCommitUnrelatedCrashAtomicAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for n := 1; n <= 3; n++ {
			l1, l2 := crashUnrelatedAfterFence(t, n, pmem.CrashEvictRandom, seed)
			if l1 != l2 || (n >= 2 && l1 != 2) {
				t.Fatalf("seed %d, crash after fence %d: v1=%d v2=%d, want both roots moved or neither (both from fence B on)", seed, n, l1, l2)
			}
		}
	}
}

// TestCommitUnrelatedCompletedSurvivesCrash is the other half: once the
// commit has returned, a crash must preserve both new versions.
func TestCommitUnrelatedCompletedSurvivesCrash(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, _ := newStore(dev)
	v1, _ := s.Vector("v1")
	v2, _ := s.Vector("v2")
	v1.Push(1)
	v2.Push(2)
	s.BeginFASE()
	s1 := v1.PurePush(10)
	s2 := v2.PurePush(20)
	s.CommitUnrelated(Update{DS: v1, Shadows: []Version{s1}}, Update{DS: v2, Shadows: []Version{s2}})
	s.EndFASE()

	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	s2nd, _, err := openStore(dev2)
	if err != nil {
		t.Fatal(err)
	}
	v1b, _ := s2nd.Vector("v1")
	v2b, _ := s2nd.Vector("v2")
	if v1b.Len() != 2 || v2b.Len() != 2 {
		t.Fatalf("completed commit lost: v1=%d v2=%d, want 2/2", v1b.Len(), v2b.Len())
	}
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
