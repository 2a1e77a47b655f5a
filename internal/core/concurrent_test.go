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

// TestCommitUnrelatedCrashAtomicAcrossSeeds crashes CommitUnrelated in
// every window around its one fence with adversarial line eviction across
// many seeds — the record, the swaps and the shadows land or not at the
// seed's whim. Recovery must show both new versions or neither, and both
// once a later fence has run.
func TestCommitUnrelatedCrashAtomicAcrossSeeds(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		for w := beforeFenceA; w <= laterFence; w++ {
			for n := 1; ; n += 3 {
				l1, l2, ok := crashUnrelated(t, w, n, pmem.CrashEvictRandom, seed)
				if !ok {
					break
				}
				if l1 != l2 || (w == laterFence && l1 != 2) {
					t.Fatalf("seed %d, %v, write %d: v1=%d v2=%d, want both roots moved or neither (both after a later fence)", seed, w, n, l1, l2)
				}
				if w != beforeFenceA {
					break
				}
			}
		}
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
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
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
// commit's swaps are clwb'd but not durable. A crash keeping only fenced
// lines then loses the commit whole — the record is durable and live but
// no swap landed, so recovery discards it — and under partial writeback
// or eviction it is lost whole or kept whole, never torn.
func TestCommitUnrelatedUnfencedAllOrNothing(t *testing.T) {
	dev, _ := commitUnrelatedPair(t)
	if l1, l2 := recoverPair(t, dev.CrashImage(pmem.CrashFencedOnly, 1)); l1 != 1 || l2 != 1 {
		t.Fatalf("unfenced commit under fenced-only crash: v1=%d v2=%d, want 1/1", l1, l2)
	}
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 16; seed++ {
		for _, policy := range []pmem.CrashPolicy{pmem.CrashInflightRandom, pmem.CrashEvictRandom} {
			l1, l2 := recoverPair(t, dev.CrashImage(policy, seed))
			if l1 != l2 {
				t.Fatalf("policy %d, seed %d: commit torn: v1=%d v2=%d", policy, seed, l1, l2)
			}
			seen[l1] = true
		}
	}
	if !seen[1] || !seen[2] {
		t.Errorf("partial writeback never both kept and lost the commit: %v", seen)
	}
}

// fenceImages takes a fenced-only crash image after a pseudorandom subset
// of fences, each tagged with the FenceSeq read before the image: every
// fence up to that count is in it. Safe for concurrent hooks.
type fenceImages struct {
	*pmem.CrashCountdown // its Write and Fence are shadowed, so it only supplies the other, empty hooks
	dev                  *pmem.Device
	mu                   sync.Mutex
	rng                  uint64
	every, max           int
	imgs                 []fencedImage
}

type fencedImage struct {
	fences uint64
	img    []byte
}

func (f *fenceImages) Write(pmem.Addr, int) {}

func (f *fenceImages) Fence(int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rng = f.rng*6364136223846793005 + 1442695040888963407
	if len(f.imgs) >= f.max || int(f.rng>>33)%f.every != 0 {
		return
	}
	fences := f.dev.FenceSeq()
	f.imgs = append(f.imgs, fencedImage{fences: fences, img: f.dev.CrashImage(pmem.CrashFencedOnly, 0)})
}

// TestConcurrentBatchAndCASCrashImages races optimistic Basic writers,
// multi-root Batch writers and CommitAsync writers on overlapping roots —
// so a CAS can find a live record naming its root, records retire at
// other goroutines' ordering points, and queue rounds carry several
// goroutines' batches — while fenced-only crash images are taken at
// random fences. Every op logs the FenceSeq it read after returning: any
// fence counted past that value started after the op's last flush and
// covered it. Async writers alternate one-root batches, durable at their
// own round's fence, with two-root ones, which Wait settles. An async
// writer also takes an image right after every fourth Wait returns — a
// one-root batch's — with no fence in between, and logs how many images
// existed when its Wait returned: every image taken after that is after
// the acknowledgement and must hold the batch (durability before ack). In
// every image, each op a fence covered must be recovered, every batch
// must be whole or absent, and two-root async batches one round published
// (equal ticket tags) all present or all absent. Run under -race.
func TestConcurrentBatchAndCASCrashImages(t *testing.T) {
	const (
		roots   = 3
		writers = 6 // w%3: 0 optimistic, 1 Batch.Commit, 2 CommitAsync + Wait
		ops     = 40
	)
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < roots; r++ {
		if _, err := s.Map(fmt.Sprintf("r%d", r)); err != nil {
			t.Fatal(err)
		}
	}
	s.Sync()

	type loggedOp struct {
		roots  []int
		key    string
		fences uint64 // FenceSeq read after the op returned
		acked  int    // async: images taken before Wait returned; -1 for the other writers
		tag    uint64 // async: the ticket's tag, shared by the batches of one round
	}
	logs := make([][]loggedOp, writers)
	tr := &fenceImages{CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0), dev: dev, rng: 7, every: 9, max: 24}
	dev.SetTracer(tr)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.Fork()
			ms := make([]*Map, roots)
			for r := range ms {
				ms[r], _ = h.Map(fmt.Sprintf("r%d", r))
			}
			for i := 0; i < ops; i++ {
				op := loggedOp{key: fmt.Sprintf("w%d-%d", w, i), acked: -1}
				if w%3 == 0 {
					op.roots = []int{(w + i) % roots}
					ms[op.roots[0]].Set([]byte(op.key), []byte(op.key))
					op.fences = h.Device().FenceSeq()
					logs[w] = append(logs[w], op)
					continue
				}
				op.roots = []int{i % roots, (i + 1 + w/3) % roots}
				if w%3 == 2 && i%2 == 0 {
					op.roots = op.roots[:1] // a one-root async batch: durable at its own round's fence
				}
				b := h.NewBatch()
				for _, r := range op.roots {
					b.MapSet(ms[r], []byte(op.key), []byte(op.key))
				}
				if w%3 == 1 {
					b.Commit()
					op.fences = h.Device().FenceSeq()
					logs[w] = append(logs[w], op)
					continue
				}
				tk := b.CommitAsync()
				tk.Wait()
				op.fences, op.tag = h.Device().FenceSeq(), tk.tag
				tr.mu.Lock()
				op.acked = len(tr.imgs)
				if i%4 == 0 && len(tr.imgs) < tr.max {
					tr.imgs = append(tr.imgs, fencedImage{fences: dev.FenceSeq(), img: dev.CrashImage(pmem.CrashFencedOnly, 0)})
				}
				tr.mu.Unlock()
				logs[w] = append(logs[w], op)
			}
		}(w)
	}
	wg.Wait()
	dev.SetTracer(nil)
	if len(tr.imgs) < 4 {
		t.Fatalf("only %d crash images taken", len(tr.imgs))
	}

	for n, fi := range tr.imgs {
		s2, _, err := openStore(pmem.NewFromImage(cfg, fi.img))
		if err != nil {
			t.Fatalf("image %d: recovery: %v", n, err)
		}
		ms := make([]*Map, roots)
		for r := range ms {
			ms[r], _ = s2.Map(fmt.Sprintf("r%d", r))
		}
		rounds := map[uint64]bool{} // tag → whether that round's batches are in the image
		for w, log := range logs {
			for _, op := range log {
				in := 0
				for _, r := range op.roots {
					if v, ok := ms[r].Get([]byte(op.key)); ok {
						if string(v) != op.key {
							t.Fatalf("image %d: %s on r%d reads %q", n, op.key, r, v)
						}
						in++
					}
				}
				switch {
				case in != 0 && in != len(op.roots):
					t.Fatalf("image %d: writer %d's %s torn: on %d of roots %v", n, w, op.key, in, op.roots)
				case in == 0 && op.fences < fi.fences:
					t.Fatalf("image %d (fence %d): %s lost although fence %d covered it", n, fi.fences, op.key, op.fences+1)
				case in == 0 && op.acked >= 0 && n >= op.acked:
					t.Fatalf("image %d: %s lost although its ticket was acknowledged before the image", n, op.key)
				}
				if op.acked < 0 || len(op.roots) == 1 {
					continue // one-root submissions sharing a round are independent
				}
				if had, seen := rounds[op.tag]; seen && had != (in != 0) {
					t.Fatalf("image %d: the round tagged %d is torn at %s", n, op.tag, op.key)
				}
				rounds[op.tag] = in != 0
			}
		}
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

// casRaceHook parks a multi-root publication between its first and
// second root swaps, runs an optimistic writer on the first root up to
// its fence, and lets the publication finish before the writer's CAS.
type casRaceHook struct {
	*pmem.CrashCountdown // its Write and Fence are shadowed, so it only supplies the other, empty hooks
	cell                 pmem.Addr
	start                func()
	fenced               chan struct{}
	armed, fired         atomic.Bool
}

func (h *casRaceHook) Write(addr pmem.Addr, _ int) {
	if addr == h.cell && h.fired.CompareAndSwap(false, true) {
		h.armed.Store(true)
		h.start()
		<-h.fenced
	}
}

func (h *casRaceHook) Fence(int) {
	if h.armed.CompareAndSwap(true, false) {
		close(h.fenced)
	}
}

// TestCASLosesToUncoveredRecord replays the one interleaving in which an
// ordering point meets a live batch record that names its root with no
// fence covering the record's swaps yet: an optimistic writer snapshots
// a root the record has just swapped and fences before the record's last
// swap. Were its CAS to win, nothing would retire the record before the
// next fence made the CAS durable, and recovery would roll the root back
// onto the record's version; it must lose, and its retry — fenced after
// the record — retires the record and publishes. A fence-only crash
// image after a Sync then holds the writer's key and the batch's.
func TestCASLosesToUncoveredRecord(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := s.Map("x")
	y, _ := s.Map("y")
	s.Sync()
	slot, _ := s.heap.RootSlot("x")

	w, _ := s.Fork().Map("x") // bound up front: a bind takes the root's commit mutex
	done := make(chan struct{})
	hook := &casRaceHook{CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0), cell: s.heap.RootCellAddr(slot), fenced: make(chan struct{})}
	hook.start = func() {
		go func() {
			defer close(done)
			w.Set([]byte("cas"), []byte("w"))
		}()
	}
	before := s.CommitStats()
	dev.SetTracer(hook)
	b := s.NewBatch()
	b.MapSet(x, []byte("batch"), []byte("x1"))
	b.MapSet(y, []byte("batch"), []byte("y1"))
	b.Commit()
	<-done
	dev.SetTracer(nil)
	if !hook.fired.Load() {
		t.Fatal("the batch never swapped root x")
	}
	if st := s.CommitStats(); st.FastLosses != before.FastLosses+1 || st.FastWins != before.FastWins+1 {
		t.Errorf("writer: %d wins, %d losses; want its first CAS lost and its retry won", st.FastWins-before.FastWins, st.FastLosses-before.FastLosses)
	}
	s.Sync() // covers the writer's publication; Sync is no ordering point and retires nothing

	s2, _, err := openStore(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	x2, _ := s2.Map("x")
	y2, _ := s2.Map("y")
	if _, ok := x2.Get([]byte("cas")); !ok {
		t.Fatal("the writer's fence-covered publication was rolled back by the batch record")
	}
	if _, ok := x2.Get([]byte("batch")); !ok {
		t.Fatal("x lost the batch under the writer's version")
	}
	if _, ok := y2.Get([]byte("batch")); !ok {
		t.Fatal("y lost the batch")
	}
}
