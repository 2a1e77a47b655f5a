package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// newSelTestStore opens a store WithSelective(every) on a durability-
// tracked device so the tests can crash it: its roots are created
// selective and the DRAM node cache is on.
func newSelTestStore(t testing.TB, every int) (*Store, *pmem.Device) {
	t.Helper()
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	db, _, err := Open(cfg, WithDevices(dev), WithSelective(every))
	if err != nil {
		t.Fatal(err)
	}
	return db.Store(), dev
}

// selCrashReopen takes an adversarial crash image of dev and reopens it
// WithSelective(every), returning the recovered store and its device.
func selCrashReopen(t *testing.T, dev *pmem.Device, seed uint64, every int) (*Store, *pmem.Device) {
	t.Helper()
	img := dev.CrashImage(pmem.CrashEvictRandom, seed)
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev2 := pmem.NewFromImage(cfg, img)
	s2, _, err := openStore(dev2, WithSelective(every))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return s2, dev2
}

// TestSelectiveMapRebuild drives a selective map through interleaved sets
// and deletes — crossing several checkpoints — crashes, and checks the
// rebuilt state, the recovery-stats counters, and that the store stays
// writable.
func TestSelectiveMapRebuild(t *testing.T) {
	s, dev := newSelTestStore(t, 8)
	m, err := s.Map("sm")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	key := func(i int) string { return fmt.Sprintf("key-%04d", i) }
	for i := 0; i < 200; i++ {
		k := key(i % 60)
		if i%7 == 3 {
			m.Delete([]byte(k))
			delete(want, k)
			continue
		}
		v := fmt.Sprintf("val-%05d", i)
		m.Set([]byte(k), []byte(v))
		want[k] = v
	}
	s.Sync()

	s2, dev2 := selCrashReopen(t, dev, 42, 8)
	m2, err := s2.Map("sm")
	if err != nil {
		t.Fatal(err)
	}
	if got := m2.Len(); got != uint64(len(want)) {
		t.Fatalf("recovered len %d, want %d", got, len(want))
	}
	for k, v := range want {
		got, ok := m2.Get([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("recovered %q = %q,%v, want %q", k, got, ok, v)
		}
	}
	st := dev2.Stats()
	if st.RecoveryNs <= 0 {
		t.Fatalf("RecoveryNs = %v, want > 0", st.RecoveryNs)
	}
	if st.RebuiltNodes == 0 {
		t.Fatal("RebuiltNodes = 0, want > 0 (record chain was non-empty at crash)")
	}
	// Still writable, and a second crash/reopen holds the new write.
	m2.Set([]byte("after"), []byte("crash"))
	s2.Sync()
	s3, _ := selCrashReopen(t, dev2, 43, 8)
	m3, err := s3.Map("sm")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m3.Get([]byte("after")); !ok || string(v) != "crash" {
		t.Fatalf("post-recovery write lost: %q,%v", v, ok)
	}
}

// TestSelectiveVectorStackQueueRebuild covers the other three structures
// end to end across a crash, including pops (whose records carry no
// operands) and the queue's reversal path.
func TestSelectiveVectorStackQueueRebuild(t *testing.T) {
	s, dev := newSelTestStore(t, 8)

	v, err := s.Vector("sv")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		v.Push(i * 3)
	}
	for i := uint64(0); i < 100; i += 5 {
		v.Update(i, i*1000)
	}

	st, err := s.Stack("ss")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50; i++ {
		st.Push(i)
	}
	for i := 0; i < 20; i++ {
		st.Pop()
	}

	q, err := s.Queue("sq")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		q.Enqueue(i + 100)
	}
	for i := 0; i < 12; i++ {
		q.Dequeue() // exhausts the front list, forcing reversals
	}
	for i := uint64(30); i < 40; i++ {
		q.Enqueue(i + 100)
	}
	s.Sync()

	s2, _ := selCrashReopen(t, dev, 7, 8)
	v2, err := s2.Vector("sv")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Len() != 100 {
		t.Fatalf("vector len %d, want 100", v2.Len())
	}
	for i := uint64(0); i < 100; i++ {
		want := i * 3
		if i%5 == 0 {
			want = i * 1000
		}
		if got := v2.Get(i); got != want {
			t.Fatalf("vector[%d] = %d, want %d", i, got, want)
		}
	}
	st2, err := s2.Stack("ss")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 30 {
		t.Fatalf("stack len %d, want 30", st2.Len())
	}
	if top, ok := st2.Peek(); !ok || top != 29 {
		t.Fatalf("stack top = %d,%v, want 29", top, ok)
	}
	q2, err := s2.Queue("sq")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 28 {
		t.Fatalf("queue len %d, want 28", q2.Len())
	}
	if head, ok := q2.Peek(); !ok || head != 112 {
		t.Fatalf("queue head = %d,%v, want 112", head, ok)
	}
}

// TestSelectiveCheckpointEveryCommit forces a checkpoint fold on every
// commit (the worst case for the two-fence clear protocol) and checks
// state across a crash taken right after a fold. An interval of one
// record folds on every commit: each selective commit appends at least
// one.
func TestSelectiveCheckpointEveryCommit(t *testing.T) {
	s, dev := newSelTestStore(t, 1)
	set, err := s.Set("st")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		set.Insert([]byte(fmt.Sprintf("member-%03d", i)))
	}
	s.Sync()
	s2, _ := selCrashReopen(t, dev, 99, 1)
	set2, err := s2.Set("st")
	if err != nil {
		t.Fatal(err)
	}
	if set2.Len() != 40 {
		t.Fatalf("recovered set len %d, want 40", set2.Len())
	}
	for i := 0; i < 40; i++ {
		if !set2.Contains([]byte(fmt.Sprintf("member-%03d", i))) {
			t.Fatalf("member %d missing after recovery", i)
		}
	}
}

// TestSelectiveConcurrentSnapshotsNodeCache mirrors the headline
// concurrency test on the selective flavor: reader goroutines continuously
// snapshot — hitting the DRAM node cache — while a writer commits FASEs
// that append records, fold checkpoints, and free superseded nodes (which
// invalidates cache entries). Must be race-clean under -race and never
// observe a torn or missing preloaded key.
func TestSelectiveConcurrentSnapshotsNodeCache(t *testing.T) {
	const (
		readers = 4
		commits = 600
		preload = 64
	)
	s, _ := newSelTestStore(t, 16)
	m, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < preload; i++ {
		m.Set(key64(i), key64(i*3))
	}
	s.Sync()

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		errs = make(chan error, readers+1)
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
				for j := 0; j < 8; j++ {
					k = (k + 7) % preload
					v, ok := snap.Get(key64(k))
					if !ok || len(v) != 8 {
						snap.Close()
						errs <- fmt.Errorf("reader %d: key %d = %x,%v", r, k, v, ok)
						return
					}
				}
				snap.Close()
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
			wm.Set(key64(preload+i%256), key64(i))
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Sync()
	for i := uint64(0); i < preload; i++ {
		if _, ok := m.Get(key64(i)); !ok {
			t.Fatalf("preloaded key %d lost", i)
		}
	}
}

// TestSelectiveShardedParallelRebuild puts a selective root on every
// shard, crashes the sharded store, and reopens it: the per-shard record
// chains replay in parallel goroutines (race-clean under -race), each
// shard's device reports its own recovery stats, and readers across all
// shards see the rebuilt state.
func TestSelectiveShardedParallelRebuild(t *testing.T) {
	const shards = 4
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, shards, WithSelective(8))
	for i := 0; i < shards; i++ {
		m, err := ss.Shard(i).Map("m")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 40; j++ {
			m.Set([]byte(fmt.Sprintf("s%d-k%03d", i, j)), []byte(fmt.Sprintf("v%03d", j)))
		}
	}
	ss.Sync()

	imgs := ss.CrashImages(pmem.CrashEvictRandom, 1234)
	ss2, rs, err := Open(cfg, WithExistingImages(imgs), WithSelective(8))
	if err != nil {
		t.Fatalf("sharded recovery: %v", err)
	}
	if len(rs.PerShard) != shards {
		t.Fatalf("PerShard stats for %d shards, want %d", len(rs.PerShard), shards)
	}
	for i := 0; i < shards; i++ {
		m, err := ss2.Shard(i).Map("m")
		if err != nil {
			t.Fatal(err)
		}
		if m.Len() != 40 {
			t.Fatalf("shard %d: recovered len %d, want 40", i, m.Len())
		}
		for j := 0; j < 40; j++ {
			v, ok := m.Get([]byte(fmt.Sprintf("s%d-k%03d", i, j)))
			if !ok || string(v) != fmt.Sprintf("v%03d", j) {
				t.Fatalf("shard %d key %d: %q,%v", i, j, v, ok)
			}
		}
		if st := ss2.Shard(i).Stats(); st.RecoveryNs <= 0 {
			t.Fatalf("shard %d: RecoveryNs = %v, want > 0", i, st.RecoveryNs)
		}
	}
}

// TestSelectiveBatchAndUnrelatedCommits routes selective updates through
// a multi-root Batch and CommitUnrelated, the two multi-root
// publication paths whose checkpoint clears ride different fences than
// the single-root commit.
func TestSelectiveBatchAndUnrelatedCommits(t *testing.T) {
	s, dev := newSelTestStore(t, 1) // fold on every commit
	m, err := s.Map("bm")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Vector("bv")
	if err != nil {
		t.Fatal(err)
	}
	// Multi-root batch: both selective roots change as one staged group,
	// folding checkpoints each commit.
	for i := 0; i < 10; i++ {
		b := s.NewBatch()
		b.MapSet(m, []byte(fmt.Sprintf("k%02d", i)), []byte("batched"))
		b.VectorPush(v, uint64(i))
		b.Commit()
	}
	// CommitUnrelated: selective shadows through the short-transaction path.
	mv, _ := m.PureSet([]byte("via-tx"), []byte("yes"))
	vv := v.PurePush(999)
	s.CommitUnrelated(Update{DS: m, Shadows: []Version{mv}}, Update{DS: v, Shadows: []Version{vv}})
	s.Sync()

	s2, _ := selCrashReopen(t, dev, 5, 1)
	m2, err := s2.Map("bm")
	if err != nil {
		t.Fatal(err)
	}
	v2, err := s2.Vector("bv")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 11 || v2.Len() != 11 {
		t.Fatalf("recovered lens map=%d vec=%d, want 11,11", m2.Len(), v2.Len())
	}
	if got, ok := m2.Get([]byte("via-tx")); !ok || string(got) != "yes" {
		t.Fatalf("CommitUnrelated write lost: %q,%v", got, ok)
	}
	if got := v2.Get(10); got != 999 {
		t.Fatalf("vector[10] = %d, want 999", got)
	}
}

// TestCheckpointIntervalIsPerStore pins the checkpoint interval as a
// property of the store opened with it: opening B WithSelective(2) must
// not make an already-open A, opened WithSelective(0), fold every two
// records. Ten Map.Sets on A are ten one-fence FASEs; each fold would add
// the fence behind clearCrown, which B pays on every second Set.
func TestCheckpointIntervalIsPerStore(t *testing.T) {
	a, _, err := Open(dbConfig(), WithSelective(0))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, _, err := Open(dbConfig(), WithSelective(2))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, c := range []struct {
		name   string
		db     *DB
		fences uint64
	}{{"A", a, 10}, {"B", b, 15}} {
		m, err := c.db.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		before := c.db.Stats()
		for i := uint64(0); i < 10; i++ {
			m.Set(key64(i), []byte("v"))
		}
		if got := c.db.Stats().Sub(before).Fences; got != c.fences {
			t.Errorf("store %s: 10 Map.Sets paid %d fences, want %d", c.name, got, c.fences)
		}
	}
}
