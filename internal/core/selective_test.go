package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/funcds"
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

// TestSelectiveConcurrentWritersFold races Basic writers on one
// selective map that folds every two records, so folds from builders on
// the same base overlap: each seals the crown nodes the block table still
// marks volatile, and a node another fold sealed first must already be
// flushed when the mark reads clear. Every write must be read back, and
// recovered from a fenced-only image of the synced store (run with -race).
func TestSelectiveConcurrentWritersFold(t *testing.T) {
	const (
		writers = 4
		each    = 150
	)
	s, dev := newSelTestStore(t, 2)
	m, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wm, err := s.Fork().Map("m")
			if err != nil {
				errs <- err
				return
			}
			for i := uint64(0); i < each; i++ {
				wm.Set(key64(uint64(w)*each+i), key64(i))
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s.Sync()

	cfg := pmem.DefaultConfig(8 << 20)
	db2, _, err := Open(cfg, WithExistingImages([][]byte{dev.CrashImage(pmem.CrashFencedOnly, 0)}), WithVerify(), WithSelective(2))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	m2, err := db2.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range []*Map{m, m2} {
		if mm.Len() != writers*each {
			t.Fatalf("%d keys, want %d", mm.Len(), writers*each)
		}
		for k := uint64(0); k < writers*each; k++ {
			if v, ok := mm.Get(key64(k)); !ok || string(v) != string(key64(k%each)) {
				t.Fatalf("key %d = %x, %v; want %x", k, v, ok, key64(k%each))
			}
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
// records. A fold installs a fresh checkpoint in the map's selective
// header (funcds.SelectiveExt), so ten Map.Sets fold five times on B and
// never on A. Each Set is one fence, whether it folds or not: the sealed
// crown and the clone ride the Set's own fence.
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
		name  string
		db    *DB
		folds int
	}{{"A", a, 0}, {"B", b, 5}} {
		m, err := c.db.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		s := c.db.Store()
		slot, err := s.heap.RootSlot("m")
		if err != nil {
			t.Fatal(err)
		}
		ckpt := func() pmem.Addr {
			at, _, _ := funcds.SelectiveExt(s.heap, s.heap.Root(slot))
			return at
		}
		folds, last := 0, ckpt()
		for i := uint64(0); i < 10; i++ {
			before := c.db.Stats()
			m.Set(key64(i), []byte("v"))
			if got := c.db.Stats().Sub(before).Fences; got != 1 {
				t.Errorf("store %s: Map.Set %d paid %d fences, want 1", c.name, i, got)
			}
			if now := ckpt(); now != last {
				folds, last = folds+1, now
			}
		}
		if folds != c.folds {
			t.Errorf("store %s: 10 Map.Sets folded %d times, want %d", c.name, folds, c.folds)
		}
	}
}

// TestRecoveryIgnoresNavigationBlocks pins the recovery rule of selective
// persistence (DESIGN.md §10): recovered state never depends on a
// navigation node. An image holds all four selective structures, each
// past a fold and with records pending, so it holds navigation nodes no
// fold has sealed. Every one of them is damaged: header bit 41 — the
// volatile-node bit of layouts up to v14 — cleared on half and set on the
// rest, and every payload byte overwritten. A verified reopen must read
// every root back whole, with nothing reported damaged: recovery and
// verification follow a selective header's checkpoint and record chain,
// never its navigation words.
func TestRecoveryIgnoresNavigationBlocks(t *testing.T) {
	const every = 8
	cfg := pmem.DefaultConfig(8 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	db, _, err := Open(cfg, WithDevices(dev), WithSelective(every))
	if err != nil {
		t.Fatal(err)
	}
	s := db.Store()
	m, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	v, err := s.Vector("v")
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Stack("s")
	if err != nil {
		t.Fatal(err)
	}
	q, err := s.Queue("q")
	if err != nil {
		t.Fatal(err)
	}
	// 3*every-1 records a structure: two folds, then every-1 pending.
	wantMap := map[string]string{}
	var wantVec, wantStack, wantQueue []uint64
	for i := uint64(0); i < 3*every-1; i++ {
		k, val := fmt.Sprintf("k%d", i%19), fmt.Sprintf("v%d", i)
		m.Set([]byte(k), []byte(val))
		wantMap[k] = val
		if i%3 == 2 {
			v.Update(i/3, i*100)
			wantVec[i/3] = i * 100
		} else {
			v.Push(i)
			wantVec = append(wantVec, i)
		}
		if i%4 == 3 {
			st.Pop()
			wantStack = wantStack[:len(wantStack)-1]
			q.Dequeue()
			wantQueue = wantQueue[1:]
		} else {
			st.Push(i)
			wantStack = append(wantStack, i)
			q.Enqueue(i)
			wantQueue = append(wantQueue, i)
		}
	}
	db.Sync()
	for _, name := range []string{"m", "v", "s", "q"} {
		slot, _ := s.heap.RootSlot(name)
		if ckpt, _, n := funcds.SelectiveExt(s.heap, s.heap.Root(slot)); ckpt == pmem.Nil || n == 0 {
			t.Fatalf("root %s: checkpoint %#x and %d records pending, want a fold and records", name, uint64(ckpt), n)
		}
	}

	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	rng := rand.New(rand.NewSource(1))
	const bit41 = uint64(1) << 41
	nav := 0
	lo, hi := s.heap.DataBounds()
	for a := lo; a+alloc.HeaderSize <= hi; {
		w0 := binary.LittleEndian.Uint64(img[a:])
		stride := pmem.Addr(uint32(w0))
		if s.heap.IsVolatile(a + alloc.HeaderSize) {
			if nav%2 == 0 {
				w0 &^= bit41
			} else {
				w0 |= bit41
			}
			binary.LittleEndian.PutUint64(img[a:], w0)
			rng.Read(img[a+alloc.HeaderSize : a+stride])
			nav++
		}
		a += stride
	}
	if nav < 12 {
		t.Fatalf("%d navigation blocks in the image, want at least 12", nav)
	}

	db2, info, err := Open(cfg, WithExistingImages([][]byte{img}), WithVerify(), WithSelective(every))
	if err != nil {
		t.Fatalf("reopen with %d damaged navigation blocks: %v", nav, err)
	}
	defer db2.Close()
	if len(info.Damaged) != 0 {
		t.Fatalf("reopen reports damage in navigation it must ignore: %+v", info.Damaged)
	}
	s2 := db2.Store()
	m2, err := s2.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != uint64(len(wantMap)) {
		t.Errorf("map: %d keys, want %d", m2.Len(), len(wantMap))
	}
	for k, want := range wantMap {
		if got, ok := m2.Get([]byte(k)); !ok || string(got) != want {
			t.Errorf("map[%s] = %q, %v; want %q", k, got, ok, want)
		}
	}
	v2, err := s2.Vector("v")
	if err != nil {
		t.Fatal(err)
	}
	if v2.Len() != uint64(len(wantVec)) {
		t.Fatalf("vector: %d elements, want %d", v2.Len(), len(wantVec))
	}
	for i, want := range wantVec {
		if got := v2.Get(uint64(i)); got != want {
			t.Errorf("vector[%d] = %d, want %d", i, got, want)
		}
	}
	st2, err := s2.Stack("s")
	if err != nil {
		t.Fatal(err)
	}
	for i := len(wantStack) - 1; i >= 0; i-- {
		if got, ok := st2.Pop(); !ok || got != wantStack[i] {
			t.Errorf("stack pop = %d, %v; want %d", got, ok, wantStack[i])
		}
	}
	q2, err := s2.Queue("q")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range wantQueue {
		if got, ok := q2.Dequeue(); !ok || got != want {
			t.Errorf("queue dequeue = %d, %v; want %d", got, ok, want)
		}
	}
	if st2.Len() != 0 || q2.Len() != 0 {
		t.Errorf("stack and queue hold %d and %d more elements than were committed", st2.Len(), q2.Len())
	}
}

// TestSelectiveConcurrentFoldsSealWholeCrown is a checker history of two
// optimistic writers that fold the same selective map from the same
// version. The version's last update left navigation nodes on one path,
// root → X → Y, which neither writer's key copies, so both folds must
// seal X and Y. Writer A's Set parks just before the k-th seal of its
// fold; B's Set then folds, fences and publishes by CAS, and the history
// crashes before A resumes. A node's volatile mark must not clear
// while a node below it is unsealed: B's crown walk stops at a cleared
// mark, and B's checkpoint would then name a node whose payload is in no
// image. Every PM write is a cut, and the history runs once for every k.
func TestSelectiveConcurrentFoldsSealWholeCrown(t *testing.T) {
	slot := func(k string, level uint) uint64 {
		f := fnv.New64a() // the map's key hash
		f.Write([]byte(k))
		return f.Sum64() >> (5 * level) & 31
	}
	// Y holds yKeys keys that share their first two levels' slots, kv
	// the last inserted, so kv's insert copies root → X → Y. Y spans
	// lines that neither its header's flush nor a neighbour's covers:
	// only a seal makes them durable. The filler and both writers' keys
	// each take a root slot of their own.
	const yKeys = 48
	byPrefix := map[uint64][]string{}
	var group []string
	for i := 0; group == nil; i++ {
		k := fmt.Sprintf("f%05d", i)
		p := slot(k, 0) | slot(k, 1)<<5
		if byPrefix[p] = append(byPrefix[p], k); len(byPrefix[p]) == yKeys {
			group = byPrefix[p]
		}
	}
	kv := group[yKeys-1]
	used := map[uint64]bool{slot(kv, 0): true}
	var others []string // filler, A's key, B's key
	for i := 0; len(others) < 3; i++ {
		if k := fmt.Sprintf("g%03d", i); !used[slot(k, 0)] {
			used[slot(k, 0)] = true
			others = append(others, k)
		}
	}
	filler, ka, kb := others[0], others[1], others[2]

	for k := 1; ; k++ {
		var parkedAt atomic.Bool
		h := &crashHist{stride: 1, roots: []histRoot{{name: "m", sel: true, bind: mxBind((*Store).Map, mxMapOps)}}}
		h.setup = func(e *histEnv) {
			m, _ := e.db.Store().Map("m")
			for _, g := range append(group[:yKeys-1:yKeys-1], filler) {
				m.Set([]byte(g), []byte("y")) // an even count: the last folds
			}
			m.Set([]byte(kv), []byte("v")) // one record pending: the next Set folds
			heap := e.db.Store().heap
			rs, _ := heap.RootSlot("m")
			if _, _, n := funcds.SelectiveExt(heap, heap.Root(rs)); n != 1 {
				e.t.Fatalf("%d records pending after setup, want 1", n)
			}
			if c := funcds.Crown(heap, heap.Root(rs)); len(c) < 3 {
				e.t.Fatalf("crown of %d nodes after setup, want root, X, Y and any node below", len(c))
			}
		}
		h.window = func(e *histEnv, r *histRec) {
			s := e.db.Store()
			a, _ := s.Fork().Map("m") // bound up front: a bind takes the root's commit mutex
			b, _ := s.Fork().Map("m")
			rs, _ := s.heap.RootSlot("m")
			ckpt, _, _ := funcds.SelectiveExt(s.heap, s.heap.Root(rs))
			// A checksum write into a volatile block is a fold's seal:
			// nothing else writes the word of a live navigation node.
			var seals atomic.Int32
			parked, resume, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
			r.p.onWrite = func(addr pmem.Addr) {
				if s.heap.IsVolatile(addr+alloc.HeaderSize-8) && seals.Add(1) == int32(k) {
					parked <- struct{}{}
					<-resume
				}
			}
			before := s.CommitStats()
			go func() {
				defer close(done)
				r.do("a", []durcheck.Effect{{Key: ka, Val: "a"}}, func() { a.Set([]byte(ka), []byte("a")) })
			}()
			select {
			case <-done: // A's crown has fewer than k nodes
				return
			case <-parked:
			}
			parkedAt.Store(true)
			r.do("b", []durcheck.Effect{{Key: kb, Val: "b"}}, func() { b.Set([]byte(kb), []byte("b")) })
			if c, _, n := funcds.SelectiveExt(s.heap, s.heap.Root(rs)); c == ckpt || n != 0 {
				e.t.Errorf("B's Set left checkpoint %#x (was %#x) and %d records; want it to fold", uint64(c), uint64(ckpt), n)
			}
			r.crash()
			close(resume)
			<-done
			if st := s.CommitStats(); st.FastWins == before.FastWins || st.FastLosses == before.FastLosses {
				e.t.Errorf("%d CAS wins, %d losses; want B's CAS to win and A's to lose", st.FastWins-before.FastWins, st.FastLosses-before.FastLosses)
			}
		}
		t.Run(fmt.Sprint("park-at-seal-", k), func(t *testing.T) { h.run(t) })
		if !parkedAt.Load() {
			if k < 4 {
				t.Fatalf("A's fold sealed only %d nodes, want its root, X and Y", k-1)
			}
			return
		}
	}
}
