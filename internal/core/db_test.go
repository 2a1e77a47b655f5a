package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

func dbConfig() pmem.Config {
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	return cfg
}

// TestOpenSingleRoundtrip covers the single-heap Open path: fresh open,
// writes, crash, reopen via WithExistingImages.
func TestOpenSingleRoundtrip(t *testing.T) {
	db, info, err := Open(dbConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if info.Recovered {
		t.Fatal("fresh open reported Recovered")
	}
	if db.Store() == nil || db.Store() != db.Shard(0) || db.ShardCount() != 1 {
		t.Fatal("single open is not a one-shard DB")
	}
	m, err := db.Map("users")
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	m.Set([]byte("ada"), []byte("lovelace"))
	db.Sync()
	imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
	if len(imgs) != 1 {
		t.Fatalf("single CrashImages returned %d images", len(imgs))
	}

	db2, info2, err := Open(dbConfig(), WithExistingImages(imgs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !info2.Recovered || len(info2.PerShard) != 1 {
		t.Fatalf("reopen info = %+v, want Recovered with 1 shard entry", info2)
	}
	m2, err := db2.Map("users")
	if err != nil {
		t.Fatalf("map after reopen: %v", err)
	}
	if v, ok := m2.Get([]byte("ada")); !ok || string(v) != "lovelace" {
		t.Fatalf("lost committed write: %q %v", v, ok)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestOpenShardedRoundtrip covers the sharded Open path, including the
// image-count-driven shard inference on reopen.
func TestOpenShardedRoundtrip(t *testing.T) {
	db, _, err := Open(dbConfig(), WithShards(4), WithCommitter(0))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if db.Store() != nil || db.ShardCount() != 4 || db.Regions().Len() != 4 {
		t.Fatal("sharded open is not a 4-shard DB over 4 regions")
	}
	maps := make([]*Map, 8)
	for i := range maps {
		m, err := db.Map(fmt.Sprintf("kv:%d", i))
		if err != nil {
			t.Fatalf("map %d: %v", i, err)
		}
		maps[i] = m
	}
	b := db.Batch()
	for i, m := range maps {
		b.MapSet(m, []byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	tk := b.CommitAsync()
	tk.Wait()
	if err := tk.Err(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
	if len(imgs) != 4 {
		t.Fatalf("sharded CrashImages returned %d images, want 4", len(imgs))
	}

	db2, info, err := Open(dbConfig(), WithExistingImages(imgs))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !info.Recovered || len(info.PerShard) != 4 || db2.ShardCount() != 4 {
		t.Fatalf("reopen info = %+v shards = %d", info, db2.ShardCount())
	}
	for i := 0; i < 8; i++ {
		m, err := db2.Map(fmt.Sprintf("kv:%d", i))
		if err != nil {
			t.Fatalf("map %d after reopen: %v", i, err)
		}
		if _, ok := m.Get([]byte(fmt.Sprintf("k%d", i))); !ok {
			t.Fatalf("lost acked batch write k%d", i)
		}
	}
	db.Close()
}

// TestOpenOptionsSmoke exercises WithSelective through a crash
// roundtrip: selective structures must rebuild their volatile navigation
// on reopen.
func TestOpenOptionsSmoke(t *testing.T) {
	db, _, err := Open(dbConfig(), WithSelective(8))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	v, err := db.Vector("log")
	if err != nil {
		t.Fatalf("vector: %v", err)
	}
	for i := uint64(0); i < 50; i++ {
		v.Push(i)
	}
	db.Sync()
	imgs := db.CrashImages(pmem.CrashFencedOnly, 7)

	db2, _, err := Open(dbConfig(), WithExistingImages(imgs), WithSelective(8))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	v2, err := db2.Vector("log")
	if err != nil {
		t.Fatalf("vector after reopen: %v", err)
	}
	if v2.Len() != 50 {
		t.Fatalf("selective vector lost entries: len %d", v2.Len())
	}
	db.Close()
}

// TestOpenShardCountErrors pins the ErrShardCount cases.
func TestOpenShardCountErrors(t *testing.T) {
	if _, _, err := Open(dbConfig(), WithShards(0)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("WithShards(0): %v, want ErrShardCount", err)
	}
	db, _, err := Open(dbConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
	db.Close()
	if _, _, err := Open(dbConfig(), WithExistingImages(imgs), WithShards(4)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("4 shards from one image: %v, want ErrShardCount", err)
	}

	sdb, _, err := Open(dbConfig(), WithShards(2))
	if err != nil {
		t.Fatalf("sharded open: %v", err)
	}
	simgs := sdb.CrashImages(pmem.CrashFencedOnly, 1)
	sdb.Close()
	if _, _, err := Open(dbConfig(), WithExistingImages(simgs), WithShards(3)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("3 shards from 2-shard images: %v, want ErrShardCount", err)
	}
	if db2, _, err := Open(dbConfig(), WithExistingImages(simgs)); err != nil {
		t.Fatalf("shard inference from images failed: %v", err)
	} else {
		if db2.ShardCount() != 2 {
			t.Fatalf("inferred %d shards, want 2", db2.ShardCount())
		}
		db2.Close()
	}
}

// TestSentinelErrors pins errors.Is dispatch for the root-binding
// failures the server layer maps onto protocol errors.
func TestSentinelErrors(t *testing.T) {
	db, _, err := Open(dbConfig())
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer db.Close()
	if _, err := db.Map("__mod_internal"); !errors.Is(err, ErrReservedRootName) {
		t.Fatalf("reserved name: %v, want ErrReservedRootName", err)
	}
	if _, err := db.Map("things"); err != nil {
		t.Fatalf("map: %v", err)
	}
	if _, err := db.Vector("things"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding map root as vector: %v, want ErrWrongRootKind", err)
	}
	if _, err := db.Stack("things"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding map root as stack: %v, want ErrWrongRootKind", err)
	}
	// Map and Set share the CHAMP header, so rebinding across those two
	// is allowed by construction; a queue root must still reject both.
	if _, err := db.Queue("q"); err != nil {
		t.Fatalf("queue: %v", err)
	}
	if _, err := db.Set("q"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding queue root as set: %v, want ErrWrongRootKind", err)
	}
	if _, err := db.Store().Parent("things", "a"); !errors.Is(err, ErrWrongRootKind) {
		t.Fatalf("rebinding map root as parent: %v, want ErrWrongRootKind", err)
	}
}

// TestCloseIdempotent checks Close/Sync safety: twice, after Sync,
// after a failed open, and binding/committing after Close.
func TestCloseIdempotent(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, _, err := Open(dbConfig(), WithShards(shards), WithCommitter(0))
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			m, err := db.Map("kv:0")
			if err != nil {
				t.Fatalf("map: %v", err)
			}
			m.Set([]byte("k"), []byte("v"))
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			if err := db.Close(); err != nil {
				t.Fatalf("second close: %v", err)
			}
			db.Sync() // must not deadlock or panic after close

			if _, err := db.Map("late"); !errors.Is(err, ErrStoreClosed) {
				t.Fatalf("bind after close: %v, want ErrStoreClosed", err)
			}
			b := db.Batch()
			b.MapSet(m, []byte("k2"), []byte("v2"))
			tk := b.CommitAsync()
			tk.Wait() // must resolve, not hang on a closed queue
			if !errors.Is(tk.Err(), ErrStoreClosed) {
				t.Fatalf("CommitAsync after close: %v, want ErrStoreClosed", tk.Err())
			}
		})
	}

	// A failed open returns a nil DB; deferred Close/Sync must not panic.
	db, _, err := Open(dbConfig(), WithShards(0))
	if err == nil {
		t.Fatal("expected open failure")
	}
	db.Close()
	db.Sync()
}

// TestKVInterface drives the same workload through the KV seam over
// each DB layout, to pin the interface contract.
func TestKVInterface(t *testing.T) {
	for name, opts := range map[string][]Option{
		"store":   nil,
		"sharded": {WithShards(2)},
		"db":      {WithShards(2), WithCommitter(0)},
	} {
		t.Run(name, func(t *testing.T) {
			db, _, err := Open(dbConfig(), opts...)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			var kv KV = db
			defer kv.Close()
			w := kv.ForkKV()
			m, err := w.Map("m")
			if err != nil {
				t.Fatalf("map: %v", err)
			}
			q, err := w.Queue("q")
			if err != nil {
				t.Fatalf("queue: %v", err)
			}
			b := w.Batch()
			b.MapSet(m, []byte("k"), []byte("v"))
			b.QueueEnqueue(q, 42)
			if b.Len() != 2 {
				t.Fatalf("batch len %d", b.Len())
			}
			tk := b.CommitAsync()
			tk.Wait()
			if err := tk.Err(); err != nil {
				t.Fatalf("commit: %v", err)
			}
			w.Sync()
			if _, ok := m.Get([]byte("k")); !ok {
				t.Fatal("map write lost")
			}
			if v, ok := q.Peek(); !ok || v != 42 {
				t.Fatal("queue write lost")
			}
			if kv.Stats().Fences == 0 {
				t.Fatal("stats not wired")
			}
		})
	}
}

// TestSingleShardEquivalence pins that a single heap is the S=1 case of
// the one store shape: Open(cfg) and Open(cfg, WithShards(1)) run the
// same seeded op sequence to identical device counters, carry no
// metadata region, and reopen from a one-image CrashImages.
func TestSingleShardEquivalence(t *testing.T) {
	run := func(opts ...Option) (pmem.Stats, [][]byte) {
		db, _, err := Open(dbConfig(), opts...)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		defer db.Close()
		if db.ShardCount() != 1 || db.Regions().Len() != 1 || db.Store() == nil {
			t.Fatalf("%d shards over %d regions, want a lone heap", db.ShardCount(), db.Regions().Len())
		}
		m, err := db.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		v, err := db.Vector("v")
		if err != nil {
			t.Fatal(err)
		}
		q, err := db.Queue("q")
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 40; i++ {
			m.Set(sKey(rng.Intn(16)), sKey(rng.Int()))
			v.Push(rng.Uint64())
		}
		b := db.Batch()
		for i := 0; i < 6; i++ {
			b.MapSet(m, sKey(100+i), sKey(i))
			b.VectorUpdate(v, uint64(i), rng.Uint64())
			b.QueueEnqueue(q, uint64(i))
		}
		b.Commit() // three roots: the batch-record path
		if err := db.Store().CommitUnrelated(
			Update{DS: v, Shadows: []Version{v.PurePush(1)}},
			Update{DS: q, Shadows: []Version{q.PureEnqueue(2)}},
		); err != nil {
			t.Fatal(err)
		}
		db.Sync()
		return db.Stats(), db.CrashImages(pmem.CrashFencedOnly, 3)
	}
	plain, imgs := run()
	one, _ := run(WithShards(1))
	if plain.Fences != one.Fences || plain.Flushes != one.Flushes || plain.BytesWritten != one.BytesWritten ||
		plain.Writes != one.Writes || plain.Reads != one.Reads || plain.TotalNs != one.TotalNs {
		t.Fatalf("WithShards(1) diverges from the default open:\n%+v\n%+v", plain, one)
	}
	if len(imgs) != 1 {
		t.Fatalf("CrashImages returned %d images, want 1", len(imgs))
	}
	db2, info, err := Open(dbConfig(), WithExistingImages(imgs), WithShards(1))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if !info.Recovered || len(info.PerShard) != 1 {
		t.Fatalf("reopen info = %+v", info)
	}
	q2, err := db2.Queue("q")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Len() != 7 {
		t.Fatalf("recovered queue has %d entries, want 7", q2.Len())
	}
}

// TestBatchForeignHandlePanics pins that a batch refuses a handle bound
// through another DB instead of applying its op against the wrong heap.
func TestBatchForeignHandlePanics(t *testing.T) {
	for _, shards := range []int{1, 2} {
		db, _, err := Open(dbConfig(), WithShards(shards))
		if err != nil {
			t.Fatal(err)
		}
		other, _, err := Open(dbConfig())
		if err != nil {
			t.Fatal(err)
		}
		foreign, err := other.Map("m")
		if err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]Batcher{"db": db.Batch(), "store": db.Shard(0).NewBatch()} {
			func() {
				defer func() {
					want := `core: datastructure "m" does not belong to this sharded store`
					if r := recover(); r != want {
						t.Errorf("shards=%d %s batch: recovered %v, want %q", shards, name, r, want)
					}
				}()
				b.MapSet(foreign, []byte("k"), []byte("v"))
			}()
		}
		db.Close()
		other.Close()
	}
}

// TestOpenShardedAttachDeadLine is the regression test for a crash the
// sharded attach used to take the whole process down with: a dead line
// in a shard's live data panics inside that shard's recovery goroutine,
// where only a recover on the same goroutine can turn it into the typed
// error the single-heap attach always returned.
func TestOpenShardedAttachDeadLine(t *testing.T) {
	cfg := dbConfig()
	devs := []pmem.Backend{pmem.New(cfg), pmem.New(cfg)}
	db, _, err := Open(cfg, WithDevices(devs...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := db.Shard(i).Map("m")
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 2000; k++ { // enough to push the heap's blocks into the lower half
			m.Set(sKey(k), sKey(k*3))
		}
	}
	db.Close()

	lo, hi := db.Shard(1).Heap().DataBounds()
	dev := devs[1].(*pmem.Device)
	for a := lo + (hi-lo)/2; a < hi; a += pmem.LineSize {
		dev.MarkLineDead(a)
	}
	_, _, err = Open(cfg, WithDevices(devs...), WithAttach())
	var cerr *CorruptionError
	if !errors.Is(err, ErrCorrupted) || !errors.As(err, &cerr) || cerr.Shard != 1 {
		t.Fatalf("attach over a dead line in shard 1: %v, want ErrCorrupted with Shard == 1", err)
	}
}
