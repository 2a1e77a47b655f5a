package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

func newTestSharded(t testing.TB, shards int) *DB {
	t.Helper()
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	return openShards(t, cfg, shards)
}

// openShards formats a fresh DB with the given shard count.
func openShards(t testing.TB, cfg pmem.Config, shards int, opts ...Option) *DB {
	t.Helper()
	db, _, err := Open(cfg, append(opts, WithShards(shards))...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// metaStats returns the metadata region's device counters.
func metaStats(db *DB) pmem.Stats { return db.Regions().Device(db.ShardCount()).Stats() }

func sKey(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestShardedRoutingDeterministic(t *testing.T) {
	ss := newTestSharded(t, 4)
	names := []string{"users", "orders", "inventory", "sessions", "", "a", "aa"}
	for _, nm := range names {
		si := ss.ShardFor(nm)
		if si < 0 || si >= ss.ShardCount() {
			t.Fatalf("ShardFor(%q) = %d out of range", nm, si)
		}
		if again := ss.ShardFor(nm); again != si {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", nm, si, again)
		}
		m, err := ss.Map(nm + "-m")
		if err != nil {
			t.Fatal(err)
		}
		m.Set([]byte(nm+"-k"), []byte(nm+"-v"))
		// The data must live on exactly the routed shard's heap.
		owner := ss.ShardFor(nm + "-m")
		if !ss.Shard(owner).Heap().HasRoot(nm + "-m") {
			t.Errorf("root %q-m not on routed shard %d", nm, owner)
		}
		for i := 0; i < ss.ShardCount(); i++ {
			if i != owner && ss.Shard(i).Heap().HasRoot(nm+"-m") {
				t.Errorf("root %q-m also on shard %d (owner %d)", nm, i, owner)
			}
		}
	}
	// Rebinding resolves to the same shard and sees the data.
	m, err := ss.Map("users-m")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Get([]byte("users-k")); !ok || string(v) != "users-v" {
		t.Fatalf("rebound handle lost data: %q %v", v, ok)
	}
}

// TestShardedSingleShardFences pins the headline property: sharding
// leaves the single-shard cost untouched. A Basic update on a sharded
// store is one FASE with exactly one fence, on the owning shard's
// device only.
func TestShardedSingleShardFences(t *testing.T) {
	ss := newTestSharded(t, 4)
	m, err := ss.Map("fences")
	if err != nil {
		t.Fatal(err)
	}
	owner := ss.ShardFor("fences")
	ss.Sync()
	base := make([]pmem.Stats, ss.ShardCount())
	for i := range base {
		base[i] = ss.Shard(i).Stats()
	}
	metaBase := metaStats(ss)

	const ops = 50
	for i := 0; i < ops; i++ {
		m.Set(sKey(i), sKey(i*7))
	}
	for i := 0; i < ss.ShardCount(); i++ {
		d := ss.Shard(i).Stats().Sub(base[i])
		want := uint64(0)
		if i == owner {
			want = ops
		}
		if d.Fences != want {
			t.Errorf("shard %d: %d fences for %d ops, want %d", i, d.Fences, ops, want)
		}
	}
	if d := metaStats(ss).Sub(metaBase); d.Fences != 0 || d.Writes != 0 {
		t.Errorf("metadata region touched by single-shard ops: %+v", d)
	}
}

// TestShardedSingleShardBatchDelegates checks a DB batch whose ops land
// on one shard uses that shard's 1-fence publication, not the manifest.
func TestShardedSingleShardBatchDelegates(t *testing.T) {
	ss := newTestSharded(t, 2)
	m, err := ss.Map("one-shard")
	if err != nil {
		t.Fatal(err)
	}
	ss.Sync()
	metaBase := metaStats(ss)
	ownerBase := ss.Shard(ss.ShardFor("one-shard")).Stats()

	b := ss.Batch()
	for i := 0; i < 16; i++ {
		b.MapSet(m, sKey(i), sKey(i))
	}
	b.Commit()

	if d := metaStats(ss).Sub(metaBase); d.Writes != 0 {
		t.Errorf("single-shard batch wrote the manifest: %+v", d)
	}
	if d := ss.Shard(ss.ShardFor("one-shard")).Stats().Sub(ownerBase); d.Fences != 1 {
		t.Errorf("single-shard 16-op batch used %d fences, want 1", d.Fences)
	}
	if got := int(m.Len()); got != 16 {
		t.Fatalf("map has %d entries, want 16", got)
	}
}

// bindOnShards returns one map per shard, bound by explicit placement.
func bindOnShards(t testing.TB, ss *DB) []*Map {
	t.Helper()
	maps := make([]*Map, ss.ShardCount())
	for i := range maps {
		m, err := ss.Shard(i).Map(fmt.Sprintf("xmap-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		maps[i] = m
	}
	return maps
}

// TestShardedCrossShardBatch commits batches spanning every shard and
// checks contents plus the manifest fence economy (2k+3 for k shards).
func TestShardedCrossShardBatch(t *testing.T) {
	ss := newTestSharded(t, 4)
	maps := bindOnShards(t, ss)
	ss.Sync()
	statsBase := ss.Stats()

	const rounds = 10
	for r := 0; r < rounds; r++ {
		b := ss.Batch()
		for si, m := range maps {
			b.MapSet(m, sKey(r), sKey(r*10+si))
		}
		b.Commit()
	}
	for si, m := range maps {
		if got := int(m.Len()); got != rounds {
			t.Fatalf("shard %d map has %d entries, want %d", si, got, rounds)
		}
		for r := 0; r < rounds; r++ {
			v, ok := m.Get(sKey(r))
			if !ok || binary.LittleEndian.Uint64(v) != uint64(r*10+si) {
				t.Fatalf("shard %d round %d: got %v %v", si, r, v, ok)
			}
		}
	}
	// k = 4 changed shards: 2k+3 = 11 fences per cross-shard commit
	// (k shadow + 2 manifest + k redo + 1 manifest retirement).
	d := ss.Stats().Sub(statsBase)
	if want := uint64(rounds * (2*len(maps) + 3)); d.Fences != want {
		t.Errorf("cross-shard commits used %d fences, want %d (2k+3 per round)", d.Fences, want)
	}
}

// TestShardedStatsSumProperty is the per-region accounting property:
// the aggregate Stats must equal the counter-wise sum of every shard's
// stats plus the metadata region's — no region dropped, none counted
// twice — across a workload that exercises per-op, single-shard batch,
// and cross-shard manifest paths.
func TestShardedStatsSumProperty(t *testing.T) {
	ss := newTestSharded(t, 3)
	maps := bindOnShards(t, ss)
	ss.Sync()
	aggBase := ss.Stats()

	for i := 0; i < 40; i++ {
		maps[i%3].Set(sKey(i), sKey(i))
	}
	b := ss.Batch()
	for i := 0; i < 8; i++ {
		b.MapSet(maps[0], sKey(100+i), sKey(i))
	}
	b.Commit() // single shard
	cross := ss.Batch()
	for i := 0; i < 6; i++ {
		cross.MapSet(maps[i%3], sKey(200+i), sKey(i))
	}
	cross.Commit() // manifest path
	ss.Sync()

	agg := ss.Stats()
	var sum pmem.Stats
	for i := 0; i < ss.ShardCount(); i++ {
		sum = sum.Add(ss.Shard(i).Stats())
	}
	sum = sum.Add(metaStats(ss))

	type pair struct {
		name     string
		agg, sum uint64
	}
	for _, p := range []pair{
		{"flushes", agg.Flushes, sum.Flushes},
		{"fences", agg.Fences, sum.Fences},
		{"reads", agg.Reads, sum.Reads},
		{"writes", agg.Writes, sum.Writes},
		{"bytes-read", agg.BytesRead, sum.BytesRead},
		{"bytes-written", agg.BytesWritten, sum.BytesWritten},
		{"batches", agg.Batches, sum.Batches},
		{"batched-ops", agg.BatchedOps, sum.BatchedOps},
		{"flushes-saved", agg.FlushesSaved, sum.FlushesSaved},
		{"copies-elided", agg.CopiesElided, sum.CopiesElided},
	} {
		if p.agg != p.sum {
			t.Errorf("%s: aggregate %d != per-region sum %d", p.name, p.agg, p.sum)
		}
	}
	if agg.Fences == 0 || agg.Flushes == 0 {
		t.Fatal("degenerate workload: no fences/flushes recorded")
	}
	// Independent cross-check against the known op mix since the
	// baseline: 40 basic ops at 1 fence each + 1 single-shard batch
	// (1 fence) + 1 cross-shard batch over 3 shards (2*3+3) + the final
	// Sync. Sync is two fences per shard here — Fence, then the Drain
	// fence that frees the cascade-stamped deferred backlog every
	// commit's superseded root left behind — plus one on the metadata
	// region, whose heap has no deferred releases. A double-counted
	// region would break this exact count.
	sync := uint64(2*ss.ShardCount() + 1)
	if d, want := agg.Sub(aggBase), 40+1+uint64(2*ss.ShardCount()+3)+sync; d.Fences != want {
		t.Errorf("aggregate fence delta = %d, want %d", d.Fences, want)
	}
}

// TestShardedCleanReopen round-trips a sharded store through crash
// images with no in-flight commit: every shard's contents survive and
// parallel recovery reports per-shard stats.
func TestShardedCleanReopen(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 4)
	maps := bindOnShards(t, ss)
	for i := 0; i < 30; i++ {
		maps[i%4].Set(sKey(i), sKey(i*3))
	}
	ss.Sync()

	imgs := ss.CrashImages(pmem.CrashFencedOnly, 1)
	ss2, rs, err := Open(cfg, WithExistingImages(imgs))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.PerShard) != 4 {
		t.Fatalf("got %d per-shard stats, want 4", len(rs.PerShard))
	}
	if rs.ManifestReplayed {
		t.Error("clean image replayed a manifest")
	}
	if rs.Stats.Roots == 0 {
		t.Error("recovery found no roots")
	}
	maps2 := bindOnShards(t, ss2)
	for i := 0; i < 30; i++ {
		v, ok := maps2[i%4].Get(sKey(i))
		if !ok || binary.LittleEndian.Uint64(v) != uint64(i*3) {
			t.Fatalf("key %d lost after reopen", i)
		}
	}
	// The reopened store must keep committing, including cross-shard.
	b := ss2.Batch()
	for si, m := range maps2 {
		b.MapSet(m, sKey(1000+si), sKey(si))
	}
	b.Commit()
	for si, m := range maps2 {
		if _, ok := m.Get(sKey(1000 + si)); !ok {
			t.Fatalf("post-recovery cross-shard commit lost shard %d", si)
		}
	}
}

// TestShardedMidManifestCrashSweep injects a power failure at every PM
// write of one cross-shard commit — while shadows build, inside the
// manifest's intent and commit-point windows, and between the per-shard
// redo swaps — and checks recovery is all-or-nothing across shards.
func TestShardedMidManifestCrashSweep(t *testing.T) {
	const shards = 3
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true

	// Dry run: count the PM writes one cross-shard commit performs.
	prep := func() (*DB, []*Map) {
		ss := openShards(t, cfg, shards)
		maps := bindOnShards(t, ss)
		for i := 0; i < 6; i++ {
			maps[i%shards].Set(sKey(i), sKey(i*3))
		}
		ss.Sync()
		return ss, maps
	}
	commit := func(ss *DB, maps []*Map) {
		b := ss.Batch()
		for si, m := range maps {
			b.MapSet(m, sKey(500+si), sKey(si*11))
		}
		b.Commit()
	}
	ss, maps := prep()
	counter := pmem.NewMultiCrashCountdown(ss.Regions().Devices(), 1<<30, pmem.CrashFencedOnly, 0)
	counter.Install()
	base := ss.Stats().Writes
	commit(ss, maps)
	counter.Uninstall()
	totalWrites := int(ss.Stats().Writes - base)
	if totalWrites < 10 {
		t.Fatalf("implausibly few writes in a cross-shard commit: %d", totalWrites)
	}

	sawReplay := false
	for inj := 1; inj <= totalWrites; inj++ {
		ss, maps := prep()
		tr := pmem.NewMultiCrashCountdown(ss.Regions().Devices(), inj, pmem.CrashEvictRandom, uint64(inj)*77+1)
		tr.Install()
		commit(ss, maps)
		tr.Uninstall()
		imgs := tr.Images()
		if imgs == nil {
			t.Fatalf("inj %d: countdown never expired (%d writes)", inj, totalWrites)
		}
		ss2, rs, err := Open(cfg, WithExistingImages(imgs))
		if err != nil {
			t.Fatalf("inj %d: recovery: %v", inj, err)
		}
		sawReplay = sawReplay || rs.ManifestReplayed
		maps2 := bindOnShards(t, ss2)
		inShard := make([]bool, shards)
		for si, m := range maps2 {
			_, inShard[si] = m.Get(sKey(500 + si))
		}
		for si := 1; si < shards; si++ {
			if inShard[si] != inShard[0] {
				t.Fatalf("inj %d: batch torn across shards: %v", inj, inShard)
			}
		}
		// The committed prefix must always survive.
		for i := 0; i < 6; i++ {
			v, ok := maps2[i%shards].Get(sKey(i))
			if !ok || binary.LittleEndian.Uint64(v) != uint64(i*3) {
				t.Fatalf("inj %d: committed key %d lost", inj, i)
			}
		}
		// And the recovered store must still commit cross-shard batches.
		b := ss2.Batch()
		for si, m := range maps2 {
			b.MapSet(m, sKey(900+si), sKey(si))
		}
		b.Commit()
		for si, m := range maps2 {
			if _, ok := m.Get(sKey(900 + si)); !ok {
				t.Fatalf("inj %d: store unusable after recovery (shard %d)", inj, si)
			}
		}
	}
	if !sawReplay {
		t.Error("no injection point exercised manifest replay")
	}
}

// TestShardedManifestRetirementDurable is the regression test for a
// stale-manifest rollback: the manifest's idle mark must be durable
// before the cross-shard commit returns, because no later single-shard
// commit ever fences the metadata region. Without the retirement fence,
// a later durably-committed single-shard update followed by a crash
// would find the old manifest still committed and replay it, rolling
// the root back to the batch's version.
func TestShardedManifestRetirementDurable(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 2)
	maps := bindOnShards(t, ss)
	ss.Sync()

	// A completed cross-shard batch writes key "a" = "old" on shard 0.
	b := ss.Batch()
	b.MapSet(maps[0], []byte("a"), []byte("old"))
	b.MapSet(maps[1], []byte("b"), []byte("old"))
	b.Commit()

	// A later durable single-shard commit supersedes it — note no
	// cross-shard commit and no ss.Sync() ever fences the meta region
	// between here and the crash.
	maps[0].Set([]byte("a"), []byte("new"))
	ss.Shard(0).Sync()

	imgs := ss.CrashImages(pmem.CrashFencedOnly, 1)
	ss2, rs, err := Open(cfg, WithExistingImages(imgs))
	if err != nil {
		t.Fatal(err)
	}
	if rs.ManifestReplayed {
		t.Error("retired manifest replayed after a later commit")
	}
	maps2 := bindOnShards(t, ss2)
	v, ok := maps2[0].Get([]byte("a"))
	if !ok || string(v) != "new" {
		t.Fatalf("later durable commit rolled back: a = %q (ok=%v), want \"new\"", v, ok)
	}
}

// TestShardedManifestRetiresLiveRecord: a shard's multi-root batch leaves
// its batch record live, and a cross-shard batch then republishes one of
// that record's roots through the manifest. The manifest's per-shard
// fence covers the record's swaps, so the shard retires the record behind
// it before the redo swap; otherwise recovery would roll the root back
// onto the local batch's version once a fence had made the cross-shard
// value durable.
func TestShardedManifestRetiresLiveRecord(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 2)
	a, _ := ss.Shard(0).Map("a")
	b, _ := ss.Shard(0).Map("b")
	c, _ := ss.Shard(1).Map("c")
	ss.Sync()

	local := ss.Batch() // both roots on shard 0: its batch record
	local.MapSet(a, []byte("k"), []byte("local"))
	local.MapSet(b, []byte("k"), []byte("local"))
	local.Commit()
	cross := ss.Batch()
	cross.MapSet(a, []byte("k"), []byte("cross"))
	cross.MapSet(c, []byte("k"), []byte("cross"))
	cross.Commit()
	ss.Sync()

	ss2, _, err := Open(cfg, WithExistingImages(ss.CrashImages(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		shard int
		name  string
		want  string
	}{{0, "a", "cross"}, {0, "b", "local"}, {1, "c", "cross"}} {
		m, _ := ss2.Shard(probe.shard).Map(probe.name)
		if v, ok := m.Get([]byte("k")); !ok || string(v) != probe.want {
			t.Errorf("%s: k = %q, %v after recovery; want %q", probe.name, v, ok, probe.want)
		}
	}
}

// TestShardedConcurrentWriters drives writers on all shards through
// forked handles under -race: per-shard Basic ops plus periodic
// cross-shard batches.
func TestShardedConcurrentWriters(t *testing.T) {
	ss := newTestSharded(t, 4)
	maps := bindOnShards(t, ss)
	for i := 0; i < ss.ShardCount(); i++ {
		ss.Shard(i).StartGroupCommitter(0)
		defer ss.Shard(i).StopGroupCommitter()
	}

	const writers = 4
	const ops = 80
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := ss.Fork()
			m, err := h.Shard(w % h.ShardCount()).Map(fmt.Sprintf("xmap-%d", w%h.ShardCount()))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < ops; i++ {
				m.Set(sKey(w*1000+i), sKey(i))
				if i%16 == 15 {
					b := h.Batch()
					for si := 0; si < h.ShardCount(); si++ {
						mm, err := h.Shard(si).Map(fmt.Sprintf("xmap-%d", si))
						if err != nil {
							t.Error(err)
							return
						}
						b.MapSet(mm, sKey(w*10000+i), sKey(i))
					}
					b.Commit()
				}
			}
		}(w)
	}
	wg.Wait()
	ss.Sync()
	for w := 0; w < writers; w++ {
		m := maps[w%4]
		for i := 0; i < ops; i++ {
			if _, ok := m.Get(sKey(w*1000 + i)); !ok {
				t.Fatalf("writer %d op %d lost", w, i)
			}
		}
	}
}

// TestOpenShardedRejectsBadInput checks shape validation.
func TestOpenShardedRejectsBadInput(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 2)
	ss.Sync()
	imgs := ss.CrashImages(pmem.CrashFencedOnly, 1)
	if _, _, err := Open(cfg, WithExistingImages(imgs[:1]), WithShards(2)); !errors.Is(err, ErrShardCount) {
		t.Errorf("open with too few images: %v, want ErrShardCount", err)
	}
	if _, _, err := Open(cfg, WithExistingImages([][]byte{imgs[0], imgs[1], imgs[0], imgs[2]})); err == nil {
		t.Error("open with wrong shard count must fail")
	}
	if _, _, err := Open(cfg, WithExistingImages([][]byte{imgs[0], imgs[1], imgs[0]})); err == nil {
		t.Error("open with a shard image as metadata must fail")
	}
	// One shard plus metadata is no layout: a manifest needs two shards.
	if _, _, err := Open(cfg, WithExistingImages([][]byte{imgs[0], imgs[2]})); !errors.Is(err, ErrShardCount) {
		t.Errorf("open with 1 shard + metadata: %v, want ErrShardCount", err)
	}
}
