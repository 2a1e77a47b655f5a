package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/durcheck"
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
		if i != owner && d.Writes != 0 {
			t.Errorf("shard %d written by another shard's ops: %+v", i, d)
		}
	}
}

// TestShardedSingleShardBatchDelegates checks a DB batch whose ops land
// on one shard uses that shard's 1-fence publication and touches no
// other shard.
func TestShardedSingleShardBatchDelegates(t *testing.T) {
	ss := newTestSharded(t, 2)
	m, err := ss.Map("one-shard")
	if err != nil {
		t.Fatal(err)
	}
	ss.Sync()
	owner := ss.ShardFor("one-shard")
	otherBase := ss.Shard(1 - owner).Stats()
	ownerBase := ss.Shard(owner).Stats()

	b := ss.Batch()
	for i := 0; i < 16; i++ {
		b.MapSet(m, sKey(i), sKey(i))
	}
	b.Commit()

	if d := ss.Shard(1 - owner).Stats().Sub(otherBase); d.Writes != 0 || d.Fences != 0 {
		t.Errorf("single-shard batch touched the other shard: %+v", d)
	}
	if d := ss.Shard(owner).Stats().Sub(ownerBase); d.Fences != 1 {
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
// checks contents plus the cross-shard group's fence economy: 2k for k
// shards, and one stage slot per changed root.
func TestShardedCrossShardBatch(t *testing.T) {
	ss := newTestSharded(t, 4)
	maps := bindOnShards(t, ss)
	ss.Sync()
	statsBase := ss.Stats()
	var shardBase []pmem.Stats
	for i := range maps {
		shardBase = append(shardBase, ss.Shard(i).Stats())
	}

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
	// k = 4 changed shards: 2k = 8 fences per cross-shard commit (k
	// before the swaps, k after), each shard's own.
	d := ss.Stats().Sub(statsBase)
	if want := uint64(rounds * 2 * len(maps)); d.Fences != want {
		t.Errorf("cross-shard commits used %d fences, want %d (2k per round)", d.Fences, want)
	}
	for i := range maps {
		if f := ss.Shard(i).Stats().Fences - shardBase[i].Fences; f != 2*rounds {
			t.Errorf("shard %d paid %d fences for %d cross-shard commits, want %d", i, f, rounds, 2*rounds)
		}
	}
}

// TestShardedStatsSumProperty is the per-region accounting property:
// the aggregate Stats must equal the counter-wise sum of every shard's
// stats — no region dropped, none counted twice — across a workload that
// exercises per-op, single-shard batch, and cross-shard group paths.
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
	cross.Commit() // one group over three shards
	ss.Sync()

	agg := ss.Stats()
	var sum pmem.Stats
	for i := 0; i < ss.ShardCount(); i++ {
		sum = sum.Add(ss.Shard(i).Stats())
	}

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
	// (1 fence) + 1 cross-shard batch over 3 shards (2*3) + the final
	// Sync. Sync is two fences per shard here — Fence, then the Drain
	// fence that frees the cascade-stamped deferred backlog every
	// commit's superseded root left behind. A double-counted region would
	// break this exact count.
	sync := uint64(2 * ss.ShardCount())
	if d, want := agg.Sub(aggBase), 40+1+uint64(2*ss.ShardCount())+sync; d.Fences != want {
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
	if rs.Stats.StagedRoots != 0 {
		t.Errorf("clean image moved %d roots to staged publications", rs.Stats.StagedRoots)
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

// TestShardedCrossGroupCrashSweep crashes one cross-shard commit over
// three shards at every PM write — while shadows build and members stage,
// between the first round's per-shard fences, between the per-shard swaps
// and inside the second round — under every crash policy: recovery is
// all-or-nothing across shards, and some cut rolls the group forward from
// a swap that landed on another shard.
func TestShardedCrossGroupCrashSweep(t *testing.T) {
	const shards = 3
	h := &crashHist{shards: shards}
	for i := 0; i < shards; i++ {
		h.roots = append(h.roots, histRoot{name: fmt.Sprintf("xmap-%d", i), shard: i, bind: mxBind((*Store).Map, mxMapOps)})
	}
	h.setup = func(e *histEnv) {
		for i := 0; i < 6; i++ {
			e.ops[i%shards].basic(i)
		}
	}
	h.window = func(e *histEnv, r *histRec) {
		var effs []durcheck.Effect
		for si := 0; si < shards; si++ {
			effs = append(effs, e.eff(si, 500))
		}
		r.durable("cross", effs, func() {
			b := e.db.Batch()
			for si := 0; si < shards; si++ {
				e.ops[si].batch(b, 500)
			}
			b.Commit()
		})
	}
	if r := h.run(t); r.rolls == 0 {
		t.Error("no cut rolled the cross-shard group forward")
	}
}

// TestCrossShardInterleavedHistory interleaves cross-shard publications
// with the local ones on their roots, on a 2-shard DB: a cross-shard
// batch over A (shard 0) and B (shard 1), a Basic update on A, a local
// two-root batch on shard 1 over B and C, and a second cross-shard batch
// over A and B. Every PM write on either device is a cut, under every
// crash policy: each cross-shard batch is recovered whole on both
// shards, durable once it returned, and never rolls back the local
// publications after it; some cut's recovery rolls a cross-shard
// publication forward.
func TestCrossShardInterleavedHistory(t *testing.T) {
	h := &crashHist{shards: 2, roots: []histRoot{
		{name: "xa", shard: 0, bind: mxBind((*Store).Map, mxMapOps)},
		{name: "xb", shard: 1, bind: mxBind((*Store).Map, mxMapOps)},
		{name: "xc", shard: 1, bind: mxBind((*Store).Map, mxMapOps)},
	}}
	const a, b, c = 0, 1, 2
	h.setup = func(e *histEnv) {
		for root := range e.ops {
			e.ops[root].basic(0)
		}
	}
	h.window = func(e *histEnv, r *histRec) {
		cross := func(name string, i int) {
			r.durable(name, []durcheck.Effect{e.eff(a, i), e.eff(b, i)}, func() {
				bt := e.db.Batch()
				e.ops[a].batch(bt, i)
				e.ops[b].batch(bt, i)
				bt.Commit()
			})
		}
		cross("cross-1", 1)
		// The Basic update and the local batch publish on different
		// devices, and each swap is durable only at its own device's next
		// fence: no fence orders one's durability before the other's, so
		// they are recorded as concurrent.
		basic := r.invoke("basic-a", e.eff(a, 2))
		local := r.invoke("local-bc", e.eff(b, 3), e.eff(c, 3))
		e.ops[a].basic(2)
		r.respond(basic, false)
		bt := e.db.Batch()
		e.ops[b].batch(bt, 3)
		e.ops[c].batch(bt, 3)
		bt.Commit()
		r.respond(local, false)
		cross("cross-2", 4)
	}
	if r := h.run(t); r.rolls == 0 {
		t.Error("no cut rolled a cross-shard publication forward")
	}
}

// TestShardedCrossGroupLaterCommitKept: a cross-shard group's member
// slots outlive it in the stage tables — a Basic update stages nothing —
// so recovery finds the group's slots after a later durable single-shard
// commit moved one of its roots on. It must not roll that root back to
// the group's version.
func TestShardedCrossGroupLaterCommitKept(t *testing.T) {
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
	slot, _ := ss.Shard(0).heap.RootSlot("xmap-0")
	cell := ss.Shard(0).heap.RootCellAddr(slot)
	member := ss.Shard(0).heap.StageSlotAddr(slot, int(ss.Shard(0).dev.ReadU64(cell)>>35&1))

	// A later durable single-shard commit supersedes it.
	maps[0].Set([]byte("a"), []byte("new"))
	ss.Shard(0).Sync()

	imgs := ss.CrashImages(pmem.CrashFencedOnly, 1)
	if binary.LittleEndian.Uint64(imgs[0][member+24:]) == 0 {
		t.Fatal("the cross-shard group's member slot is gone from the image: nothing to test")
	}
	ss2, rs, err := Open(cfg, WithExistingImages(imgs))
	if err != nil {
		t.Fatal(err)
	}
	if rs.Stats.StagedRoots != 0 {
		t.Errorf("recovery moved %d roots to staged publications", rs.Stats.StagedRoots)
	}
	maps2 := bindOnShards(t, ss2)
	v, ok := maps2[0].Get([]byte("a"))
	if !ok || string(v) != "new" {
		t.Fatalf("later durable commit rolled back: a = %q (ok=%v), want \"new\"", v, ok)
	}
}

// TestShardedCrossGroupOverLocalGroup: a shard's multi-root batch leaves
// its group's member slots in the stage table, a cross-shard batch then
// republishes one of that group's roots past the member's final, and a
// second local batch republishes it again. Recovery must roll back none
// of those publications — neither onto the first local batch's version
// nor onto the cross-shard group's — nor lose the batches' other roots.
func TestShardedCrossGroupOverLocalGroup(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 2)
	a, _ := ss.Shard(0).Map("a")
	b, _ := ss.Shard(0).Map("b")
	c, _ := ss.Shard(1).Map("c")
	d, _ := ss.Shard(0).Map("d")
	ss.Sync()

	local := ss.Batch() // both roots on shard 0: a local group
	local.MapSet(a, []byte("k"), []byte("local"))
	local.MapSet(b, []byte("k"), []byte("local"))
	local.Commit()
	cross := ss.Batch()
	cross.MapSet(a, []byte("k"), []byte("cross"))
	cross.MapSet(c, []byte("k"), []byte("cross"))
	cross.Commit()
	later := ss.Batch()
	later.MapSet(a, []byte("k2"), []byte("later"))
	later.MapSet(d, []byte("k"), []byte("later"))
	later.Commit()
	ss.Sync()

	ss2, _, err := Open(cfg, WithExistingImages(ss.CrashImages(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		shard     int
		name, key string
		want      string
	}{{0, "a", "k", "cross"}, {0, "a", "k2", "later"}, {0, "b", "k", "local"}, {1, "c", "k", "cross"}, {0, "d", "k", "later"}} {
		m, _ := ss2.Shard(probe.shard).Map(probe.name)
		if v, ok := m.Get([]byte(probe.key)); !ok || string(v) != probe.want {
			t.Errorf("%s: %s = %q, %v after recovery; want %q", probe.name, probe.key, v, ok, probe.want)
		}
	}
}

// TestShardedConcurrentWriters drives writers on all shards through
// forked handles under -race: per-shard Basic ops plus periodic
// cross-shard batches.
func TestShardedConcurrentWriters(t *testing.T) {
	ss := newTestSharded(t, 4)
	maps := bindOnShards(t, ss)

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

// TestShardedDisjointCrossCommitsConcurrent: cross-shard batches on
// disjoint shard pairs share no lock and run at once, each goroutine
// interleaving them with local two-root batches, all numbering their
// groups from the DB's one counter. Every batch is recovered from a
// crash image taken after Sync.
func TestShardedDisjointCrossCommitsConcurrent(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 4)
	const rounds = 40
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := ss.Fork()
			var maps []*Map
			for _, nm := range []string{"p", "q"} {
				for si := 2 * g; si < 2*g+2; si++ {
					m, err := h.Shard(si).Map(fmt.Sprintf("%s-%d", nm, si))
					if err != nil {
						t.Error(err)
						return
					}
					maps = append(maps, m) // p on both shards, then q on both
				}
			}
			for i := 0; i < rounds; i++ {
				cross := h.Batch()
				cross.MapSet(maps[0], sKey(i), sKey(i))
				cross.MapSet(maps[1], sKey(i), sKey(i))
				cross.Commit()
				local := h.Batch()
				local.MapSet(maps[0], sKey(1000+i), sKey(i))
				local.MapSet(maps[2], sKey(1000+i), sKey(i))
				local.Commit()
			}
		}()
	}
	wg.Wait()
	ss.Sync()
	ss2, _, err := Open(cfg, WithExistingImages(ss.CrashImages(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < 4; si++ {
		p, _ := ss2.Shard(si).Map(fmt.Sprintf("p-%d", si))
		if got := int(p.Len()); got != rounds*(1+1-si%2) {
			t.Errorf("p-%d holds %d keys after recovery, want %d", si, got, rounds*(1+1-si%2))
		}
	}
}

// TestOpenShardedRejectsBadInput checks the region set's shape: each
// heap records its place {shard, count}, so too few images, swapped
// shards, a duplicated shard and a single-heap image among shards are
// each refused with ErrShardCount, as is a shard count a group word
// cannot hold every root of.
func TestOpenShardedRejectsBadInput(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	ss := openShards(t, cfg, 2)
	ss.Sync()
	imgs := ss.CrashImages(pmem.CrashFencedOnly, 1)
	single, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lone := single.CrashImages(pmem.CrashFencedOnly, 1)[0]
	for _, c := range []struct {
		name string
		imgs [][]byte
		opts []Option
	}{
		{"too few images for WithShards(2)", imgs[:1], []Option{WithShards(2)}},
		{"too few images", imgs[:1], nil},
		{"swapped shards", [][]byte{imgs[1], imgs[0]}, nil},
		{"a duplicated shard", [][]byte{imgs[0], imgs[0]}, nil},
		{"a single heap among shards", [][]byte{imgs[0], lone}, nil},
		{"a shard as a single heap", [][]byte{imgs[1]}, nil},
		{"too many images", [][]byte{imgs[0], imgs[1], imgs[0]}, nil},
	} {
		if _, _, err := Open(cfg, append([]Option{WithExistingImages(c.imgs)}, c.opts...)...); !errors.Is(err, ErrShardCount) {
			t.Errorf("open with %s: %v, want ErrShardCount", c.name, err)
		}
	}
	if _, _, err := Open(cfg, WithShards(maxShards+1)); !errors.Is(err, ErrShardCount) {
		t.Errorf("open with %d shards: %v, want ErrShardCount", maxShards+1, err)
	}
	if maxShards*alloc.RootSlots > alloc.MaxGroupSize {
		t.Errorf("%d shards of %d roots overflow a group word's member count (%d)", maxShards, alloc.RootSlots, alloc.MaxGroupSize)
	}
}
