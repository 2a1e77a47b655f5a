package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Native fuzz targets for the sharded store. Run continuously in CI
// (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzShardRouting  -fuzztime=30s ./internal/core
//	go test -run='^$' -fuzz=FuzzBatchManifest -fuzztime=30s ./internal/core
//
// FuzzRedoSlots, beside them, mutates the stage slots a cross-shard group
// leaves in a fixed image.
//
// The seed corpus doubles as ordinary regression tests on every
// `go test` run.

// FuzzShardRouting checks name-based shard routing over arbitrary root
// names and shard counts: routing is total, stable, in range, and a
// handle bound by name round-trips its data through the routed shard.
func FuzzShardRouting(f *testing.F) {
	// Seeds drawn from the workloads' naming schemes.
	f.Add("gc-shard-00", uint8(1))
	f.Add("sh-w03", uint8(4))
	f.Add("fuzz-q", uint8(8))
	f.Add("", uint8(2))
	f.Add("key-000042", uint8(3))
	f.Add("__mod_reserved", uint8(5))
	f.Fuzz(func(t *testing.T, name string, shards uint8) {
		s := int(shards)%8 + 1
		cfg := pmem.DefaultConfig(1 << 20)
		ss := openShards(t, cfg, s)
		si := ss.ShardFor(name)
		if si < 0 || si >= s {
			t.Fatalf("ShardFor(%q) = %d with %d shards", name, si, s)
		}
		if again := ss.ShardFor(name); again != si {
			t.Fatalf("ShardFor(%q) unstable: %d then %d", name, si, again)
		}
		m, err := ss.Map(name)
		if strings.HasPrefix(name, "__mod_") {
			// The reserved prefix is the store's own: binding under it
			// must fail.
			if err == nil {
				t.Fatalf("Map(%q) bound a reserved root", name)
			}
			return
		}
		if err != nil {
			t.Fatalf("Map(%q): %v", name, err)
		}
		m.Set([]byte(name), []byte("v"))
		if !ss.Shard(si).Heap().HasRoot(name) {
			t.Fatalf("root %q missing from routed shard %d", name, si)
		}
		for i := 0; i < s; i++ {
			if i != si && ss.Shard(i).Heap().HasRoot(name) {
				t.Fatalf("root %q duplicated on shard %d (routed %d)", name, i, si)
			}
		}
		m2, err := ss.Map(name)
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := m2.Get([]byte(name)); !ok || string(v) != "v" {
			t.Fatalf("rebound handle lost data for %q", name)
		}
	})
}

// FuzzBatchManifest feeds arbitrary op streams and crash points into a
// cross-shard batch commit: the ops route across shards from the fuzz
// data, a power failure lands after a data-chosen number of PM writes,
// and recovery — which rolls the batch's group forward from any shard
// whose swap landed — must be all-or-nothing with the committed prefix
// intact.
func FuzzBatchManifest(f *testing.F) {
	// Seeds shaped like the sharded workload's op streams.
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint16(40), uint8(2))
	f.Add([]byte{9, 9, 9, 1}, uint16(120), uint8(3))
	f.Add([]byte{255, 0, 128, 64, 32}, uint16(300), uint8(4))
	f.Add([]byte{1}, uint16(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, crashAfter uint16, shardsRaw uint8) {
		if len(data) == 0 {
			return
		}
		if len(data) > 24 {
			data = data[:24]
		}
		shards := int(shardsRaw)%3 + 2 // 2..4
		cfg := pmem.DefaultConfig(2 << 20)
		cfg.TrackDurable = true
		ss := openShards(t, cfg, shards)
		maps := make([]*Map, shards)
		for i := range maps {
			m, err := ss.Shard(i).Map(fmt.Sprintf("fz-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			maps[i] = m
			m.Set([]byte("seed"), []byte{byte(i)}) // committed prefix
		}
		ss.Sync()

		// The probed batch: each data byte is one op, routed by value.
		tr := pmem.NewMultiCrashCountdown(ss.Regions().Devices(), int(crashAfter)%1024+1, pmem.CrashEvictRandom, uint64(crashAfter)+uint64(len(data)))
		tr.Install()
		b := ss.Batch()
		touched := map[int]bool{}
		for i, by := range data {
			si := int(by) % shards
			touched[si] = true
			b.MapSet(maps[si], []byte(fmt.Sprintf("k%02d", i)), []byte{by})
		}
		b.Commit()
		tr.Uninstall()
		imgs := tr.Images()
		if imgs == nil {
			imgs = ss.CrashImages(pmem.CrashEvictRandom, uint64(crashAfter))
		}

		ss2, _, err := Open(cfg, WithExistingImages(imgs))
		if err != nil {
			t.Fatalf("recovery: %v", err)
		}
		maps2 := make([]*Map, shards)
		for i := range maps2 {
			m, err := ss2.Shard(i).Map(fmt.Sprintf("fz-%d", i))
			if err != nil {
				t.Fatal(err)
			}
			maps2[i] = m
			if v, ok := m.Get([]byte("seed")); !ok || len(v) != 1 || v[0] != byte(i) {
				t.Fatalf("shard %d: committed prefix lost", i)
			}
		}
		// All-or-nothing: either every op of the batch is present with
		// its exact value, or none is.
		present, absent := 0, 0
		for i, by := range data {
			si := int(by) % shards
			v, ok := maps2[si].Get([]byte(fmt.Sprintf("k%02d", i)))
			if ok {
				if len(v) != 1 || v[0] != by {
					t.Fatalf("op %d: value corrupt after recovery", i)
				}
				present++
			} else {
				absent++
			}
		}
		if present > 0 && absent > 0 {
			t.Fatalf("batch torn: %d ops present, %d absent (shards touched: %d)", present, absent, len(touched))
		}
		// The recovered store must keep committing.
		maps2[0].Set([]byte("post"), []byte("ok"))
		if _, ok := maps2[0].Get([]byte("post")); !ok {
			t.Fatal("store unusable after recovery")
		}
	})
}
