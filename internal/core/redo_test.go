package core

import (
	"slices"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// TestRedoRecordCodec runs the one record codec in both placements — the
// in-heap batch record (two-word entries) and the shard manifest (a
// leading shard word) — through everything a recovery can find: idle, a
// staged body without its commit point, a committed record (read twice,
// replayed twice), a stale status over a later commit's half-written and
// fully written body, a count past the capacity, and a retired record.
func TestRedoRecordCodec(t *testing.T) {
	for _, sharded := range []bool{false, true} {
		dev := pmem.New(pmem.DefaultConfig(1 << 16))
		rec := redoRecord{dev: dev, base: 128, max: 4, sharded: sharded}
		entries := []redoEntry{{shard: 2, cell: 4096, final: 0x1110}, {shard: 0, cell: 4104, final: 0x2220}, {shard: 1, cell: 4112, final: 0x3330}}
		later := []redoEntry{{shard: 1, cell: 4096, final: 0x9990}, {shard: 3, cell: 4120, final: 0x8880}}
		if !sharded {
			for _, es := range [][]redoEntry{entries, later} {
				for i := range es {
					es[i].shard = 0 // not stored
				}
			}
		}
		expect := func(when string, want []redoEntry, wantDirty bool) {
			t.Helper()
			got, dirty := rec.read()
			if !slices.Equal(got, want) || dirty != wantDirty {
				t.Fatalf("sharded=%v, %s: read %v dirty=%v, want %v dirty=%v", sharded, when, got, dirty, want, wantDirty)
			}
		}

		expect("fresh", nil, false)
		rec.stage(7, entries)
		expect("staged, commit point not written", nil, false)
		rec.commit(7)
		for pass := 1; pass <= 2; pass++ { // a crash inside recovery replays again
			expect("committed", entries, true)
			for _, e := range entries {
				dev.WriteAddr(e.cell, e.final)
			}
		}
		for _, e := range entries {
			if got := pmem.Addr(dev.ReadU64(e.cell)); got != e.final {
				t.Fatalf("sharded=%v: cell %#x = %#x after two replays, want %#x", sharded, uint64(e.cell), uint64(got), uint64(e.final))
			}
		}

		// The retirement of commit 7 never became durable and commit 8
		// began refilling the body: first one entry word, then all of it.
		dev.WriteU64(rec.base+redoHdrSize, 0xdead)
		expect("stale status over a half-written later body", nil, true)
		rec.stage(8, later)
		expect("stale status over a complete later body", nil, true)
		rec.commit(8)
		expect("later commit", later, true)

		dev.WriteU64(rec.base+8, uint64(rec.max)+1)
		expect("count past capacity", nil, true)
		rec.retire()
		expect("retired", nil, false)
	}
}
