package core

import (
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// TestRedoRecordCodec runs the one record codec in both placements — a
// batch-record slot (two-word entries, status staged with the body) and
// the shard manifest (a leading shard word, status written by commit) —
// through everything a recovery can find: a never-used record, a staged
// body, a live record (read twice, replayed twice), a stale status over a
// later commit's half-written and fully written body, a count past the
// capacity, and a retired record, which keeps its sequence number.
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
		expect := func(when string, wantSeq uint64, want []redoEntry, wantLive bool) {
			t.Helper()
			seq, got, live := rec.read()
			if seq != wantSeq || !slices.Equal(got, want) || live != wantLive {
				t.Fatalf("sharded=%v, %s: read seq %d %v live=%v, want seq %d %v live=%v", sharded, when, seq, got, live, wantSeq, want, wantLive)
			}
		}

		expect("fresh", 0, nil, false)
		if sharded {
			rec.stage(7, entries, false)
			expect("staged, commit point not written", 0, nil, false)
			rec.commit(7)
		} else {
			rec.stage(7, entries, true)
		}
		for pass := 1; pass <= 2; pass++ { // a crash inside recovery replays again
			expect("live", 7, entries, true)
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
		expect("stale status over a half-written later body", 7, nil, true)
		rec.stage(8, later, false)
		expect("stale status over a complete later body", 7, nil, true)
		rec.commit(8)
		expect("later commit", 8, later, true)

		dev.WriteU64(rec.base+8, uint64(rec.max)+1)
		expect("count past capacity", 8, nil, true)
		rec.retire(8)
		expect("retired", 8, nil, false)
	}
}

// TestRecordSlotStagesStatusInOneFlush pins the batch-record slot's
// staging cost: the live status shares the flush of the count and
// checksum, so staging r entries flushes the lines of 24 + 16r bytes and
// nothing more, and writes no status word of its own after the fence.
func TestRecordSlotStagesStatusInOneFlush(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(1 << 16))
	for _, base := range []pmem.Addr{1024, 1024 + 16, 1024 + 56} {
		rec := redoRecord{dev: dev, base: base, max: MaxBatchRoots}
		entries := []redoEntry{{cell: 4096, final: 0x1110}, {cell: 4104, final: 0x2220}}
		before := dev.Stats()
		rec.stage(3, entries, true)
		d := dev.Stats().Sub(before)
		size := uint64(redoHdrSize + 16*len(entries))
		lines := (uint64(base)+size-1)/pmem.LineSize - uint64(base)/pmem.LineSize + 1
		if d.Flushes != lines || d.Writes != uint64(3+2*len(entries)) {
			t.Errorf("base %#x: staging flushed %d lines with %d writes, want %d lines, %d writes", uint64(base), d.Flushes, d.Writes, lines, 3+2*len(entries))
		}
		if seq, got, live := rec.read(); seq != 3 || !live || !slices.Equal(got, entries) {
			t.Errorf("base %#x: staged slot reads seq %d live=%v %v", uint64(base), seq, live, got)
		}
	}
}

// Native fuzz target for batch-record recovery (ROADMAP 1c). Run in CI
// (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzRedoSlots -fuzztime=30s ./internal/core
//
// The seed corpus doubles as an ordinary regression test.

// redoSlotsImage builds a store whose batch record holds two live
// records — a Batch over roots a and b (slot 1) and a CommitUnrelated
// over b and c (slot 0), the first one's retirement not yet durable — with
// every root cell already holding the newer commit's version, as a crash
// after both publications can leave it. Reclamation is off, so every
// version any root ever published stays intact in the image. It returns
// the image and, per root name, the versions that root published.
func redoSlotsImage(tb testing.TB, cfg pmem.Config) ([]byte, *Store, map[string][]pmem.Addr) {
	tb.Helper()
	db, _, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := db.Store()
	s.heap.DisableReclaim = true
	published := map[string][]pmem.Addr{}
	maps := map[string]*Map{}
	note := func() {
		for nm, m := range maps {
			if v := m.Current().Addr(); !slices.Contains(published[nm], v) {
				published[nm] = append(published[nm], v)
			}
		}
	}
	for _, nm := range []string{"a", "b", "c"} {
		if maps[nm], err = s.Map(nm); err != nil {
			tb.Fatal(err)
		}
		maps[nm].Set([]byte("k0"), []byte(nm+"0"))
	}
	note()
	b := s.NewBatch()
	b.MapSet(maps["a"], []byte("k1"), []byte("a1"))
	b.MapSet(maps["b"], []byte("k1"), []byte("b1"))
	b.Commit()
	note()
	vb, _ := maps["b"].PureSet([]byte("k2"), []byte("b2"))
	vc, _ := maps["c"].PureSet([]byte("k2"), []byte("c2"))
	if err := s.CommitUnrelated(Update{DS: maps["b"], Shadows: []Version{vb}}, Update{DS: maps["c"], Shadows: []Version{vc}}); err != nil {
		tb.Fatal(err)
	}
	note()
	img := snapshot(s)
	older := s.recSlot(1).base
	binary.LittleEndian.PutUint64(img[older:], binary.LittleEndian.Uint64(img[older:])&^redoRetired)
	return img, s, published
}

// FuzzRedoSlots mutates the words of both batch-record slots — status,
// count, checksum, entries — with fuzzer-chosen XOR masks, and sets the
// root cells they name to fuzzer-chosen versions those roots once
// published, then reopens the image. Allowed: the open fails with
// ErrCorrupted, or it succeeds and every root holds a version it once
// published — either the one the image held or the final of a slot whose
// checksum validates. A slot failing its checksum must never be rolled
// forward, and nothing may panic.
func FuzzRedoSlots(f *testing.F) {
	cfg := pmem.DefaultConfig(1 << 20)
	img, s, published := redoSlotsImage(f, cfg)
	roots := []string{"a", "b", "c"}
	cells := make([]pmem.Addr, len(roots))
	for i, nm := range roots {
		slot, err := s.heap.RootSlot(nm)
		if err != nil {
			f.Fatal(err)
		}
		cells[i] = s.heap.RootCellAddr(slot)
	}
	// Targets 0..13: slot i's words 0..6 (status, count, checksum, two
	// entries); 14..16: the root cells of a, b and c.
	var words []pmem.Addr
	for i := 0; i < 2; i++ {
		for w := 0; w < 7; w++ {
			words = append(words, s.recSlot(i).base+pmem.Addr(8*w))
		}
	}
	targets := len(words) + len(cells)

	// A mutation is nine input bytes: the target, then a little-endian
	// XOR mask (for a root cell, the mask picks a published version).
	seed := func(muts ...uint64) []byte {
		var b []byte
		for i := 0; i+1 < len(muts); i += 2 {
			b = append(b, byte(muts[i]))
			b = binary.LittleEndian.AppendUint64(b, muts[i+1])
		}
		return b
	}
	f.Add([]byte(nil))
	f.Add(seed(0, redoRetired))                // retire the newer record
	f.Add(seed(7, redoRetired))                // retire the older record
	f.Add(seed(0, 1))                          // a live status torn against its body
	f.Add(seed(2, 0x100))                      // a checksum bit flipped
	f.Add(seed(1, 3))                          // a count past the entries
	f.Add(seed(4, 8))                          // an entry's final moved
	f.Add(seed(15, 0))                         // b back at its first version
	f.Add(seed(15, 0, 16, 0))                  // b and c back: the newer record's swaps never landed
	f.Add(seed(14, 0, 15, 1, 16, 0))           // nothing of the newer record, the older one's swap on a
	f.Add(seed(7, 1<<62, 14, 0))               // an impossible sequence number
	f.Add(seed(3, 0x58^0x68, 10, 0x10, 16, 1)) // entry cells retargeted

	f.Fuzz(func(t *testing.T, muts []byte) {
		dmg := append([]byte(nil), img...)
		for i := 0; i+9 <= len(muts) && i < 9*16; i += 9 {
			tgt, mask := int(muts[i])%targets, binary.LittleEndian.Uint64(muts[i+1:])
			if tgt < len(words) {
				a := words[tgt]
				binary.LittleEndian.PutUint64(dmg[a:], binary.LittleEndian.Uint64(dmg[a:])^mask)
				continue
			}
			r := tgt - len(words)
			vs := published[roots[r]]
			binary.LittleEndian.PutUint64(dmg[cells[r]:], uint64(vs[mask%uint64(len(vs))]))
		}

		// What recovery may write into each cell: its value in the image,
		// or the final of a slot whose checksum validates.
		view := pmem.NewFromImage(cfg, dmg)
		allowed := make([][]pmem.Addr, len(cells))
		for i, c := range cells {
			allowed[i] = []pmem.Addr{view.ReadAddr(c)}
		}
		for i := 0; i < 2; i++ {
			_, entries, _ := redoRecord{dev: view, base: s.recSlot(i).base, max: MaxBatchRoots}.read()
			for _, e := range entries {
				for j, c := range cells {
					if e.cell == c {
						allowed[j] = append(allowed[j], e.final)
					}
				}
			}
		}

		db, _, err := Open(cfg, WithExistingImages([][]byte{dmg}))
		if err != nil {
			if !errors.Is(err, ErrCorrupted) {
				t.Fatalf("open failed untyped: %v", err)
			}
			return
		}
		defer db.Close()
		st := db.Store()
		for i, nm := range roots {
			got := st.dev.ReadAddr(cells[i])
			if !slices.Contains(allowed[i], got) {
				t.Fatalf("root %s holds %#x: neither its image value nor a validating slot's final (%#x)", nm, uint64(got), allowed[i])
			}
			if !slices.Contains(published[nm], got) {
				t.Fatalf("root %s holds %#x, a version it never published (%#x)", nm, uint64(got), published[nm])
			}
			m, err := db.Map(nm)
			if err != nil {
				t.Fatalf("bind %s: %v", nm, err)
			}
			if v, ok := m.Get([]byte("k0")); !ok || string(v) != nm+"0" {
				t.Fatalf("root %s lost its first key: %q, %v", nm, v, ok)
			}
		}
		// The reopened store keeps committing through its record.
		b := db.Batch()
		for _, nm := range roots {
			m, _ := db.Map(nm)
			b.MapSet(m, []byte("post"), []byte(nm))
		}
		b.Commit()
	})
}
