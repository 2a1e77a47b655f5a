package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
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
		entries := []redoEntry{{shard: 2, cell: 4096, word: 0x1110}, {shard: 0, cell: 4104, word: 0x2220}, {shard: 1, cell: 4112, word: 0x3330}}
		later := []redoEntry{{shard: 1, cell: 4096, word: 0x9990}, {shard: 3, cell: 4120, word: 0x8880}}
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
				dev.WriteU64(e.cell, e.word)
			}
		}
		for _, e := range entries {
			if got := dev.ReadU64(e.cell); got != e.word {
				t.Fatalf("sharded=%v: cell %#x = %#x after two replays, want %#x", sharded, uint64(e.cell), got, e.word)
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
		entries := []redoEntry{{cell: 4096, word: 0x1110}, {cell: 4104, word: 0x2220}}
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

// Native fuzz target for the two kinds of recovery record (ROADMAP 1c):
// the batch record's slots and the root table's stage slots. Run in CI
// (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzRedoSlots -fuzztime=30s ./internal/core
//
// The seed corpus doubles as an ordinary regression test.

// redoRoots names the fuzzed image's maps: a, b and c are named by the
// batch records, c and d carry staged one-root publications.
var redoRoots = []string{"a", "b", "c", "d"}

// redoImage is the fuzzed image and what its roots published.
type redoImage struct {
	img    []byte
	s      *Store
	slots  []int                  // root slot of each of redoRoots
	words  map[string][]uint64    // every cell word the root held, in order
	addrs  map[string][]pmem.Addr // the versions those words name
	stages []stageRef             // every staged publication
}

// stageRef names one staged publication: its root and stage slot index.
type stageRef struct{ root, i int }

// cellVersion is the version a root cell word names (its low 35 bits, the
// reach of a 4-byte node reference).
func cellVersion(w uint64) pmem.Addr { return pmem.Addr(w & uint64(funcds.MaxHeapBytes-1)) }

// redoSlotsImage builds a store that ran two async one-root rounds on d
// and one on c — their stage slots still in the root table — and then a
// Batch over a and b (record slot 1) and a CommitUnrelated over b and c
// (record slot 0), the first record's retirement not yet durable, with
// every root cell holding its last version, as a crash after all of it
// can leave them. Reclamation is off, so every version any root ever
// published stays intact in the image.
func redoSlotsImage(tb testing.TB, cfg pmem.Config) *redoImage {
	tb.Helper()
	db, _, err := Open(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := db.Store()
	s.heap.DisableReclaim = true
	r := &redoImage{s: s, words: map[string][]uint64{}, addrs: map[string][]pmem.Addr{}}
	maps := map[string]*Map{}
	note := func() {
		for i, nm := range redoRoots {
			if w := s.dev.ReadU64(s.heap.RootCellAddr(r.slots[i])); !slices.Contains(r.words[nm], w) {
				r.words[nm] = append(r.words[nm], w)
				r.addrs[nm] = append(r.addrs[nm], cellVersion(w))
			}
		}
	}
	for _, nm := range redoRoots {
		if maps[nm], err = s.Map(nm); err != nil {
			tb.Fatal(err)
		}
		maps[nm].Set([]byte("k0"), []byte(nm+"0"))
		slot, _ := s.heap.RootSlot(nm)
		r.slots = append(r.slots, slot)
	}
	armStaging(s)
	note()
	for _, root := range []int{3, 3, 2} { // d, d, c
		nm := redoRoots[root]
		b := s.NewBatch()
		b.MapSet(maps[nm], []byte(fmt.Sprintf("s%d", len(r.words[nm]))), []byte(nm))
		b.CommitAsync().Wait()
		note()
		w := r.words[nm][len(r.words[nm])-1] // the staged final's cell word, a stage slot's first
		for i := 0; i < 2; i++ {
			if s.dev.ReadU64(s.heap.StageSlotAddr(r.slots[root], i)) == w {
				r.stages = append(r.stages, stageRef{root: root, i: i})
			}
		}
	}
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
	r.img = snapshot(s)
	older := s.recSlot(1).base
	binary.LittleEndian.PutUint64(r.img[older:], binary.LittleEndian.Uint64(r.img[older:])&^redoRetired)
	return r
}

// FuzzRedoSlots mutates the words of both batch-record slots — status,
// count, checksum, entries — and of the stage slots of c and d — final,
// old, meta — plus the stored checksum of each staged final version's
// header block, with fuzzer-chosen XOR masks, and sets the root cells to
// fuzzer-chosen cell words those roots once held, then reopens the image.
// Allowed: the open fails with ErrCorrupted, or it succeeds and every
// root holds a version it once published — the one its cell named in the
// image, the final of a record slot whose checksum validates, or the
// final of a stage slot nothing of which was mutated. A slot failing its
// checksum, or a stage slot whose blocks no longer fold to it, must never
// apply, and nothing may panic.
func FuzzRedoSlots(f *testing.F) {
	cfg := pmem.DefaultConfig(1 << 20)
	r := redoSlotsImage(f, cfg)
	s := r.s
	cells := make([]pmem.Addr, len(redoRoots))
	for i, slot := range r.slots {
		cells[i] = s.heap.RootCellAddr(slot)
	}
	// Targets 0..13: record slot i's words 0..6 (status, count, checksum,
	// two entries); 14..17: the root cells of a, b, c and d; 18..29: the
	// stage slots of c and d (slot 0's three words, then slot 1's); 30..32:
	// the checksum word of each staged final's header (d's two, then c's).
	var words []pmem.Addr
	for i := 0; i < 2; i++ {
		for w := 0; w < 7; w++ {
			words = append(words, s.recSlot(i).base+pmem.Addr(8*w))
		}
	}
	cellTargets := len(words)
	stageTargets := cellTargets + len(cells)
	for _, root := range []int{2, 3} {
		for i := 0; i < 2; i++ {
			for w := 0; w < 3; w++ {
				words = append(words, s.heap.StageSlotAddr(r.slots[root], i)+pmem.Addr(8*w))
			}
		}
	}
	crcTargets := len(words) + len(cells)
	finals := make([]pmem.Addr, len(r.stages)) // each staged publication's final version
	for k, st := range r.stages {
		at := s.heap.StageSlotAddr(r.slots[st.root], st.i)
		finals[k] = cellVersion(binary.LittleEndian.Uint64(r.img[at:]))
		words = append(words, finals[k]-alloc.HeaderSize+8)
	}
	targets := len(words) + len(cells)
	// target maps a target number to its word address, or reports a cell.
	target := func(t int) (addr pmem.Addr, cell int) {
		switch {
		case t < cellTargets:
			return words[t], -1
		case t < stageTargets:
			return 0, t - cellTargets
		default:
			return words[t-len(cells)], -1
		}
	}
	// stageTouched reports whether a mutation touched staged publication k:
	// a word of its stage slot or its final's checksum.
	stageTouched := func(k, t int) bool {
		st := r.stages[k]
		first := stageTargets + ((st.root-2)*2+st.i)*3
		return t >= first && t < first+3 || t == crcTargets+k
	}

	// A mutation is nine input bytes: the target, then a little-endian
	// XOR mask (for a root cell, the mask picks a cell word it held).
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
	f.Add(seed(17, 1))                         // d's last cell write lost: its staged publication applies
	f.Add(seed(17, 0))                         // both of d's lost: both stage slots apply, oldest first
	f.Add(seed(17, 0, 31, 1))                  // and the newer one's final header lost its checksum
	f.Add(seed(17, 0, 26, 1, 29, 1))           // d's stage slots both torn
	f.Add(seed(17, 1, 25, 4, 28, 4))           // stage slots retargeted at other cell words
	f.Add(seed(16, 0))                         // c back before its staged round: the newer record's roll-forward makes the slot stale

	f.Fuzz(func(t *testing.T, muts []byte) {
		dmg := append([]byte(nil), r.img...)
		var touched []int
		for i := 0; i+9 <= len(muts) && i < 9*16; i += 9 {
			tgt, mask := int(muts[i])%targets, binary.LittleEndian.Uint64(muts[i+1:])
			if a, cell := target(tgt); cell < 0 {
				if mask != 0 {
					touched = append(touched, tgt)
				}
				binary.LittleEndian.PutUint64(dmg[a:], binary.LittleEndian.Uint64(dmg[a:])^mask)
			} else {
				ws := r.words[redoRoots[cell]]
				binary.LittleEndian.PutUint64(dmg[cells[cell]:], ws[mask%uint64(len(ws))])
			}
		}

		// What recovery may leave in each cell: the version it named in the
		// image, the final of a record slot whose checksum validates, or the
		// final of a staged publication nothing of which was mutated.
		view := pmem.NewFromImage(cfg, dmg)
		allowed := make([][]pmem.Addr, len(cells))
		for i, c := range cells {
			allowed[i] = []pmem.Addr{cellVersion(view.ReadU64(c))}
		}
		for i := 0; i < 2; i++ {
			_, entries, _ := redoRecord{dev: view, base: s.recSlot(i).base, max: MaxBatchRoots}.read()
			for _, e := range entries {
				for j, c := range cells {
					if e.cell == c {
						allowed[j] = append(allowed[j], cellVersion(e.word))
					}
				}
			}
		}
		for k, st := range r.stages {
			if !slices.ContainsFunc(touched, func(t int) bool { return stageTouched(k, t) }) {
				allowed[st.root] = append(allowed[st.root], finals[k])
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
		var healthy []*Map
		for i, nm := range redoRoots {
			got := st.heap.Root(r.slots[i])
			if !slices.Contains(allowed[i], got) {
				t.Fatalf("root %s holds %#x: neither its image value, a validating record's final nor an intact staged final (%#x)", nm, uint64(got), allowed[i])
			}
			if !slices.Contains(r.addrs[nm], got) {
				t.Fatalf("root %s holds %#x, a version it never published (%#x)", nm, uint64(got), r.addrs[nm])
			}
			m, err := db.Map(nm)
			if err != nil {
				// Only a damaged checksum word of a staged final can make a
				// bind find corruption: that block may be live in the image.
				if !errors.Is(err, ErrCorrupted) || !slices.ContainsFunc(touched, func(t int) bool { return t >= crcTargets }) {
					t.Fatalf("bind %s: %v", nm, err)
				}
				continue
			}
			if v, ok := m.Get([]byte("k0")); !ok || string(v) != nm+"0" {
				t.Fatalf("root %s lost its first key: %q, %v", nm, v, ok)
			}
			healthy = append(healthy, m)
		}
		// The reopened store keeps committing through its record and its
		// stage slots.
		b := db.Batch()
		for _, m := range healthy {
			b.MapSet(m, []byte("post"), []byte("x"))
		}
		b.Commit()
		for _, m := range healthy {
			b = db.Batch()
			b.MapSet(m, []byte("post-async"), []byte("x"))
			tk := b.CommitAsync()
			tk.Wait()
			if tk.Err() != nil {
				t.Fatal(tk.Err())
			}
		}
	})
}
