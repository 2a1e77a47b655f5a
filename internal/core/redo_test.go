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

// TestRedoRecordCodec runs the shard manifest's record codec through
// everything a recovery can find: a never-used record, a staged body
// before its commit point, a committed record (read twice, replayed
// twice), a stale status over a later commit's half-written and fully
// written body, a count past the capacity, and a retired record, which
// keeps its sequence number.
func TestRedoRecordCodec(t *testing.T) {
	dev := pmem.New(pmem.DefaultConfig(1 << 16))
	rec := redoRecord{dev: dev, base: 128, max: 4}
	entries := []redoEntry{{shard: 2, cell: 4096, word: 0x1110}, {shard: 0, cell: 4104, word: 0x2220}, {shard: 1, cell: 4112, word: 0x3330}}
	later := []redoEntry{{shard: 1, cell: 4096, word: 0x9990}, {shard: 3, cell: 4120, word: 0x8880}}
	expect := func(when string, wantSeq uint64, want []redoEntry, wantLive bool) {
		t.Helper()
		seq, got, live := rec.read()
		if seq != wantSeq || !slices.Equal(got, want) || live != wantLive {
			t.Fatalf("%s: read seq %d %v live=%v, want seq %d %v live=%v", when, seq, got, live, wantSeq, want, wantLive)
		}
	}

	expect("fresh", 0, nil, false)
	rec.stage(7, entries)
	expect("staged, commit point not written", 0, nil, false)
	rec.commit(7)
	for pass := 1; pass <= 2; pass++ { // a crash inside recovery replays again
		expect("committed", 7, entries, true)
		for _, e := range entries {
			dev.WriteU64(e.cell, e.word)
		}
	}
	for _, e := range entries {
		if got := dev.ReadU64(e.cell); got != e.word {
			t.Fatalf("cell %#x = %#x after two replays, want %#x", uint64(e.cell), got, e.word)
		}
	}

	// The retirement of commit 7 never became durable and commit 8
	// began refilling the body: first one entry word, then all of it.
	dev.WriteU64(rec.base+redoHdrSize, 0xdead)
	expect("stale status over a half-written later body", 7, nil, true)
	rec.stage(8, later)
	expect("stale status over a complete later body", 7, nil, true)
	rec.commit(8)
	expect("later commit", 8, later, true)

	dev.WriteU64(rec.base+8, uint64(rec.max)+1)
	expect("count past capacity", 8, nil, true)
	rec.retire(8)
	expect("retired", 8, nil, false)
}

// TestRecordSlotStagesStatusInOneFlush pins a group member's staging cost:
// each member slot is 32 bytes inside its root's stage line, so a
// CommitUnrelated of r roots writes exactly 4r words into the stage table
// in r flushes, all before its fence — the group word shares its member's
// flush, and there is no status, header or retirement write of any kind
// after the fence. A lone root stages nothing: its swap is atomic.
func TestRecordSlotStagesStatusInOneFlush(t *testing.T) {
	s := newTestStore(t)
	dev := s.dev.(*pmem.Device)
	var vecs []*Vector
	for i := 0; i < 3; i++ {
		v, _ := s.Vector(fmt.Sprintf("v%d", i))
		v.Push(1)
		vecs = append(vecs, v)
	}
	s.Sync()
	tb := s.heap.StageTableRange()
	in := func(a pmem.Addr) bool { return a >= tb[0] && a < tb[1] }
	for r := 1; r <= len(vecs); r++ {
		var updates []Update
		for _, v := range vecs[:r] {
			updates = append(updates, Update{DS: v, Shadows: []Version{v.PureUpdate(0, uint64(r))}})
		}
		var writes, flushes, late int
		fenced := false
		dev.SetTracer(&crashProbe{
			onWrite: func(a pmem.Addr) {
				if in(a) {
					writes++
					if fenced {
						late++
					}
				}
			},
			onFlush: func(ln uint64) {
				if in(pmem.Addr(ln << 6)) {
					flushes++
				}
			},
			onFence: func(int) { fenced = true },
		})
		before := s.Stats().Fences
		if err := s.CommitUnrelated(updates...); err != nil {
			t.Fatal(err)
		}
		dev.SetTracer(nil)
		staged := r
		if r == 1 {
			staged = 0
		}
		if s.Stats().Fences-before != 1 || writes != 4*staged || flushes != staged || late != 0 {
			t.Errorf("%d roots: %d fences, %d stage-table writes in %d flushes, %d after the fence; want 1, %d in %d, 0",
				r, s.Stats().Fences-before, writes, flushes, late, 4*staged, staged)
		}
		s.Sync()
	}
}

// Native fuzz target for the stage table (ROADMAP 1c): the member slots
// of staged publications of one root and of several, with and without
// digests, and the root cells they name. Run in CI (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzRedoSlots -fuzztime=30s ./internal/core
//
// The seed corpus doubles as an ordinary regression test.

// redoRoots names the fuzzed image's maps.
var redoRoots = []string{"a", "b", "c", "d"}

// redoImage is the fuzzed image and what its roots published.
type redoImage struct {
	img   []byte
	s     *Store
	slots []int                  // root slot of each of redoRoots
	words map[string][]uint64    // every cell word the root held, in order
	addrs map[string][]pmem.Addr // the versions those words name
}

// cellVersion is the version a root cell word names (its low 35 bits, the
// reach of a 4-byte node reference).
func cellVersion(w uint64) pmem.Addr { return pmem.Addr(w & uint64(funcds.MaxHeapBytes-1)) }

// redoSlotsImage builds a store that ran two async one-root rounds on d
// and one on c (groups of one, with digests), a Batch over a and b and a
// CommitUnrelated over b and c (groups of two without digests), and a
// spanning async round over a and d (a group of two with digests), with
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
	note()
	async := func(names ...string) {
		b := s.NewBatch()
		for _, nm := range names {
			b.MapSet(maps[nm], []byte(fmt.Sprintf("s%d", len(r.words[nm]))), []byte(nm))
		}
		tk := b.CommitAsync()
		if tk.Wait(); tk.Err() != nil {
			tb.Fatal(tk.Err())
		}
		note()
	}
	async("d")
	async("d")
	async("c")
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
	async("a", "d")
	r.img = snapshot(s)
	return r
}

// FuzzRedoSlots mutates the words of every stage slot of a, b, c and d —
// final, group, digest, meta — and the stored checksum of each staged
// final's header block, with fuzzer-chosen XOR masks, and sets the root
// cells to fuzzer-chosen cell words those roots once held, then reopens
// the image. Allowed: the open fails with ErrCorrupted, or it succeeds and
// every root holds a version it once published — the one its cell named
// in the image, or the final of a stage slot none of whose words was
// mutated. A mutated slot fails its checksum and must never apply, a
// group whose blocks no longer fold to its digests must not apply unless
// one of its swaps landed, and nothing may panic.
func FuzzRedoSlots(f *testing.F) {
	cfg := pmem.DefaultConfig(1 << 20)
	r := redoSlotsImage(f, cfg)
	s := r.s
	cells := make([]pmem.Addr, len(redoRoots))
	for i, slot := range r.slots {
		cells[i] = s.heap.RootCellAddr(slot)
	}
	// Targets 0..31: root k's stage slot i's word w at 8*k+4*i+w; 32..35:
	// the root cells of a, b, c and d; then the checksum word of the header
	// of every digested final in the image.
	var words []pmem.Addr
	for _, slot := range r.slots {
		for i := 0; i < 2; i++ {
			for w := 0; w < 4; w++ {
				words = append(words, s.heap.StageSlotAddr(slot, i)+pmem.Addr(8*w))
			}
		}
	}
	slotTargets := len(words)
	type slotRef struct{ root, i int }
	var finals []pmem.Addr // each nonempty slot's final version
	var finalOf []slotRef
	for k, slot := range r.slots {
		for i := 0; i < 2; i++ {
			at := s.heap.StageSlotAddr(slot, i)
			if binary.LittleEndian.Uint64(r.img[at+24:]) == 0 {
				continue
			}
			finals = append(finals, cellVersion(binary.LittleEndian.Uint64(r.img[at:])))
			finalOf = append(finalOf, slotRef{k, i})
			if binary.LittleEndian.Uint64(r.img[at+24:])>>48 != 0 {
				words = append(words, finals[len(finals)-1]-alloc.HeaderSize+8)
			}
		}
	}
	targets := len(words) + len(cells)
	// target maps a target number to its word address, or reports a cell.
	target := func(t int) (addr pmem.Addr, cell int) {
		switch {
		case t < slotTargets:
			return words[t], -1
		case t < slotTargets+len(cells):
			return 0, t - slotTargets
		default:
			return words[t-len(cells)], -1
		}
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
	const cellA, cellB, cellC, cellD = 32, 33, 34, 35
	f.Add([]byte(nil))
	f.Add(seed(cellD, 1))                      // d's last cell write lost: the spanning group rolls forward behind a
	f.Add(seed(cellA, 2, cellD, 2))            // both of the spanning group's swaps lost: it applies, verified
	f.Add(seed(cellA, 2, cellD, 2, 36, 1))     // and one member's final header lost its checksum
	f.Add(seed(cellA, 2, cellD, 2, 3, 1))      // and a's newest member slot torn (meta)
	f.Add(seed(cellA, 2, cellD, 2, 1, 0x100))  // and its group word moved
	f.Add(seed(cellB, 1))                      // b back before the CommitUnrelated: c's landed swap rolls it forward
	f.Add(seed(cellB, 1, cellC, 2))            // b and c both back: no digest, nothing applies
	f.Add(seed(cellB, 0, cellA, 0))            // a and b back at their first versions
	f.Add(seed(cellD, 0))                      // d back before its rounds: a stale member never rolls it
	f.Add(seed(cellD, 1, cellA, 2))            // the spanning group with d's swap landed, a's lost
	f.Add(seed(cellC, 1))                      // c back past its round, before the CommitUnrelated
	f.Add(seed(cellC, 0))                      // c back before its round
	f.Add(seed(cellC, 0, cellB, 1))            // and b before the CommitUnrelated
	f.Add(seed(9, 1<<40))                      // b's slot final moved
	f.Add(seed(26, 0xff, cellD, 2))            // d's group word damaged
	f.Add(seed(cellA, 2, cellD, 2, 28, 1<<50)) // a digest count moved
	f.Add(seed(0, 8, 4, 8, cellA, 1))          // a's slots retargeted at other cell words

	f.Fuzz(func(t *testing.T, muts []byte) {
		dmg := append([]byte(nil), r.img...)
		var touched []slotRef
		crcTouched := false
		for i := 0; i+9 <= len(muts) && i < 9*16; i += 9 {
			tgt, mask := int(muts[i])%targets, binary.LittleEndian.Uint64(muts[i+1:])
			if a, cell := target(tgt); cell < 0 {
				if mask != 0 && tgt < slotTargets {
					touched = append(touched, slotRef{tgt / 8, tgt / 4 % 2})
				}
				crcTouched = crcTouched || mask != 0 && tgt >= slotTargets
				binary.LittleEndian.PutUint64(dmg[a:], binary.LittleEndian.Uint64(dmg[a:])^mask)
			} else {
				ws := r.words[redoRoots[cell]]
				binary.LittleEndian.PutUint64(dmg[cells[cell]:], ws[mask%uint64(len(ws))])
			}
		}

		// What recovery may leave in each cell: the version it named in the
		// image, or the final of a stage slot none of whose words changed.
		view := pmem.NewFromImage(cfg, dmg)
		allowed := make([][]pmem.Addr, len(cells))
		for i, c := range cells {
			allowed[i] = []pmem.Addr{cellVersion(view.ReadU64(c))}
		}
		for k, ref := range finalOf {
			if !slices.Contains(touched, ref) {
				allowed[ref.root] = append(allowed[ref.root], finals[k])
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
				t.Fatalf("root %s holds %#x: neither its image value nor an intact stage slot's final (%#x)", nm, uint64(got), allowed[i])
			}
			if !slices.Contains(r.addrs[nm], got) {
				t.Fatalf("root %s holds %#x, a version it never published (%#x)", nm, uint64(got), r.addrs[nm])
			}
			m, err := db.Map(nm)
			if err != nil {
				// Only a damaged checksum word of a staged final can make a
				// bind find corruption: that block may be live in the image.
				if !errors.Is(err, ErrCorrupted) || !crcTouched {
					t.Fatalf("bind %s: %v", nm, err)
				}
				continue
			}
			if v, ok := m.Get([]byte("k0")); !ok || string(v) != nm+"0" {
				t.Fatalf("root %s lost its first key: %q, %v", nm, v, ok)
			}
			healthy = append(healthy, m)
		}
		// The reopened store keeps committing through its stage slots.
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
