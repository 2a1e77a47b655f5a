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
// digests, on one shard and across two, and the root cells they name. Run
// in CI (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzRedoSlots -fuzztime=30s ./internal/core
//
// The seed corpus doubles as an ordinary regression test.

// redoRoot is one of the fuzzed image's maps and the shard it lives on.
type redoRoot struct {
	name  string
	shard int
}

// redoRoots names the fuzzed image's maps: a to e on shard 0, x and y on
// shard 1.
var redoRoots = []redoRoot{{"a", 0}, {"b", 0}, {"c", 0}, {"d", 0}, {"e", 0}, {"x", 1}, {"y", 1}}

// redoImage is the fuzzed image and what its roots published.
type redoImage struct {
	imgs  [][]byte // by shard
	db    *DB
	slots []int                  // root slot of each of redoRoots
	words map[string][]uint64    // every cell word the root held, in order
	addrs map[string][]pmem.Addr // the versions those words name
}

// cellVersion is the version a root cell word names (its low 35 bits, the
// reach of a 4-byte node reference).
func cellVersion(w uint64) pmem.Addr { return pmem.Addr(w & uint64(funcds.MaxHeapBytes-1)) }

// redoSlotsImage builds a 2-shard DB whose shard 0 ran two async one-root
// rounds on d and one on c (groups of one, with digests), a Batch over a
// and b and a CommitUnrelated over b and c (groups of two without
// digests), and a spanning async round over a and d (a group of two with
// digests); then a cross-shard batch over e, x and y (one group of three,
// one member on shard 0 and two on shard 1, without digests) and one over
// e and x (a group of two, one member on each shard). Every root cell
// holds its last version, as a crash after all of it can leave them.
// Reclamation is off, so every version any root ever published stays
// intact in the image.
func redoSlotsImage(tb testing.TB, cfg pmem.Config) *redoImage {
	tb.Helper()
	db, _, err := Open(cfg, WithShards(2))
	if err != nil {
		tb.Fatal(err)
	}
	r := &redoImage{db: db, words: map[string][]uint64{}, addrs: map[string][]pmem.Addr{}}
	maps := map[string]*Map{}
	note := func() {
		for i, rt := range redoRoots {
			st := db.Shard(rt.shard)
			if w := st.dev.ReadU64(st.heap.RootCellAddr(r.slots[i])); !slices.Contains(r.words[rt.name], w) {
				r.words[rt.name] = append(r.words[rt.name], w)
				r.addrs[rt.name] = append(r.addrs[rt.name], cellVersion(w))
			}
		}
	}
	for _, rt := range redoRoots {
		st := db.Shard(rt.shard)
		st.heap.DisableReclaim = true
		if maps[rt.name], err = st.Map(rt.name); err != nil {
			tb.Fatal(err)
		}
		maps[rt.name].Set([]byte("k0"), []byte(rt.name+"0"))
		slot, _ := st.heap.RootSlot(rt.name)
		r.slots = append(r.slots, slot)
	}
	note()
	s := db.Shard(0)
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
	cross := func(names ...string) {
		b := db.Batch()
		for _, nm := range names {
			b.MapSet(maps[nm], []byte(fmt.Sprintf("x%d", len(r.words[nm]))), []byte(nm))
		}
		b.Commit()
		note()
	}
	cross("e", "x", "y")
	cross("e", "x")
	for i := 0; i < db.ShardCount(); i++ {
		r.imgs = append(r.imgs, snapshot(db.Shard(i)))
	}
	return r
}

// FuzzRedoSlots mutates the words of every stage slot of every root —
// final, group, digest, meta — and the stored checksum of each digested
// final's header block, with fuzzer-chosen XOR masks, and sets the root
// cells to fuzzer-chosen cell words those roots once held, then reopens
// the images. Allowed: the open fails with ErrCorrupted, or it succeeds
// and every root holds a version it once published — the one its cell
// named in the image, or the final of a stage slot none of whose words
// was mutated. A mutated slot fails its checksum and must never apply, a
// group whose blocks no longer fold to its digests must not apply unless
// one of its swaps landed, a cross-shard group rolls forward only behind
// a landed swap, and nothing may panic.
func FuzzRedoSlots(f *testing.F) {
	cfg := pmem.DefaultConfig(1 << 20)
	r := redoSlotsImage(f, cfg)
	db := r.db
	type word struct {
		shard int
		addr  pmem.Addr
	}
	cells := make([]word, len(redoRoots))
	for i, rt := range redoRoots {
		cells[i] = word{rt.shard, db.Shard(rt.shard).heap.RootCellAddr(r.slots[i])}
	}
	// Targets 0..8n-1: root k's stage slot i's word w at 8*k+4*i+w; then
	// the root cells of every root, in order; then the checksum word of the
	// header of every digested final in the images.
	var words []word
	for k, slot := range r.slots {
		for i := 0; i < 2; i++ {
			for w := 0; w < 4; w++ {
				words = append(words, word{redoRoots[k].shard, db.Shard(redoRoots[k].shard).heap.StageSlotAddr(slot, i) + pmem.Addr(8*w)})
			}
		}
	}
	slotTargets := len(words)
	type slotRef struct{ root, i int }
	var finals []pmem.Addr // each nonempty slot's final version
	var finalOf []slotRef
	for k, slot := range r.slots {
		d := redoRoots[k].shard
		for i := 0; i < 2; i++ {
			at := db.Shard(d).heap.StageSlotAddr(slot, i)
			if binary.LittleEndian.Uint64(r.imgs[d][at+24:]) == 0 {
				continue
			}
			finals = append(finals, cellVersion(binary.LittleEndian.Uint64(r.imgs[d][at:])))
			finalOf = append(finalOf, slotRef{k, i})
			if binary.LittleEndian.Uint64(r.imgs[d][at+24:])>>48 != 0 {
				words = append(words, word{d, finals[len(finals)-1] - alloc.HeaderSize + 8})
			}
		}
	}
	targets := len(words) + len(cells)
	// target maps a target number to its word, or reports a cell.
	target := func(t int) (w word, cell int) {
		switch {
		case t < slotTargets:
			return words[t], -1
		case t < slotTargets+len(cells):
			return word{}, t - slotTargets
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
	// The roots' slot words and cells: slot word w of root k's stage slot
	// i is 8*k+4*i+w; the first digested final's checksum word follows the
	// cells.
	const (
		slotA, slotB, slotD, slotE, slotX = 0, 8, 24, 32, 40
		cellA, cellB, cellC, cellD        = 56, 57, 58, 59
		cellE, cellX, cellY, crc0         = 60, 61, 62, 63
	)
	f.Add([]byte(nil))
	f.Add(seed(cellD, 1))                                 // d's last cell write lost: the spanning group rolls forward behind a
	f.Add(seed(cellA, 2, cellD, 2))                       // both of the spanning group's swaps lost: it applies, verified
	f.Add(seed(cellA, 2, cellD, 2, crc0, 1))              // and one member's final header lost its checksum
	f.Add(seed(cellA, 2, cellD, 2, slotA+7, 1))           // and a's newest member slot torn (meta)
	f.Add(seed(cellA, 2, cellD, 2, slotA+5, 0x10000))     // and its group word moved
	f.Add(seed(cellB, 1))                                 // b back before the CommitUnrelated: c's landed swap rolls it forward
	f.Add(seed(cellB, 1, cellC, 2))                       // b and c both back: no digest, nothing applies
	f.Add(seed(cellB, 0, cellA, 0))                       // a and b back at their first versions
	f.Add(seed(cellD, 0))                                 // d back before its rounds: a stale member never rolls it
	f.Add(seed(cellD, 1, cellA, 2))                       // the spanning group with d's swap landed, a's lost
	f.Add(seed(cellC, 1))                                 // c back past its round, before the CommitUnrelated
	f.Add(seed(cellC, 0))                                 // c back before its round
	f.Add(seed(cellC, 0, cellB, 1))                       // and b before the CommitUnrelated
	f.Add(seed(slotB, 1<<40))                             // b's slot final moved
	f.Add(seed(slotD+1, 0xff, cellD, 2))                  // d's group word damaged
	f.Add(seed(cellA, 2, cellD, 2, slotA+7, 1<<50))       // a digest count moved
	f.Add(seed(slotA, 8, slotA+4, 8, cellA, 1))           // a's slots retargeted at other cell words
	f.Add(seed(cellX, 1))                                 // x's last swap lost: e's, on the other shard, rolls it forward
	f.Add(seed(cellE, 1))                                 // e's last swap lost: x's rolls it forward
	f.Add(seed(cellE, 0, cellX, 0, cellY, 0))             // every cross-shard swap lost: nothing carries a digest, nothing applies
	f.Add(seed(cellE, 0, cellX, 2, cellY, 0))             // only x's last swap landed: both groups roll e forward, and y
	f.Add(seed(cellE, 0, cellX, 0, cellY, 1))             // only y's swap landed: e and x roll forward to the three-root group
	f.Add(seed(cellX, 1, slotE+7, 1))                     // x's last swap lost and e's member of it torn: no intact member landed
	f.Add(seed(cellE, 1, slotX+7, 1, slotX+3, 1))         // e's swap lost and both of x's members torn: nothing left to roll e
	f.Add(seed(cellE, 0, cellX, 0, cellY, 1, slotE+3, 1)) // y landed, e's older member torn: x rolls forward, e keeps its cell

	f.Fuzz(func(t *testing.T, muts []byte) {
		dmg := make([][]byte, len(r.imgs))
		for d, img := range r.imgs {
			dmg[d] = append([]byte(nil), img...)
		}
		var touched []slotRef
		crcTouched := false
		for i := 0; i+9 <= len(muts) && i < 9*16; i += 9 {
			tgt, mask := int(muts[i])%targets, binary.LittleEndian.Uint64(muts[i+1:])
			if w, cell := target(tgt); cell < 0 {
				if mask != 0 && tgt < slotTargets {
					touched = append(touched, slotRef{tgt / 8, tgt / 4 % 2})
				}
				crcTouched = crcTouched || mask != 0 && tgt >= slotTargets
				binary.LittleEndian.PutUint64(dmg[w.shard][w.addr:], binary.LittleEndian.Uint64(dmg[w.shard][w.addr:])^mask)
			} else {
				ws := r.words[redoRoots[cell].name]
				binary.LittleEndian.PutUint64(dmg[cells[cell].shard][cells[cell].addr:], ws[mask%uint64(len(ws))])
			}
		}

		// What recovery may leave in each cell: the version it named in the
		// image, or the final of a stage slot none of whose words changed.
		allowed := make([][]pmem.Addr, len(cells))
		for i, c := range cells {
			allowed[i] = []pmem.Addr{cellVersion(binary.LittleEndian.Uint64(dmg[c.shard][c.addr:]))}
		}
		for k, ref := range finalOf {
			if !slices.Contains(touched, ref) {
				allowed[ref.root] = append(allowed[ref.root], finals[k])
			}
		}

		db, _, err := Open(cfg, WithExistingImages(dmg))
		if err != nil {
			if !errors.Is(err, ErrCorrupted) {
				t.Fatalf("open failed untyped: %v", err)
			}
			return
		}
		defer db.Close()
		var healthy []*Map
		for i, rt := range redoRoots {
			st := db.Shard(rt.shard)
			got := st.heap.Root(r.slots[i])
			if !slices.Contains(allowed[i], got) {
				t.Fatalf("root %s holds %#x: neither its image value nor an intact stage slot's final (%#x)", rt.name, uint64(got), allowed[i])
			}
			if !slices.Contains(r.addrs[rt.name], got) {
				t.Fatalf("root %s holds %#x, a version it never published (%#x)", rt.name, uint64(got), r.addrs[rt.name])
			}
			m, err := st.Map(rt.name)
			if err != nil {
				// Only a damaged checksum word of a staged final can make a
				// bind find corruption: that block may be live in the image.
				if !errors.Is(err, ErrCorrupted) || !crcTouched {
					t.Fatalf("bind %s: %v", rt.name, err)
				}
				continue
			}
			if v, ok := m.Get([]byte("k0")); !ok || string(v) != rt.name+"0" {
				t.Fatalf("root %s lost its first key: %q, %v", rt.name, v, ok)
			}
			healthy = append(healthy, m)
		}
		// The reopened store keeps committing through its stage slots, on
		// one shard and across both.
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
