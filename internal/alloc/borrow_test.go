package alloc_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Tests of borrowed path copies (borrow.go) through the structures that
// make them: funcds maps and vectors over a real heap. The oracle is
// alloc.AuditCounts, which recomputes every count from reachability and
// the borrow records, and — wherever nothing is held outside the roots —
// a recovery of the same heap's crash image, which knows nothing of
// borrowing and counts every parent.

const borrowKeys = 300 // three trie levels in places, small enough to audit the whole heap often

func bKey(i int) []byte { return []byte(fmt.Sprintf("key-%04d", i)) }

// heldVersion is a version the test owns a reference on, with what it
// must still read as however many newer versions came and went.
type heldVersion struct {
	addr pmem.Addr
	vec  []uint64          // contents, when a vector
	m    map[string]string // contents, when a map
}

type borrowWorld struct {
	t   *testing.T
	rng *rand.Rand
	cfg pmem.Config
	dev *pmem.Device
	h   *alloc.Heap

	slots [3]int
	cur   [3]pmem.Addr         // the rooted versions: two maps, then a vector
	maps  [2]map[string]string // their contents
	vec   []uint64
	held  []heldVersion
}

func newBorrowWorld(t *testing.T, seed int64) *borrowWorld {
	cfg := pmem.DefaultConfig(4 << 20) // every crash and quiesce step copies the image
	cfg.TrackDurable = true
	w := &borrowWorld{t: t, rng: rand.New(rand.NewSource(seed)), cfg: cfg, dev: pmem.New(cfg)}
	w.h = alloc.Format(w.dev)
	funcds.RegisterWalkers(w.h)
	for i := range w.slots {
		s, err := w.h.RootSlot(fmt.Sprint("root", i))
		if err != nil {
			t.Fatal(err)
		}
		w.slots[i] = s
	}
	// Preload through multi-operation edits: in-place writes on borrowers
	// from the first FASE on.
	for i := range w.maps {
		w.maps[i] = map[string]string{}
		w.cur[i] = funcds.NewMap(w.h).Addr()
		w.h.SetRoot(w.slots[i], w.cur[i])
		for k := 0; k < borrowKeys; k += 64 {
			ed := w.h.BeginEdit()
			m := funcds.MapAt(w.h, w.cur[i]).WithEdit(ed)
			for j := k; j < min(k+64, borrowKeys); j += 1 + i {
				m, _ = m.Set(bKey(j), []byte("v0"))
				w.maps[i][string(bKey(j))] = "v0"
			}
			ed.Seal()
			w.publish(i, m.Addr(), w.h.Release)
		}
	}
	w.cur[2] = funcds.NewVector(w.h).Addr()
	w.h.SetRoot(w.slots[2], w.cur[2])
	ed := w.h.BeginEdit()
	v := funcds.VectorAt(w.h, w.cur[2]).WithEdit(ed)
	for i := 0; i < 1100; i++ { // two interior levels
		v = v.Push(uint64(i))
		w.vec = append(w.vec, uint64(i))
	}
	ed.Seal()
	w.publish(2, v.Addr(), w.h.Release)
	return w
}

// publish commits next as root i the way core does — fence, then the
// root swap — and hands the replaced version's reference to dispose.
func (w *borrowWorld) publish(i int, next pmem.Addr, dispose func(pmem.Addr)) {
	if next == w.cur[i] {
		return
	}
	w.h.Fence()
	w.h.SetRoot(w.slots[i], next)
	old := w.cur[i]
	w.cur[i] = next
	dispose(old)
}

// disposal picks what happens to a reference the test no longer needs:
// released now, released after the grace period, or kept (with the
// contents it must keep reading as) for a random later step.
func (w *borrowWorld) disposal(keep heldVersion) func(pmem.Addr) {
	switch w.rng.Intn(3) {
	case 0:
		return w.h.Release
	case 1:
		return w.h.ReleaseDeferred
	default:
		return func(a pmem.Addr) {
			keep.addr = a
			w.held = append(w.held, keep)
		}
	}
}

// mapOp applies one random Set or Delete to m and to its model.
func (w *borrowWorld) mapOp(m funcds.Map, model map[string]string) funcds.Map {
	k := bKey(w.rng.Intn(borrowKeys))
	if w.rng.Intn(4) == 0 {
		m, _ = m.Delete(k)
		delete(model, string(k))
		return m
	}
	v := fmt.Sprintf("v%d", w.rng.Intn(1000))
	m, _ = m.Set(k, []byte(v))
	model[string(k)] = v
	return m
}

// vecOp applies one random Update or Push to v and to its model.
func (w *borrowWorld) vecOp(v funcds.Vector, model []uint64) (funcds.Vector, []uint64) {
	x := w.rng.Uint64()
	if w.rng.Intn(3) == 0 {
		return v.Push(x), append(model, x)
	}
	i := w.rng.Intn(len(model))
	model[i] = x
	return v.Update(uint64(i), x), model
}

func (w *borrowWorld) checkMap(what string, a pmem.Addr, want map[string]string) {
	w.t.Helper()
	m := funcds.MapAt(w.h, a)
	if m.Len() != uint64(len(want)) {
		w.t.Fatalf("%s: %d entries, want %d", what, m.Len(), len(want))
	}
	for n := 0; n < 24; n++ {
		k := bKey(w.rng.Intn(borrowKeys))
		got, ok := m.Get(k)
		if v, in := want[string(k)]; ok != in || (ok && string(got) != v) {
			w.t.Fatalf("%s: %s reads %q, %v; want %q, %v", what, k, got, ok, v, in)
		}
	}
}

func (w *borrowWorld) checkVec(what string, a pmem.Addr, want []uint64) {
	w.t.Helper()
	v := funcds.VectorAt(w.h, a)
	if v.Len() != uint64(len(want)) {
		w.t.Fatalf("%s: %d elements, want %d", what, v.Len(), len(want))
	}
	for n := 0; n < 24; n++ {
		if i := w.rng.Intn(len(want)); v.Get(uint64(i)) != want[i] {
			w.t.Fatalf("%s: [%d] = %d, want %d", what, i, v.Get(uint64(i)), want[i])
		}
	}
}

func (w *borrowWorld) checkHeld(what string, hv heldVersion) {
	w.t.Helper()
	if hv.m != nil {
		w.checkMap(what, hv.addr, hv.m)
	} else {
		w.checkVec(what, hv.addr, hv.vec)
	}
}

func (w *borrowWorld) audit(step int, op string) {
	w.t.Helper()
	held := make(map[pmem.Addr]int, len(w.held))
	for _, hv := range w.held {
		held[hv.addr]++
	}
	if err := alloc.AuditCounts(w.h, held); err != nil {
		w.t.Fatalf("step %d (%s): %v", step, op, err)
	}
}

// recovered opens a crash image of the heap as it is durable now and
// recovers it.
func (w *borrowWorld) recovered(step int) (*pmem.Device, *alloc.Heap, alloc.RecoveryStats) {
	w.t.Helper()
	dev := pmem.NewFromImage(w.cfg, w.dev.CrashImage(pmem.CrashFencedOnly, uint64(step)))
	h, err := alloc.Open(dev)
	if err != nil {
		w.t.Fatal(err)
	}
	funcds.RegisterWalkers(h)
	rs, err := h.Recover()
	if err != nil {
		w.t.Fatalf("step %d: Recover: %v", step, err)
	}
	return dev, h, rs
}

// quiesce releases everything held, drains, and requires the heap to be
// exactly what recovery makes of its crash image: the same live blocks,
// the same count on each, and no borrow record left.
func (w *borrowWorld) quiesce(step int) {
	w.t.Helper()
	w.rng.Shuffle(len(w.held), func(i, j int) { w.held[i], w.held[j] = w.held[j], w.held[i] })
	for _, hv := range w.held {
		w.checkHeld("held version at release", hv)
		if w.rng.Intn(2) == 0 {
			w.h.Release(hv.addr)
		} else {
			w.h.ReleaseDeferred(hv.addr)
		}
	}
	w.held = w.held[:0]
	w.h.Drain()
	w.audit(step, "quiesce")
	if st := w.h.Stats(); st.Borrows != 0 || st.Quarantine != 0 {
		w.t.Fatalf("step %d: %d borrow records and %d quarantined blocks with nothing held and everything drained", step, st.Borrows, st.Quarantine)
	}
	_, h2, _ := w.recovered(step)
	live, rec := alloc.TableSnapshot(w.h), alloc.TableSnapshot(h2)
	if len(live) != len(rec) {
		w.t.Fatalf("step %d: %d tracked blocks, recovery of the same heap finds %d", step, len(live), len(rec))
	}
	for a, n := range rec {
		if got, ok := live[a]; !ok || got != n {
			w.t.Fatalf("step %d: block %#x count %d (tracked %v), recovery counts %d", step, uint64(a), got, ok, n)
		}
	}
}

// TestBorrowedCopiesMatchRecovery is the randomized model test: edit-bound
// and pure Set / Delete / Update / Push, multi-operation edits (in-place
// writes on borrowers), two copies of one base, chains whose intermediate
// is released first, versions kept and released in random order, fences,
// drains and crash + Recover, audited after every step.
func TestBorrowedCopiesMatchRecovery(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runBorrowModel(t, seed, 1500) })
	}
}

func runBorrowModel(t *testing.T, seed int64, steps int) {
	w := newBorrowWorld(t, seed)
	w.audit(-1, "preload")
	settledByPreload := w.h.Stats().Settled
	if settledByPreload == 0 {
		t.Fatal("64-operation preload edits never wrote a borrower in place")
	}
	var crashes, outOfOrder int
	for step := 0; step < steps; step++ {
		op := "fence"
		i := w.rng.Intn(2)
		switch r := w.rng.Intn(100); {
		case r < 22: // one edit-bound FASE of one or several operations
			op = "map edit"
			before := heldVersion{m: maps.Clone(w.maps[i])}
			ed := w.h.BeginEdit()
			m := funcds.MapAt(w.h, w.cur[i]).WithEdit(ed)
			for n := 1 + w.rng.Intn(2)*w.rng.Intn(6); n > 0; n-- {
				m = w.mapOp(m, w.maps[i])
			}
			ed.Seal()
			w.publish(i, m.Addr(), w.disposal(before))
		case r < 34:
			op = "map pure"
			before := heldVersion{m: maps.Clone(w.maps[i])}
			m := w.mapOp(funcds.MapAt(w.h, w.cur[i]), w.maps[i])
			w.publish(i, m.Addr(), w.disposal(before))
		case r < 44: // two copies of one base: the second finds its source lent
			op = "map two copies"
			before := heldVersion{m: maps.Clone(w.maps[i])}
			other := heldVersion{m: maps.Clone(w.maps[i])}
			base := funcds.MapAt(w.h, w.cur[i])
			a := w.mapOp(base, w.maps[i])
			b := w.mapOp(base, other.m)
			if a.Addr() == base.Addr() || b.Addr() == base.Addr() {
				// A Delete of an absent key built nothing: drop the copy that exists.
				for _, c := range []funcds.Map{a, b} {
					if c.Addr() != base.Addr() {
						w.h.Release(c.Addr())
					}
				}
				w.maps[i] = before.m
				break
			}
			w.disposal(other)(b.Addr())
			w.publish(i, a.Addr(), w.disposal(before))
		case r < 54: // a chain whose middle version dies first
			op = "map chain"
			before := heldVersion{m: maps.Clone(w.maps[i])}
			base := funcds.MapAt(w.h, w.cur[i])
			s1 := w.mapOp(base, w.maps[i])
			mid := heldVersion{m: maps.Clone(w.maps[i])}
			s2 := w.mapOp(s1, w.maps[i])
			if s1.Addr() != base.Addr() && s2.Addr() != s1.Addr() {
				outOfOrder++
				w.disposal(mid)(s1.Addr())
			}
			w.publish(i, s2.Addr(), w.disposal(before))
		case r < 64:
			op = "vector edit"
			before := heldVersion{vec: slices.Clone(w.vec)}
			ed := w.h.BeginEdit()
			v := funcds.VectorAt(w.h, w.cur[2]).WithEdit(ed)
			for n := 1 + w.rng.Intn(2)*w.rng.Intn(6); n > 0; n-- {
				v, w.vec = w.vecOp(v, w.vec)
			}
			ed.Seal()
			w.publish(2, v.Addr(), w.disposal(before))
		case r < 74: // the vec-swap shape: two chained pure updates, the first released
			op = "vector chain"
			before := heldVersion{vec: slices.Clone(w.vec)}
			s1, model := w.vecOp(funcds.VectorAt(w.h, w.cur[2]), w.vec)
			mid := heldVersion{vec: slices.Clone(model)}
			var s2 funcds.Vector
			s2, w.vec = w.vecOp(s1, model)
			outOfOrder++
			w.disposal(mid)(s1.Addr())
			w.publish(2, s2.Addr(), w.disposal(before))
		case r < 86 && len(w.held) > 0:
			op = "release held"
			j := w.rng.Intn(len(w.held))
			hv := w.held[j]
			w.held[j] = w.held[len(w.held)-1]
			w.held = w.held[:len(w.held)-1]
			w.checkHeld("held version at release", hv)
			if w.rng.Intn(2) == 0 {
				w.h.Release(hv.addr)
			} else {
				w.h.ReleaseDeferred(hv.addr)
			}
		case r < 90:
			op = "drain"
			w.h.Drain()
		case r < 93:
			op = "quiesce"
			w.quiesce(step)
		case r < 95:
			// Crash: what the test held was never rooted, so recovery frees
			// it; the rooted versions come back with plain parent counts.
			op = "crash"
			w.h.Fence() // the last root swap is durable before the image is cut
			w.dev, w.h, _ = w.recovered(step)
			w.held = w.held[:0]
			crashes++
		default:
			w.h.Fence()
		}
		// Every step at first, where a systematic miscount shows at once;
		// then often enough that a rare one is caught within a few steps.
		if step < 200 || step%8 == 0 || op == "crash" {
			w.audit(step, op)
		}
		if step%16 == 0 {
			w.checkMap("rooted map", w.cur[i], w.maps[i])
			w.checkVec("rooted vector", w.cur[2], w.vec)
			if len(w.held) > 0 {
				w.checkHeld("held version", w.held[w.rng.Intn(len(w.held))])
			}
		}
	}
	w.quiesce(steps)
	st := w.h.Stats()
	if crashes == 0 || outOfOrder == 0 {
		t.Fatalf("sequence too tame: %d crashes, %d out-of-order chains", crashes, outOfOrder)
	}
	t.Logf("seed %d: %d allocations, %d copies settled after the preload, %d crashes, %d chains released middle first",
		seed, st.Allocs, st.Settled, crashes, outOfOrder)
}

// TestDisableReclaimSettlesEveryCopy: a handle that retains every version
// never releases anything, so a record would never dissolve. Its copies
// count their shared children on the spot and the table stays empty.
func TestDisableReclaimSettlesEveryCopy(t *testing.T) {
	w := newBorrowWorld(t, 1)
	w.h.Drain()
	if n := w.h.Stats().Borrows; n != 0 {
		t.Fatalf("%d borrow records after the preload drained", n)
	}
	keep := w.h.Fork()
	keep.DisableReclaim = true
	base := w.h.Stats().Settled
	m := funcds.MapAt(keep, w.cur[0])
	const versions = 40
	for n := 0; n < versions; n++ {
		m, _ = m.Set(bKey(w.rng.Intn(borrowKeys)), []byte("kept"))
		keep.Release(m.Addr()) // a no-op on this handle
		if got := keep.Stats().Borrows; got != 0 {
			t.Fatalf("version %d left %d borrow records on a DisableReclaim handle", n, got)
		}
	}
	if got := w.h.Stats().Settled - base; got < versions {
		t.Fatalf("%d versions settled %d copies, want at least one each", versions, got)
	}
	// Every version is still whole, and the counts say so without any
	// record. Release was a no-op, so each version's root still carries
	// its birth reference: the audit is told the test holds those.
	held := map[pmem.Addr]int{}
	for a, n := range alloc.TableSnapshot(w.h) {
		if n > 0 && w.h.Tag(a) == funcds.TagMapRoot && a != w.cur[0] && a != w.cur[1] {
			held[a] = 1
		}
	}
	if err := alloc.AuditCounts(w.h, held); err != nil {
		t.Fatal(err)
	}
}

// TestBorrowConcurrentWriters (run under -race): four optimistic writers
// publish to one root by CAS while readers traverse it — the protocol of
// core's first commit tier. Racing builders copy the same source (the
// second settles), losers release their copies (rule b), winners defer
// the release of what they replaced (rule a, chains across versions). At
// the end nothing may be miscounted: the audit passes and the live bytes
// are what recovery of the same heap finds.
func TestBorrowConcurrentWriters(t *testing.T) {
	const writers, readers, opsEach = 4, 2, 400
	cfg := pmem.DefaultConfig(32 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	h := alloc.Format(dev)
	funcds.RegisterWalkers(h)
	slot, err := h.RootSlot("shared")
	if err != nil {
		t.Fatal(err)
	}
	empty := funcds.NewMap(h)
	ed := h.BeginEdit()
	m := empty.WithEdit(ed)
	for k := 0; k < borrowKeys; k++ {
		m, _ = m.Set(bKey(k), bKey(k))
	}
	ed.Seal()
	h.Fence()
	h.SetRoot(slot, m.Addr())
	h.Release(empty.Addr())
	h.Fence()

	var wins, losses atomic.Int64
	var stop atomic.Bool
	var wg, rg sync.WaitGroup
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			hw := h.Fork()
			rng := rand.New(rand.NewSource(int64(wi)))
			for done := 0; done < opsEach; {
				g := hw.Enter()
				old := hw.Root(slot)
				ed := hw.BeginEdit()
				m := funcds.MapAt(hw, old).WithEdit(ed)
				k := bKey(rng.Intn(borrowKeys))
				if rng.Intn(5) == 0 {
					m, _ = m.Delete(k)
				} else {
					m, _ = m.Set(k, k)
				}
				ed.Seal()
				switch {
				case m.Addr() == old:
					done++ // a Delete of an absent key
				default:
					if rng.Intn(4) == 0 {
						runtime.Gosched() // widen the window another writer wins in
					}
					hw.Fence()
					if hw.CasRoot(slot, old, m.Addr()) {
						hw.ReleaseDeferred(old)
						wins.Add(1)
						done++
					} else {
						hw.Release(m.Addr())
						losses.Add(1)
					}
				}
				g.Exit()
			}
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		rg.Add(1)
		go func(ri int) {
			defer rg.Done()
			hr := h.Fork()
			rng := rand.New(rand.NewSource(int64(100 + ri)))
			for !stop.Load() {
				g := hr.Enter()
				k := bKey(rng.Intn(borrowKeys))
				if v, ok := funcds.MapAt(hr, hr.Root(slot)).Get(k); ok && !bytes.Equal(v, k) {
					t.Errorf("reader: %s reads %q", k, v)
				}
				g.Exit()
			}
		}(ri)
	}
	wg.Wait()
	stop.Store(true)
	rg.Wait()

	h.Drain()
	if err := alloc.AuditCounts(h, nil); err != nil {
		t.Fatal(err)
	}
	st := h.Stats()
	if st.Borrows != 0 || st.Quarantine != 0 {
		t.Fatalf("%d borrow records, %d quarantined blocks after the drain", st.Borrows, st.Quarantine)
	}
	h2, err := alloc.Open(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	funcds.RegisterWalkers(h2)
	rs, err := h2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rs.LiveBytes != st.LiveBytes {
		t.Fatalf("live bytes %d after the drain, recovery of the same heap finds %d", st.LiveBytes, rs.LiveBytes)
	}
	if losses.Load() == 0 {
		t.Error("no writer ever lost its CAS: rule (b) went unexercised")
	}
	t.Logf("%d wins, %d losses, %d copies settled", wins.Load(), losses.Load(), st.Settled)
}
