package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/trace"
)

// openStore recovers the single heap already on dev through the front
// door, for tests that drive one per-heap engine directly.
func openStore(dev pmem.Backend, opts ...Option) (*Store, alloc.RecoveryStats, error) {
	db, info, err := Open(pmem.Config{}, append([]Option{WithDevices(dev), WithAttach()}, opts...)...)
	if err != nil {
		return nil, info.Stats, err
	}
	return db.Store(), info.Stats, nil
}

func newTestStore(t testing.TB) *Store {
	t.Helper()
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	s := newStore(pmem.New(cfg))
	return s
}

func key64(i uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, i)
	return b
}

func TestBasicMapOneFencePerOp(t *testing.T) {
	s := newTestStore(t)
	m, err := s.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	dev := s.Device()
	for i := uint64(0); i < 100; i++ {
		before := dev.Stats()
		m.Set(key64(i), []byte("value"))
		delta := dev.Stats().Sub(before)
		if delta.Fences != 1 {
			t.Fatalf("op %d used %d fences, want exactly 1 (§5.1)", i, delta.Fences)
		}
	}
	for i := uint64(0); i < 100; i++ {
		if _, ok := m.Get(key64(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
}

func TestBasicLookupNoFlushNoFence(t *testing.T) {
	s := newTestStore(t)
	m, _ := s.Map("m")
	m.Set([]byte("k"), []byte("v"))
	dev := s.Device()
	before := dev.Stats()
	for i := 0; i < 50; i++ {
		m.Get([]byte("k"))
	}
	delta := dev.Stats().Sub(before)
	if delta.Flushes != 0 || delta.Fences != 0 {
		t.Fatalf("lookups used %d flushes / %d fences, want 0/0 (§6.4)", delta.Flushes, delta.Fences)
	}
}

func TestAllBasicHandles(t *testing.T) {
	s := newTestStore(t)

	st, _ := s.Stack("stack")
	st.Push(1)
	st.Push(2)
	if v, ok := st.Pop(); !ok || v != 2 {
		t.Fatalf("stack Pop = %d,%v", v, ok)
	}
	if v, ok := st.Peek(); !ok || v != 1 {
		t.Fatalf("stack Peek = %d,%v", v, ok)
	}

	q, _ := s.Queue("queue")
	q.Enqueue(10)
	q.Enqueue(20)
	if v, ok := q.Dequeue(); !ok || v != 10 {
		t.Fatalf("queue Dequeue = %d,%v", v, ok)
	}

	vec, _ := s.Vector("vec")
	for i := uint64(0); i < 100; i++ {
		vec.Push(i)
	}
	vec.Update(5, 500)
	if got := vec.Get(5); got != 500 {
		t.Fatalf("vector Get(5) = %d", got)
	}
	vec.Swap(0, 99)
	if vec.Get(0) != 99 || vec.Get(99) != 0 {
		t.Fatal("vector Swap failed")
	}

	set, _ := s.Set("set")
	set.Insert([]byte("x"))
	if !set.Contains([]byte("x")) || set.Contains([]byte("y")) {
		t.Fatal("set membership wrong")
	}
	if !set.Delete([]byte("x")) || set.Contains([]byte("x")) {
		t.Fatal("set delete failed")
	}

	m, _ := s.Map("map")
	m.Set([]byte("a"), []byte("1"))
	if !m.Delete([]byte("a")) || m.Len() != 0 {
		t.Fatal("map delete failed")
	}
}

func TestHandleRebindAfterReopen(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	for i := uint64(0); i < 500; i++ {
		m.Set(key64(i), key64(i*2))
	}
	s.Sync() // make the final root swap durable
	img := dev.CrashImage(pmem.CrashFencedOnly, 1)

	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	s2, _, err := openStore(dev2)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s2.Map("m")
	if err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 500 {
		t.Fatalf("recovered Len = %d, want 500", m2.Len())
	}
	for i := uint64(0); i < 500; i += 41 {
		got, ok := m2.Get(key64(i))
		if !ok || binary.LittleEndian.Uint64(got) != i*2 {
			t.Fatalf("recovered key %d wrong", i)
		}
	}
}

func TestCrashMidFASEKeepsOldVersionAndReclaimsLeaks(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	for i := uint64(0); i < 100; i++ {
		m.Set(key64(i), []byte("stable"))
	}
	s.Sync()
	// Start an update but crash before commit: build the shadow only.
	shadow, _ := m.PureSet(key64(555), []byte("doomed"))
	_ = shadow
	img := dev.CrashImage(pmem.CrashEvictRandom, 7)

	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	s2, rs, err := openStore(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LeakedBlocks == 0 {
		t.Fatal("interrupted FASE should leak blocks for recovery to sweep")
	}
	m2, _ := s2.Map("m")
	if m2.Len() != 100 {
		t.Fatalf("recovered Len = %d, want 100 (shadow must not be visible)", m2.Len())
	}
	if _, ok := m2.Get(key64(555)); ok {
		t.Fatal("uncommitted key visible after crash")
	}
}

// TestCrashAtEveryPointMapIsAtomic: N committed Sets, then an interrupted
// FASE — its pure update built and flushed, never committed. At every PM
// write of it, under every crash policy, recovery holds exactly the N
// committed ops and stays writable.
func TestCrashAtEveryPointMapIsAtomic(t *testing.T) {
	for committed := 0; committed < 7; committed++ {
		t.Run(fmt.Sprint(committed), func(t *testing.T) {
			h := &crashHist{roots: []histRoot{{name: "m", bind: mxBind((*Store).Map, mxMapOps)}}}
			h.setup = func(e *histEnv) {
				for i := 0; i < committed; i++ {
					e.ops[0].basic(i)
				}
			}
			h.window = func(e *histEnv, r *histRec) {
				s := e.db.Store()
				m, _ := s.Map("m")
				v, _ := m.PureSet(key64(999), key64(999)) // no op: never published
				s.heap.Release(v.Addr())
			}
			h.run(t)
		})
	}
}

func TestCompositionCommitSingleMultiUpdate(t *testing.T) {
	s := newTestStore(t)
	v, _ := s.Vector("v")
	for i := uint64(0); i < 50; i++ {
		v.Push(i)
	}
	dev := s.Device()
	before := dev.Stats()
	// Fig. 7b: swap via two pure updates and one commit.
	s.BeginFASE()
	a, b := v.Get(3), v.Get(44)
	s1 := v.PureUpdate(3, b)
	s2 := s1.Update(44, a)
	s.CommitSingle(v, s1, s2)
	s.EndFASE()
	delta := dev.Stats().Sub(before)
	if delta.Fences != 1 {
		t.Fatalf("multi-update FASE used %d fences, want 1", delta.Fences)
	}
	if v.Get(3) != b || v.Get(44) != a {
		t.Fatal("swap not applied")
	}
}

func TestCommitSiblingsAtomicAcrossMaps(t *testing.T) {
	s := newTestStore(t)
	p, err := s.Parent("manager", "cars", "flights", "rooms", "customers")
	if err != nil {
		t.Fatal(err)
	}
	cars, _ := p.Map("cars")
	customers, _ := p.Map("customers")

	dev := s.Device()
	before := dev.Stats()
	s.BeginFASE()
	carShadow, _ := cars.PureSet([]byte("car-1"), []byte("reserved"))
	custShadow, _ := customers.PureSet([]byte("alice"), []byte("car-1"))
	s.CommitSiblings(p,
		Update{DS: cars, Shadows: []Version{carShadow}},
		Update{DS: customers, Shadows: []Version{custShadow}},
	)
	s.EndFASE()
	delta := dev.Stats().Sub(before)
	if delta.Fences != 1 {
		t.Fatalf("CommitSiblings used %d fences, want 1 (Fig. 8c)", delta.Fences)
	}
	if _, ok := cars.Get([]byte("car-1")); !ok {
		t.Fatal("cars update lost")
	}
	if _, ok := customers.Get([]byte("alice")); !ok {
		t.Fatal("customers update lost")
	}
}

// TestCommitSiblingsCrashAtomicity checks the parent-bound paths: a
// CommitSiblings of two fields of one parent, then a Basic update of one
// field, which commits under the parent's root, a CommitSingle of a
// two-shadow chain on the other, and the first bind of a third field.
// Both fields change together or not at all, and each parent swap keeps
// the fields it does not change.
func TestCommitSiblingsCrashAtomicity(t *testing.T) {
	parents := map[*Store]*Parent{} // the fields of one store share a parent handle
	field := func(s *Store, nm string) (matrixOps, error) {
		if parents[s] == nil {
			p, err := s.Parent("mgr", "a", "b", "c")
			if err != nil {
				return matrixOps{}, err
			}
			parents[s] = p
		}
		m, err := parents[s].Map(nm)
		if err != nil {
			return matrixOps{}, err
		}
		return mxMapOps(m), nil
	}
	h := &crashHist{roots: []histRoot{{name: "a", bind: field}, {name: "b", bind: field}}}
	h.setup = func(e *histEnv) {
		e.ops[0].basic(0)
		e.ops[1].basic(0)
	}
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		p := parents[s]
		r.do("siblings", []durcheck.Effect{e.eff(0, 1), e.eff(1, 1)}, func() {
			if err := s.CommitSiblings(p, e.ops[0].chain(1, 2), e.ops[1].chain(1, 2)); err != nil {
				e.t.Error(err)
			}
		})
		r.do("parent-bound", e.effs(0, 2, 3), func() { e.ops[0].basic(2) })
		r.do("parent-bound single", e.effs(1, 3, 5), func() {
			u := e.ops[1].chain(3, 5)
			if err := s.CommitSingle(u.DS, u.Shadows...); err != nil {
				e.t.Error(err)
			}
		})
		r.do("first bind", nil, func() {
			if _, err := p.Stack("c"); err != nil {
				e.t.Error(err)
			}
		})
	}
	h.run(t)
}

func TestCommitUnrelatedAtomic(t *testing.T) {
	s := newTestStore(t)
	v1, _ := s.Vector("v1")
	v2, _ := s.Vector("v2")
	for i := uint64(0); i < 10; i++ {
		v1.Push(i)
		v2.Push(100 + i)
	}
	// Fig. 7c: swap elements across two unrelated vectors.
	dev := s.Device()
	before := dev.Stats()
	s.BeginFASE()
	a, b := v1.Get(2), v2.Get(7)
	s1 := v1.PureUpdate(2, b)
	s2 := v2.PureUpdate(7, a)
	s.CommitUnrelated(
		Update{DS: v1, Shadows: []Version{s1}},
		Update{DS: v2, Shadows: []Version{s2}},
	)
	s.EndFASE()
	delta := dev.Stats().Sub(before)
	if v1.Get(2) != b || v2.Get(7) != a {
		t.Fatal("cross-structure swap not applied")
	}
	// Two roots publish as one staged group under its one fence.
	if delta.Fences != 1 {
		t.Fatalf("CommitUnrelated of two roots used %d fences, want 1", delta.Fences)
	}
}

// unrelatedPairHist pushes onto two one-element vectors through one
// CommitUnrelated, then — when later — twice onto an unrelated stack
// through a CommitSingle of two shadows, whose fence makes the commit's
// swaps durable. Where the spec lets an unacknowledged commit go either
// way, the history pins which: recovery rolls the group forward iff a
// root swap reached the image, so both pushes survive when either cell
// holds its new word and neither survives otherwise — at every write
// before the commit's fence, whatever of its member slots reached PM. Right
// after the commit returns, fenced lines alone hold neither swap and
// every flushed line holds both.
func unrelatedPairHist(seed uint64, later bool) *crashHist {
	h := &crashHist{seed: seed, roots: []histRoot{
		{name: "v1", bind: mxBind((*Store).Vector, mxVectorOps)},
		{name: "v2", bind: mxBind((*Store).Vector, mxVectorOps)},
		{name: "other", bind: mxBind((*Store).Stack, mxStackOps)},
	}}
	var cells [2]pmem.Addr
	var old [2]uint64
	returned := false
	h.setup = func(e *histEnv) {
		e.ops[0].basic(0)
		e.ops[1].basic(0)
	}
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		for i, name := range []string{"v1", "v2"} {
			slot, _ := s.heap.RootSlot(name)
			cells[i] = s.heap.RootCellAddr(slot)
			old[i] = s.dev.ReadU64(cells[i])
		}
		mxUnrelated(e, r, 0, 1, 1, 2)
		returned = true
		r.crash() // no fence since the return
		returned = false
		if later {
			r.do("later", e.effs(2, 1, 3), func() {
				u := e.ops[2].chain(1, 3)
				if err := s.CommitSingle(u.DS, u.Shadows...); err != nil {
					e.t.Error(err)
				}
			})
		}
	}
	h.expect = func(c histCut) error {
		swapped := c.word(0, cells[0]) != old[0] || c.word(0, cells[1]) != old[1]
		pushed := len(c.got[0]) == 2
		switch {
		case swapped != pushed:
			return fmt.Errorf("a root swap in the image: %v, the commit recovered: %v", swapped, pushed)
		case returned && c.policy == pmem.CrashFencedOnly && pushed:
			return fmt.Errorf("fenced lines alone kept the returned commit's unfenced swaps")
		case returned && c.policy == pmem.CrashAllInflight && !pushed:
			return fmt.Errorf("every flushed line lost the returned commit")
		}
		return nil
	}
	return h
}

// TestCommitUnrelatedCrashAroundRecordFence crashes a two-root
// CommitUnrelated at every PM write around its one fence — staging the
// shadows and the member slots before it, each root swap after it — right after
// it returns, and through a later one-root FASE whose fence makes the
// swaps durable, under every crash policy: recovery discards the group
// before any swap landed, rolls it forward once one did, and keeps it
// once the later fence ran.
func TestCommitUnrelatedCrashAroundRecordFence(t *testing.T) {
	unrelatedPairHist(0, true).run(t)
}

// TestCommitUnrelatedFenceBudget: a CommitUnrelated publishes under one
// fence however many roots it changes — one root like CommitSingle,
// several as one staged group, up to every root a store can host
// (RootSlots) — and never with more fences than a Batch over the same
// roots. Over every root it is also recovered whole: none of it before
// any swap is durable, all of it once one swap is.
func TestCommitUnrelatedFenceBudget(t *testing.T) {
	for _, tc := range []struct{ roots, fences int }{{1, 1}, {2, 1}, {3, 1}, {8, 1}, {alloc.RootSlots, 1}} {
		s := newTestStore(t)
		vecs := bindEveryRoot(t, s)[:tc.roots]
		s.Sync()
		fences := func(commit func()) uint64 {
			before := s.Stats().Fences
			commit()
			return s.Stats().Fences - before
		}
		unrelated := fences(func() {
			updates := make([]Update, len(vecs))
			for i, v := range vecs {
				updates[i] = Update{DS: v, Shadows: []Version{v.PureUpdate(0, 100)}}
			}
			if err := s.CommitUnrelated(updates...); err != nil {
				t.Fatal(err)
			}
		})
		batch := fences(func() {
			b := s.NewBatch()
			for _, v := range vecs {
				b.VectorUpdate(v, 0, 200)
			}
			b.Commit()
		})
		if int(unrelated) != tc.fences || int(batch) != tc.fences {
			t.Errorf("%d roots: CommitUnrelated %d fences, Batch.Commit %d, want %d each", tc.roots, unrelated, batch, tc.fences)
		}
		for i, v := range vecs {
			if got := v.Get(0); got != 200 {
				t.Errorf("%d roots: v%d[0] = %d after both commits, want 200", tc.roots, i, got)
			}
		}
		if tc.roots == alloc.RootSlots {
			s.Sync()
			updates := make([]Update, len(vecs))
			for i, v := range vecs {
				updates[i] = Update{DS: v, Shadows: []Version{v.PureUpdate(0, 300)}}
			}
			if err := s.CommitUnrelated(updates...); err != nil {
				t.Fatal(err)
			}
			crashAcrossRoots(t, s, len(vecs), func(r *Store) int { return vectorsAt(t, r, len(vecs), 300) })
		}
	}
}

// TestMultiRootPublicationFlushesRootLineOnce: the cells of roots in
// slots 0–2 share one root-table line, and a publication of all three —
// CommitUnrelated or Batch.Commit — writes the three cells and then
// flushes that line once (alloc.Heap.SetRoots), where a flush per cell
// paid three. The commits still read back whole.
func TestMultiRootPublicationFlushesRootLineOnce(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	dev := pmem.New(cfg)
	s := newStore(dev)
	vecs := make([]*Vector, 3)
	line := uint64(0)
	for i := range vecs {
		name := fmt.Sprintf("v%d", i)
		vecs[i], _ = s.Vector(name)
		vecs[i].Push(uint64(i))
		slot, _ := s.heap.RootSlot(name)
		if ln := uint64(s.heap.RootCellAddr(slot)) >> pmem.LineShift; i == 0 {
			line = ln
		} else if ln != line {
			t.Fatalf("root %s's cell is on line %d, root v0's on %d", name, ln, line)
		}
	}
	s.Sync()
	flushes := func(commit func()) int {
		n := 0
		dev.SetTracer(&crashProbe{onFlush: func(ln uint64) {
			if ln == line {
				n++
			}
		}})
		commit()
		dev.SetTracer(nil)
		return n
	}
	unrelated := flushes(func() {
		updates := make([]Update, len(vecs))
		for i, v := range vecs {
			updates[i] = Update{DS: v, Shadows: []Version{v.PureUpdate(0, 100)}}
		}
		if err := s.CommitUnrelated(updates...); err != nil {
			t.Fatal(err)
		}
	})
	batch := flushes(func() {
		b := s.NewBatch()
		for _, v := range vecs {
			b.VectorUpdate(v, 0, 200)
		}
		b.Commit()
	})
	if unrelated != 1 || batch != 1 {
		t.Errorf("root-table line flushed %d times by a 3-root CommitUnrelated and %d by a 3-root Batch.Commit, want once each", unrelated, batch)
	}
	for i, v := range vecs {
		if got := v.Get(0); got != 200 {
			t.Errorf("v%d[0] = %d after both commits, want 200", i, got)
		}
	}
}

// TestCommitUnrelatedRejectsMisuse: an update list no commit could honour
// panics with a worded message before any lock is taken or fence issued,
// as CommitSiblings does, and leaves the store usable.
func TestCommitUnrelatedRejectsMisuse(t *testing.T) {
	s := newTestStore(t)
	v, _ := s.Vector("v")
	w, _ := s.Vector("w")
	p, _ := s.Parent("p", "f")
	f, _ := p.Vector("f")
	v.Push(1)
	w.Push(2)
	f.Push(3)
	s.Sync()
	for _, tc := range []struct {
		name    string
		updates func() []Update
		want    string
	}{
		{"root named twice", func() []Update {
			return []Update{{DS: w, Shadows: []Version{w.PurePush(7)}}, {DS: v, Shadows: []Version{v.PurePush(8)}}, {DS: v, Shadows: []Version{v.PurePush(9)}}}
		}, `names root "v" twice`},
		{"no shadows", func() []Update {
			return []Update{{DS: w, Shadows: []Version{w.PurePush(7)}}, {DS: v}}
		}, "update with no shadows"},
		{"parent-bound", func() []Update {
			return []Update{{DS: f, Shadows: []Version{f.PurePush(7)}}}
		}, "requires root-bound"},
	} {
		updates := tc.updates()
		before := s.Stats()
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, tc.want) {
					t.Errorf("%s: panic %q, want one mentioning %q", tc.name, msg, tc.want)
				}
			}()
			t.Errorf("%s: CommitUnrelated returned %v", tc.name, s.CommitUnrelated(updates...))
		}()
		if d := s.Stats().Sub(before); d.Fences != 0 || d.Writes != 0 {
			t.Errorf("%s: rejected after %d fences and %d PM writes", tc.name, d.Fences, d.Writes)
		}
		for _, u := range updates { // the caller still owns the shadows it built
			for _, sh := range u.Shadows {
				s.heap.Release(sh.Addr())
			}
		}
	}
	// The root locks were never taken and the allocator's books balance.
	if err := s.CommitUnrelated(
		Update{DS: v, Shadows: []Version{v.PurePush(10)}},
		Update{DS: w, Shadows: []Version{w.PurePush(20)}}); err != nil {
		t.Fatal(err)
	}
	s.Sync()
	if v.Len() != 2 || w.Len() != 2 || f.Len() != 1 {
		t.Fatalf("after the rejected commits: v=%d w=%d f=%d elements, want 2/2/1", v.Len(), w.Len(), f.Len())
	}
}

// TestVecSwapTakesNoSettle: CommitSingle(v, s1, s2) retires the old
// version before the intermediate copied from it, so each borrowed path
// copy hands its children to its borrower (alloc/borrow.go rule a) and
// no copy has to settle — which it did, once per swap, while the
// intermediate was released first.
func TestVecSwapTakesNoSettle(t *testing.T) {
	s := newTestStore(t)
	v, _ := s.Vector("v")
	const n = 3000 // three levels: root, interior, leaf
	load := s.NewBatch()
	for i := uint64(0); i < n; i++ {
		load.VectorPush(v, i)
	}
	load.Commit()
	s.Sync()
	settled := s.heap.Stats().Settled
	for i := uint64(0); i < 1000; i++ {
		a, b := i*7%n, (i*13+1500)%n
		s1 := v.PureUpdate(a, v.Get(b))
		s2 := s1.Update(b, v.Get(a))
		if err := s.CommitSingle(v, s1, s2); err != nil {
			t.Fatal(err)
		}
	}
	s.Sync()
	st := s.heap.Stats()
	if st.Settled != settled || st.Borrows != 0 || st.Quarantine != 0 {
		t.Fatalf("1,000 vec-swaps settled %d copies, left %d borrow records and %d quarantined blocks; want 0/0/0",
			st.Settled-settled, st.Borrows, st.Quarantine)
	}
}

func TestParentFieldValidation(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Parent("p"); err == nil {
		t.Fatal("parent with no fields must fail")
	}
	p, err := s.Parent("p", "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Map("zzz"); err == nil {
		t.Fatal("unknown field must fail")
	}
	if _, err := s.Parent("p", "x"); err == nil {
		t.Fatal("field-count mismatch on reopen must fail")
	}
}

func TestTraceInvariantsHoldAcrossWorkout(t *testing.T) {
	// §5.4: record a full trace of a mixed MOD workload and verify the
	// checker finds no violations.
	rec := trace.NewRecorder()
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.Tracer = rec
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	v, _ := s.Vector("v")
	q, _ := s.Queue("q")
	st, _ := s.Stack("st")
	for i := uint64(0); i < 200; i++ {
		m.Set(key64(i), key64(i))
		v.Push(i)
		q.Enqueue(i)
		st.Push(i)
	}
	for i := uint64(0); i < 100; i++ {
		q.Dequeue()
		st.Pop()
		v.Update(i, i+1)
		m.Delete(key64(i))
	}
	s.BeginFASE()
	s1 := v.PureUpdate(0, 42)
	s2 := s1.Update(1, 43)
	s.CommitSingle(v, s1, s2)
	s.EndFASE()
	s.BeginFASE() // two roots as a staged group, its slots written in place inside the commit bracket
	ms, _ := m.PureSet(key64(7), key64(8))
	s.CommitUnrelated(Update{DS: v, Shadows: []Version{v.PureUpdate(2, 44)}}, Update{DS: m, Shadows: []Version{ms}})
	s.EndFASE()
	// The parent-bound paths: two fields' first binds, parent-bound Basic
	// updates and a CommitSiblings, each a parent swap through publish.
	p, _ := s.Parent("mgr", "pm", "pv")
	pm, _ := p.Map("pm")
	pv, _ := p.Vector("pv")
	for i := uint64(0); i < 20; i++ {
		pm.Set(key64(i), key64(i))
		pv.Push(i)
	}
	s.BeginFASE()
	pms, _ := pm.PureSet(key64(50), key64(51))
	s.CommitSiblings(p, Update{DS: pm, Shadows: []Version{pms}}, Update{DS: pv, Shadows: []Version{pv.PureUpdate(3, 45)}})
	s.EndFASE()

	violations := trace.Check(rec.Events(), s.CheckerConfig())
	if len(violations) != 0 {
		for i, viol := range violations {
			if i > 10 {
				break
			}
			t.Log(viol.Error())
		}
		t.Fatalf("%d trace invariant violations", len(violations))
	}
}

func TestRecoveryReclaimsAllLeaksToZeroWaste(t *testing.T) {
	// Leak-freedom (§5.3): after a crash with many half-built shadows,
	// recovery's live bytes must equal a freshly built store's live bytes.
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	for i := uint64(0); i < 300; i++ {
		m.Set(key64(i), key64(i))
	}
	s.Sync() // drain the reclamation quarantine before measuring
	liveBefore := s.Heap().Stats().LiveBytes

	for i := uint64(0); i < 10; i++ {
		m.PureSet(key64(1000+i), key64(i)) // abandoned shadows
	}
	img := dev.CrashImage(pmem.CrashEvictRandom, 11)
	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	s2, rs, err := openStore(dev2)
	if err != nil {
		t.Fatal(err)
	}
	if rs.LeakedBlocks == 0 {
		t.Fatal("expected leaked blocks from abandoned shadows")
	}
	liveAfter := s2.Heap().Stats().LiveBytes
	if liveAfter != liveBefore {
		t.Fatalf("recovered live bytes %d != pre-crash committed live bytes %d", liveAfter, liveBefore)
	}
}

// noOpTarget is one structure of TestNoOpShadowCommitKeepsVersionLive:
// a shadow that is its committed version, a later Basic update, and a
// read of that update.
type noOpTarget struct {
	ds       Datastructure
	noop     func() Version
	update   func()
	readBack func() bool
}

// bindRootOrField binds name under p's field when p is set, else as a
// root of s.
func bindRootOrField[H any](s *Store, p *Parent, root func(*Store, string) (H, error), field func(*Parent, string) (H, error)) (H, error) {
	if p != nil {
		return field(p, "f")
	}
	return root(s, "f")
}

// TestNoOpShadowCommitKeepsVersionLive commits a shadow that is the
// committed version itself — a PureDelete of an absent key, a PurePop of
// an empty stack, a PureDequeue of an empty queue — through CommitSingle
// of a root-bound and of a parent-bound structure and through
// CommitSiblings. Such a commit changes nothing: it must not fence, the
// committed version must keep its reference once every deferred release
// has run, and the structure must take a later update and read it back.
func TestNoOpShadowCommitKeepsVersionLive(t *testing.T) {
	targets := []struct {
		name string
		bind func(s *Store, p *Parent) (noOpTarget, error)
	}{
		{"map-delete-absent", func(s *Store, p *Parent) (noOpTarget, error) {
			m, err := bindRootOrField(s, p, (*Store).Map, (*Parent).Map)
			if err != nil {
				return noOpTarget{}, err
			}
			m.Set([]byte("k"), []byte("v"))
			return noOpTarget{m,
				func() Version { v, _ := m.PureDelete([]byte("absent")); return v },
				func() { m.Set([]byte("k2"), []byte("v2")) },
				func() bool { v, ok := m.Get([]byte("k2")); return ok && string(v) == "v2" }}, nil
		}},
		{"stack-pop-empty", func(s *Store, p *Parent) (noOpTarget, error) {
			st, err := bindRootOrField(s, p, (*Store).Stack, (*Parent).Stack)
			if err != nil {
				return noOpTarget{}, err
			}
			return noOpTarget{st,
				func() Version { v, _, _ := st.PurePop(); return v },
				func() { st.Push(7) },
				func() bool { v, ok := st.Peek(); return ok && v == 7 }}, nil
		}},
		{"queue-dequeue-empty", func(s *Store, p *Parent) (noOpTarget, error) {
			q, err := bindRootOrField(s, p, (*Store).Queue, (*Parent).Queue)
			if err != nil {
				return noOpTarget{}, err
			}
			return noOpTarget{q,
				func() Version { v, _, _ := q.PureDequeue(); return v },
				func() { q.Enqueue(7) },
				func() bool { v, ok := q.Peek(); return ok && v == 7 }}, nil
		}},
	}
	modes := []struct {
		name   string
		parent bool
		commit func(s *Store, p *Parent, ds Datastructure, v Version) error
	}{
		{"CommitSingle-root", false, func(s *Store, _ *Parent, ds Datastructure, v Version) error { return s.CommitSingle(ds, v) }},
		{"CommitSingle-parent", true, func(s *Store, _ *Parent, ds Datastructure, v Version) error { return s.CommitSingle(ds, v) }},
		{"CommitSiblings", true, func(s *Store, p *Parent, ds Datastructure, v Version) error {
			return s.CommitSiblings(p, Update{DS: ds, Shadows: []Version{v}})
		}},
	}
	for _, mode := range modes {
		for _, tg := range targets {
			t.Run(mode.name+"/"+tg.name, func(t *testing.T) {
				s := newTestStore(t)
				var p *Parent
				if mode.parent {
					var err error
					if p, err = s.Parent("p", "f"); err != nil {
						t.Fatal(err)
					}
				}
				c, err := tg.bind(s, p)
				if err != nil {
					t.Fatal(err)
				}
				before := s.Stats()
				if err := mode.commit(s, p, c.ds, c.noop()); err != nil {
					t.Fatal(err)
				}
				if f := s.Stats().Sub(before).Fences; f != 0 {
					t.Errorf("a commit that changes nothing fenced %d times, want 0", f)
				}
				s.Sync() // runs every deferred release
				if rc := s.heap.RefCount(c.ds.base().committed()); rc < 1 {
					t.Fatalf("committed version's refcount is %d after the no-op commit, want >= 1", rc)
				}
				c.update()
				if !c.readBack() {
					t.Fatal("the update after the no-op commit does not read back")
				}
			})
		}
	}
}
