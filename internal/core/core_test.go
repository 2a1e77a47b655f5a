package core

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
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
	s, err := newStore(pmem.New(cfg))
	if err != nil {
		t.Fatal(err)
	}
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
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
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
	s, _ := newStore(dev)
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

func TestCrashAtEveryPointMapIsAtomic(t *testing.T) {
	// Failure injection: run N committed ops, then start op N+1 and crash
	// under the most adversarial eviction policy. Recovery must observe
	// either all of ops 1..N (commit durable) — never a partial op.
	for seed := uint64(1); seed <= 20; seed++ {
		cfg := pmem.DefaultConfig(32 << 20)
		cfg.TrackDurable = true
		dev := pmem.New(cfg)
		s, _ := newStore(dev)
		m, _ := s.Map("m")
		committed := int(seed % 7)
		for i := 0; i < committed; i++ {
			m.Set(key64(uint64(i)), key64(uint64(i)))
		}
		s.Sync()
		// Interrupted operation: pure update flushed but not committed,
		// with a random subset of lines evicted.
		m.PureSet(key64(999), key64(999))
		img := dev.CrashImage(pmem.CrashEvictRandom, seed)

		dev2 := pmem.NewFromImage(pmem.DefaultConfig(32<<20), img)
		s2, _, err := openStore(dev2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		m2, _ := s2.Map("m")
		if got := int(m2.Len()); got != committed {
			t.Fatalf("seed %d: recovered %d entries, want %d", seed, got, committed)
		}
		for i := 0; i < committed; i++ {
			if _, ok := m2.Get(key64(uint64(i))); !ok {
				t.Fatalf("seed %d: committed key %d lost", seed, i)
			}
		}
		// The recovered store must remain fully usable.
		m2.Set(key64(12345), []byte("post-recovery"))
		if _, ok := m2.Get(key64(12345)); !ok {
			t.Fatalf("seed %d: store unusable after recovery", seed)
		}
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

func TestCommitSiblingsCrashAtomicity(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, _ := newStore(dev)
	p, _ := s.Parent("mgr", "a", "b")
	ma, _ := p.Map("a")
	mb, _ := p.Map("b")
	ma.Set([]byte("k"), []byte("old-a"))
	mb.Set([]byte("k"), []byte("old-b"))
	s.Sync()

	// Crash after building both shadows but before the sibling commit.
	sa, _ := ma.PureSet([]byte("k"), []byte("new-a"))
	sb, _ := mb.PureSet([]byte("k"), []byte("new-b"))
	_, _ = sa, sb
	img := dev.CrashImage(pmem.CrashEvictRandom, 3)
	dev2 := pmem.NewFromImage(pmem.DefaultConfig(64<<20), img)
	s2, _, err := openStore(dev2)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := s2.Parent("mgr", "a", "b")
	ma2, _ := p2.Map("a")
	mb2, _ := p2.Map("b")
	va, _ := ma2.Get([]byte("k"))
	vb, _ := mb2.Get([]byte("k"))
	if string(va) != "old-a" || string(vb) != "old-b" {
		t.Fatalf("uncommitted sibling update visible: a=%q b=%q", va, vb)
	}
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
	// Two roots publish through the redo record under its one fence.
	if delta.Fences != 1 {
		t.Fatalf("CommitUnrelated of two roots used %d fences, want 1", delta.Fences)
	}
}

// The crash windows of a multi-root publication, by where the cut lands
// relative to the commit's one fence (fence A) and its root-cell swaps.
type unrelatedWindow int

const (
	beforeFenceA unrelatedWindow = iota // any PM write before fence A: shadows and record staging
	noSwaps                             // fence A done, first swap written but not flushed
	someSwaps                           // first swap flushed, second written but not flushed
	allSwaps                            // the commit has returned; no later fence yet
	laterFence                          // a later one-root FASE's fence has run
)

func (w unrelatedWindow) String() string {
	return [...]string{"before fence A", "no swaps", "some swaps", "all swaps", "after a later fence"}[w]
}

// crashAt captures a crash image at the nth PM write between the
// fences-th fence (or the start, for fences = 0) and the next one; it
// captures nothing if that interval has fewer than n writes.
type crashAt struct {
	*pmem.CrashCountdown // its Write is shadowed, so it only supplies the other, empty hooks
	dev                  *pmem.Device
	fences, n            int
	policy               pmem.CrashPolicy
	seed                 uint64
	img                  []byte
}

func (c *crashAt) Fence(int) { c.fences-- }

func (c *crashAt) Write(pmem.Addr, int) {
	if c.fences != 0 || c.img != nil {
		return
	}
	if c.n--; c.n <= 0 {
		c.img = c.dev.CrashImage(c.policy, c.seed)
	}
}

// crashUnrelated builds two one-element vectors, pushes onto both through
// CommitUnrelated, cuts the power in window w (at the nth write of the
// window for beforeFenceA) and returns the recovered lengths, or ok =
// false if the window has no nth write.
func crashUnrelated(t *testing.T, w unrelatedWindow, n int, policy pmem.CrashPolicy, seed uint64) (len1, len2 uint64, ok bool) {
	t.Helper()
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Vector("v1")
	v2, _ := s.Vector("v2")
	other, _ := s.Stack("other")
	v1.Push(1)
	v2.Push(2)
	s.Sync()

	tr := &crashAt{CrashCountdown: pmem.NewCrashCountdown(dev, 0, policy, seed), dev: dev, policy: policy, seed: seed}
	switch w {
	case beforeFenceA:
		tr.n = n
	case noSwaps, someSwaps:
		tr.fences, tr.n = 1, int(w-noSwaps)+1
	default:
		tr.fences = 1 << 30
	}
	dev.SetTracer(tr)
	if err := s.CommitUnrelated(
		Update{DS: v1, Shadows: []Version{v1.PurePush(10)}},
		Update{DS: v2, Shadows: []Version{v2.PurePush(20)}},
	); err != nil {
		t.Fatal(err)
	}
	dev.SetTracer(nil)
	switch {
	case w == allSwaps:
		tr.img = dev.CrashImage(policy, seed)
	case w == laterFence:
		other.Push(3)
		tr.img = dev.CrashImage(policy, seed)
	}
	if tr.img == nil {
		return 0, 0, false
	}
	s2, _, err := openStore(pmem.NewFromImage(cfg, tr.img))
	if err != nil {
		t.Fatalf("%v, write %d, seed %d: %v", w, n, seed, err)
	}
	v1b, _ := s2.Vector("v1")
	v2b, _ := s2.Vector("v2")
	if v1b.Get(0) != 1 || v2b.Get(0) != 2 {
		t.Fatalf("%v, write %d, seed %d: recovered values corrupted", w, n, seed)
	}
	return v1b.Len(), v2b.Len(), true
}

// TestCommitUnrelatedCrashAroundRecordFence crashes a two-root
// CommitUnrelated in each window around its one fence. Before fence A no
// cell has been written, so recovery discards the record whatever else
// reached PM: at every write of that window, with every flushed line
// persisted, neither new version survives. After fence A the record is
// durable and live, and recovery rolls it forward exactly when a swap
// landed: with no swap persisted neither version survives, with the first
// swap persisted both do — the second from the record. Once the commit
// has returned, its swaps are durable only under a later fence: fenced
// lines alone keep neither, every flushed line keeps both, and after a
// later one-root FASE's fence both survive under every policy.
func TestCommitUnrelatedCrashAroundRecordFence(t *testing.T) {
	for n := 1; ; n++ {
		l1, l2, ok := crashUnrelated(t, beforeFenceA, n, pmem.CrashAllInflight, 5)
		if !ok {
			if n < 10 {
				t.Fatalf("only %d writes before fence A", n-1)
			}
			break
		}
		if l1 != 1 || l2 != 1 {
			t.Errorf("%v, write %d: v1=%d v2=%d, want 1/1", beforeFenceA, n, l1, l2)
		}
	}
	for _, tc := range []struct {
		w      unrelatedWindow
		policy pmem.CrashPolicy
		want   uint64
	}{
		{noSwaps, pmem.CrashAllInflight, 1},
		{someSwaps, pmem.CrashAllInflight, 2},
		{someSwaps, pmem.CrashFencedOnly, 1},
		{allSwaps, pmem.CrashAllInflight, 2},
		{allSwaps, pmem.CrashFencedOnly, 1},
		{laterFence, pmem.CrashFencedOnly, 2},
		{laterFence, pmem.CrashEvictRandom, 2},
	} {
		l1, l2, ok := crashUnrelated(t, tc.w, 1, tc.policy, 5)
		if !ok {
			t.Fatalf("%v: no crash image taken", tc.w)
		}
		if l1 != tc.want || l2 != tc.want {
			t.Errorf("%v, policy %d: v1=%d v2=%d, want %d/%d", tc.w, tc.policy, l1, l2, tc.want, tc.want)
		}
	}
}

// TestCommitUnrelatedFenceBudget: a CommitUnrelated publishes under one
// fence however many roots it changes — one root like CommitSingle,
// several through the redo record, up to every root a store can host
// (RootSlots − 1: the record's anchor takes a slot) — and never with more
// fences than a Batch over the same roots.
func TestCommitUnrelatedFenceBudget(t *testing.T) {
	for _, tc := range []struct{ roots, fences int }{{1, 1}, {2, 1}, {3, 1}, {8, 1}, {alloc.RootSlots - 1, 1}} {
		s := newTestStore(t)
		vecs := make([]*Vector, tc.roots)
		for i := range vecs {
			var err error
			if vecs[i], err = s.Vector(fmt.Sprintf("v%d", i)); err != nil {
				t.Fatalf("%d roots: binding v%d: %v", tc.roots, i, err)
			}
			vecs[i].Push(uint64(i))
		}
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
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
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
	s.BeginFASE() // two roots through the batch record, written in place inside the commit bracket
	ms, _ := m.PureSet(key64(7), key64(8))
	s.CommitUnrelated(Update{DS: v, Shadows: []Version{v.PureUpdate(2, 44)}}, Update{DS: m, Shadows: []Version{ms}})
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
	s, _ := newStore(dev)
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
