package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Staged publications (DESIGN.md §7): a commit-queue round writes the
// publication of each root it changes into the heap's stage table ahead
// of its one fence — each root only one-root submissions changed on its
// own, the others as one group — with a digest of the blocks it adds, so
// that fence acknowledges the round's submissions, and recovery applies a
// group none of whose swaps landed when all its members are found, each
// the publication right after its root's durable cell, and each
// re-verifies. These tests pin the fence budget and each hazard the
// protocol must close.

// asyncSet submits one Map.Set as a one-root CommitAsync and waits on it.
func asyncSet(t *testing.T, s *Store, m *Map, k, v string) *Ticket {
	t.Helper()
	b := s.NewBatch()
	b.MapSet(m, []byte(k), []byte(v))
	tk := b.CommitAsync()
	tk.Wait()
	if tk.Err() != nil {
		t.Fatal(tk.Err())
	}
	return tk
}

// recoverImage reopens a crash image of a single store.
func recoverImage(t *testing.T, cfg pmem.Config, img []byte) (*Store, alloc.RecoveryStats) {
	t.Helper()
	s, rs, err := openStore(pmem.NewFromImage(cfg, img))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return s, rs
}

// TestAsyncOneRootOneFence is the budget of a durable one-root ack: N
// one-root CommitAsync + Wait from one goroutine cost exactly N fences —
// the rounds' own, none after a swap — and at most one flush (the root's
// stage line, staged) and 32 PM bytes (the stage slot) per op more than
// the same N updates through Batch.Commit, which pays the same round
// minus the staging. Each Wait is an acknowledgement: a fenced-only crash
// image taken right after it, with no later fence, holds the op (hazard
// d).
func TestAsyncOneRootOneFence(t *testing.T) { asyncOneRootOneFence(t, false) }

// TestAsyncOneRootOneFenceSelective is the same budget on a selective
// map, whose publications digest their durable blocks — the header, the
// record cell and the binding — and leave the volatile trie out: a lone
// one-root CommitAsync costs one fence, as on a plain map. The interval
// is the default, so no op folds a checkpoint.
func TestAsyncOneRootOneFenceSelective(t *testing.T) { asyncOneRootOneFence(t, true) }

func asyncOneRootOneFence(t *testing.T, sel bool) {
	const n = 64
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	build := func() (*pmem.Device, *Store, *Map) {
		dev := pmem.New(cfg)
		s := newStore(dev)
		if sel {
			s.makeSelective(0)
		}
		m, _ := s.Map("m")
		for i := 0; i < 200; i++ {
			m.Set([]byte(fmt.Sprintf("pre%03d", i)), []byte("x"))
		}
		s.Sync()
		return dev, s, m
	}
	key := func(i int) string { return fmt.Sprintf("k%03d", i) }

	dev, s, m := build()
	base := dev.Stats()
	for i := 0; i < n; i++ {
		b := s.NewBatch()
		b.MapSet(m, []byte(key(i)), []byte(key(i)))
		b.Commit()
	}
	ref := dev.Stats().Sub(base)

	dev, s, m = build()
	base = dev.Stats()
	var images [][]byte
	for i := 0; i < n; i++ {
		asyncSet(t, s, m, key(i), key(i))
		if i%8 == 0 {
			images = append(images, dev.CrashImage(pmem.CrashFencedOnly, uint64(i)))
		}
	}
	got := dev.Stats().Sub(base)
	if got.Fences != n {
		t.Errorf("%d one-root CommitAsync+Wait paid %d fences, want exactly %d", n, got.Fences, n)
	}
	if got.Flushes > ref.Flushes+n || got.BytesWritten > ref.BytesWritten+32*n {
		t.Errorf("%d acks flushed %d lines and wrote %d B; Batch.Commit of the same ops %d / %d: budget +%d lines, +%d B",
			n, got.Flushes, got.BytesWritten, ref.Flushes, ref.BytesWritten, n, 32*n)
	}
	for j, img := range images {
		s2, _ := recoverImage(t, cfg, img) // the map keeps its flavor
		m2, _ := s2.Map("m")
		for i := 0; i <= 8*j; i++ {
			if v, ok := m2.Get([]byte(key(i))); !ok || string(v) != key(i) {
				t.Fatalf("image after ack %d: op %d acknowledged before it is lost (%q, %v)", 8*j, i, v, ok)
			}
		}
	}
}

// TestStagedGhostBlockRejected is hazard (a) as a live round leaves it. A
// round's fresh blocks come off the free lists, so before its fence their
// durable content is the freed nodes they replaced — each with a checksum
// that verifies. A crash that persists the staged root line but none of
// those blocks must not apply the slot. (Here the ghosts' shape gives them
// away as well; TestStagedGhostBlockFailsDigest in package alloc builds
// the image only the fold rejects.) With every inflight line persisted the
// same slot is applied (the positive control).
func TestStagedGhostBlockRejected(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	for i := 0; i < 40; i++ {
		m.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("old"))
	}
	s.Sync() // the replaced paths are on the free lists, their durable bytes intact
	slot, _ := s.heap.RootSlot("m")
	// At the first flush of the root's stage line, capture the image in
	// which that line — just staged — is the only unfenced line that
	// reached PM (fenced), and the one in which every inflight line did.
	line := uint64(s.heap.StageSlotAddr(slot, 0)) >> 6
	var fenced, inflight []byte
	dev.SetTracer(&crashProbe{onFlush: func(ln uint64) {
		if ln != line || fenced != nil {
			return
		}
		inflight = dev.CrashImage(pmem.CrashAllInflight, 0)
		fenced = dev.CrashImage(pmem.CrashFencedOnly, 0)
		at := ln << 6
		copy(fenced[at:at+pmem.LineSize], dev.Snapshot()[at:at+pmem.LineSize])
	}})
	asyncSet(t, s, m, "new", "v")
	dev.SetTracer(nil)
	if fenced == nil {
		t.Fatal("the round never flushed the root's stage line")
	}

	// The ghost: the staged final's header block holds, durably, an older
	// node's valid checksum word.
	final := m.Current().Addr()
	ckAt := final - alloc.HeaderSize + 8
	durable := binary.LittleEndian.Uint64(fenced[ckAt:])
	if live := dev.ReadU64(ckAt); durable == live || durable>>63 == 0 {
		t.Fatalf("the final's header block was not recycled from a checksummed node (durable %#x, live %#x)", durable, live)
	}

	s2, rs := recoverImage(t, cfg, fenced)
	m2, _ := s2.Map("m")
	if _, ok := m2.Get([]byte("new")); ok || rs.StagedRoots != 0 {
		t.Fatalf("a stage slot over ghost blocks was applied (%d roots moved)", rs.StagedRoots)
	}
	for i := 0; i < 40; i++ {
		if v, ok := m2.Get([]byte(fmt.Sprintf("k%02d", i))); !ok || string(v) != "old" {
			t.Fatalf("k%02d = %q, %v after rejecting the slot", i, v, ok)
		}
	}

	s3, rs := recoverImage(t, cfg, inflight)
	m3, _ := s3.Map("m")
	if v, ok := m3.Get([]byte("new")); !ok || string(v) != "v" || rs.StagedRoots != 1 {
		t.Fatalf("with its blocks persisted the stage slot must apply: %q, %v, %d roots moved", v, ok, rs.StagedRoots)
	}
}

// TestStagedSlotIgnoresCASAddressReuse is hazard (b). A round stages A → B
// on a root and publishes B; then an optimistic CAS publishes a version at
// A's address again (here A itself, with reclamation off so it stays
// intact), and a fence covers it. The cell names A once more, but with a
// later publication counter than the stage slot's old word, so recovery
// must keep A: applying the superseded slot would roll the root back to B.
func TestStagedSlotIgnoresCASAddressReuse(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	s.heap.DisableReclaim = true
	m, _ := s.Map("m")
	m.Set([]byte("k"), []byte("A"))
	s.Sync()
	slot, _ := s.heap.RootSlot("m")
	a := s.heap.Root(slot)
	asyncSet(t, s, m, "k", "B")
	b := s.heap.Root(slot)
	if !s.publishRoot(slot, b, a) {
		t.Fatal("the CAS republishing A's address lost")
	}
	if s.heap.Root(slot) != a {
		t.Fatal("the cell does not name A after the CAS")
	}
	s.Sync()
	for seed := uint64(0); seed < 4; seed++ {
		s2, rs := recoverImage(t, cfg, dev.CrashImage(pmem.CrashEvictRandom, seed))
		m2, _ := s2.Map("m")
		if v, ok := m2.Get([]byte("k")); !ok || string(v) != "A" || rs.StagedRoots != 0 {
			t.Fatalf("seed %d: k = %q, %v with %d roots moved; the superseded stage slot was applied", seed, v, ok, rs.StagedRoots)
		}
	}
}

// TestStagedRoundOutlivesLiveRecord: a staged round on a root a
// multi-root group just swapped is acknowledged at its own fence, which
// covers the group's swaps; the group's member slots stay in the stage
// table after it. A crash can find them there and the root's cell line
// evicted with the round's swap in it. Recovery must not roll that root
// back onto the group's version: the group's swap there has landed (a
// later publication overwrote it), and the acknowledged round must
// survive.
func TestStagedRoundOutlivesLiveRecord(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	a, _ := s.Map("a")
	b, _ := s.Map("b")
	s.Sync()
	bt := s.NewBatch()
	bt.MapSet(a, []byte("k"), []byte("batch"))
	bt.MapSet(b, []byte("k"), []byte("batch"))
	bt.Commit()
	slot, _ := s.heap.RootSlot("a")
	member := s.heap.StageSlotAddr(slot, int(s.dev.ReadU64(s.heap.RootCellAddr(slot))>>35&1))
	group := s.dev.ReadU64(member + 8)
	asyncSet(t, s, a, "k", "acked")
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	at := s.heap.RootCellAddr(slot) &^ (pmem.LineSize - 1)
	copy(img[at:at+pmem.LineSize], dev.Snapshot()[at:at+pmem.LineSize]) // root a's cell line evicted
	if binary.LittleEndian.Uint64(img[member+8:]) != group || group&0xff != 2 {
		t.Fatalf("the image lost the group's member slot on a (group word %#x)", binary.LittleEndian.Uint64(img[member+8:]))
	}
	s2, _ := recoverImage(t, cfg, img)
	a2, _ := s2.Map("a")
	b2, _ := s2.Map("b")
	if v, ok := a2.Get([]byte("k")); !ok || string(v) != "acked" {
		t.Fatalf("a.k = %q, %v: the group's roll-forward undid an acknowledged round", v, ok)
	}
	if v, ok := b2.Get([]byte("k")); !ok || string(v) != "batch" {
		t.Fatalf("b.k = %q, %v: the batch lost its other root", v, ok)
	}
}

// TestStagedSlotReuseWaitsForFence is hazard (c): a round overwrites the
// stage slot of the publication two before its own, and by the time it
// writes that slot a fence must have made that publication's cell write
// durable — otherwise a crash could find the cell still at the old
// version with the slot that would have moved it gone. Rounds, CAS
// publications and a locked commit alternate on one root; at every write
// into a stage slot the durable cell's publication counter must be at
// least that of the slot's previous final.
func TestStagedSlotReuseWaitsForFence(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	s.Sync()
	slot, _ := s.heap.RootSlot("m")
	// At the first write into a stage slot that already holds a
	// publication (its final word is a slot's first write), the durable
	// cell must be at or past it.
	cell := s.heap.RootCellAddr(slot)
	slots := [2]pmem.Addr{s.heap.StageSlotAddr(slot, 0), s.heap.StageSlotAddr(slot, 1)}
	var prevs [2]uint64 // each slot's final word, as of its last completed write
	checked := 0
	var reuseErr error
	dev.SetTracer(&crashProbe{onWrite: func(addr pmem.Addr) {
		for i, at := range slots {
			if addr != at {
				continue
			}
			if prev := prevs[i]; prev != 0 {
				durable := binary.LittleEndian.Uint64(dev.DurableBytes(cell, 8))
				if durable>>35 < prev>>35 && reuseErr == nil {
					reuseErr = fmt.Errorf("stage slot %d overwritten while the durable cell (counter %d) is behind its previous final (counter %d)", i, durable>>35, prev>>35)
				}
				checked++
			}
			prevs[i] = dev.ReadU64(at)
		}
	}})
	for i := 0; i < 24; i++ {
		k := fmt.Sprintf("k%02d", i)
		switch i % 4 {
		case 2:
			m.Set([]byte(k), []byte(k)) // optimistic CAS
		case 3:
			b := s.NewBatch()
			b.MapSet(m, []byte(k), []byte(k))
			b.Commit()
		default:
			asyncSet(t, s, m, k, k)
		}
	}
	dev.SetTracer(nil)
	if reuseErr != nil {
		t.Fatal(reuseErr)
	}
	if checked < 10 {
		t.Fatalf("only %d stage-slot overwrites checked", checked)
	}
}

// TestMixedRoundStagesOneRootSubmissions: a round carrying a submission
// that spans roots and one-root submissions — on a root the spanning one
// does not touch, and on one it does — takes one fence, and every ticket
// resolves when the round returns: the one-root submission on the
// untouched root is staged on its own, the spanning submission and the
// one-root submission sharing its root are staged as one group whose
// members carry digests. All three are durable at that fence, so the
// round fences nothing after its swaps.
func TestMixedRoundStagesOneRootSubmissions(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	a, _ := s.Map("a")
	b, _ := s.Map("b")
	c, _ := s.Map("c")
	s.Sync()
	q := &s.sh.queue
	q.mu.Lock()
	q.leading.Store(true)
	q.mu.Unlock()
	span, onC, onA := s.NewBatch(), s.NewBatch(), s.NewBatch()
	span.MapSet(a, []byte("k"), []byte("span"))
	span.MapSet(b, []byte("k"), []byte("span"))
	onC.MapSet(c, []byte("k"), []byte("one"))
	onA.MapSet(a, []byte("k2"), []byte("one"))
	tSpan, tC, tA := span.CommitAsync(), onC.CommitAsync(), onA.CommitAsync()
	var roundImg []byte
	dev.SetTracer(&crashProbe{onFence: func(int) {
		if roundImg == nil { // the round's fence, no cell written yet
			roundImg = dev.CrashImage(pmem.CrashFencedOnly, 0)
		}
	}})
	before := dev.Stats().Fences
	q.mu.Lock()
	s.release()
	dev.SetTracer(nil)
	if got := dev.Stats().Fences - before; got != 1 {
		t.Fatalf("release paid %d fences, want 1: the mixed round's, none after its swaps", got)
	}
	if !tC.Done() || !tSpan.Done() || !tA.Done() {
		t.Fatal("the leader stepped down with a ticket unresolved")
	}
	s2, rs := recoverImage(t, cfg, roundImg)
	a2, _ := s2.Map("a")
	b2, _ := s2.Map("b")
	c2, _ := s2.Map("c")
	for _, kv := range []struct {
		m    *Map
		k, v string
	}{{c2, "k", "one"}, {a2, "k", "span"}, {b2, "k", "span"}, {a2, "k2", "one"}} {
		if v, ok := kv.m.Get([]byte(kv.k)); !ok || string(v) != kv.v {
			t.Fatalf("%s = %q, %v from the round's fence alone: a resolved submission is not durable", kv.k, v, ok)
		}
	}
	if rs.StagedRoots != 3 {
		t.Fatalf("recovery moved %d roots, want 3", rs.StagedRoots)
	}
}

// TestCASBetweenGroupSwapsThenStagedRound pins the member-slot overwrite
// hazard with a schedule. A two-root group on A and B is parked at the
// flush of its swap of A, before it writes B's cell (the two cells share
// a line); an optimistic CAS on A, based on the
// group's version, pays its fence there — it fences before it takes A's
// mutex — and publishes once the group has swapped B and unlocked. A
// staged round on A then reuses the stage slot of the group's member on A
// (same counter parity). Until a fence covers B's swap, that slot is
// recovery's only record that B's swap belongs with A's landed one: the
// round must fence before it overwrites it (alloc's awaitCover). Every PM
// write of the window is a cut under every crash policy.
func TestCASBetweenGroupSwapsThenStagedRound(t *testing.T) {
	h := &crashHist{roots: []histRoot{
		{name: "a", bind: mxBind((*Store).Map, mxMapOps)},
		{name: "b", bind: mxBind((*Store).Map, mxMapOps)},
	}}
	h.setup = func(e *histEnv) {
		e.ops[0].basic(0)
		e.ops[1].basic(0)
	}
	h.window = func(e *histEnv, r *histRec) {
		s := e.db.Store()
		slot, _ := s.heap.RootSlot("a")
		aLine := uint64(s.heap.RootCellAddr(slot)) / pmem.LineSize
		parked, resume, fenced := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var parkOnce, fenceOnce sync.Once
		r.p.onFlush = func(ln uint64) {
			if ln == aLine {
				parkOnce.Do(func() {
					close(parked)
					<-resume
				})
			}
		}
		wins := s.CommitStats().FastWins
		gDone, cDone := make(chan struct{}), make(chan struct{})
		ig := r.invoke("group", e.eff(0, 1), e.eff(1, 1))
		go func() {
			defer close(gDone)
			b := s.NewBatch()
			e.ops[0].batch(b, 1)
			e.ops[1].batch(b, 1)
			b.Commit()
		}()
		<-parked // the group swapped A and has not written B's cell
		r.p.onFence = func(int) { fenceOnce.Do(func() { close(fenced) }) }
		ic := r.invoke("cas", e.eff(0, 2))
		go func() {
			defer close(cDone)
			e.ops[0].basic(2)
		}()
		<-fenced // the CAS paid its fence, ahead of B's swap
		close(resume)
		<-gDone
		r.respond(ig, false)
		<-cDone
		r.respond(ic, false)
		if got := s.CommitStats().FastWins - wins; got != 1 {
			e.t.Fatalf("the CAS took %d optimistic wins, want 1: the schedule did not run", got)
		}
		r.durable("round", e.effs(0, 3, 4), func() {
			b := s.NewBatch()
			e.ops[0].batch(b, 3)
			mxWait(e.t, b.CommitAsync())
		})
	}
	h.run(t)
}
