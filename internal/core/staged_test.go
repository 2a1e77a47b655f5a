package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Staged one-root publications (DESIGN.md §7): a commit-queue round
// writes the publication of each root only one-root submissions changed
// into the heap's stage table ahead of its one fence, so that fence
// acknowledges those submissions, and recovery applies a stage slot whose
// old cell word is still the durable cell and whose fresh blocks
// re-verify. These tests pin the fence budget and each hazard the
// protocol must close.

// armStaging makes s's heap ready to stage, as a store's first staging
// attempt and the fence after it do; the rounds after it stage.
func armStaging(s *Store) {
	s.heap.StageReady()
	s.heap.Fence()
}

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
// the rounds' own, no settle — and at most one flush (the root's stage line,
// staged) and 24 PM bytes (the stage slot) per op more than the same N
// updates through Batch.Commit, which pays the same round minus the
// staging. Each Wait is an acknowledgement: a fenced-only crash image
// taken right after it, with no later fence, holds the op (hazard d).
func TestAsyncOneRootOneFence(t *testing.T) {
	const n = 64
	cfg := pmem.DefaultConfig(16 << 20)
	cfg.TrackDurable = true
	build := func() (*pmem.Device, *Store, *Map) {
		dev := pmem.New(cfg)
		s, err := newStore(dev)
		if err != nil {
			t.Fatal(err)
		}
		m, _ := s.Map("m")
		for i := 0; i < 200; i++ {
			m.Set([]byte(fmt.Sprintf("pre%03d", i)), []byte("x"))
		}
		armStaging(s)
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
	if got.Flushes > ref.Flushes+n || got.BytesWritten > ref.BytesWritten+24*n {
		t.Errorf("%d acks flushed %d lines and wrote %d B; Batch.Commit of the same ops %d / %d: budget +%d lines, +%d B",
			n, got.Flushes, got.BytesWritten, ref.Flushes, ref.BytesWritten, n, 24*n)
	}
	for j, img := range images {
		s2, _ := recoverImage(t, cfg, img)
		m2, _ := s2.Map("m")
		for i := 0; i <= 8*j; i++ {
			if v, ok := m2.Get([]byte(key(i))); !ok || string(v) != key(i) {
				t.Fatalf("image after ack %d: op %d acknowledged before it is lost (%q, %v)", 8*j, i, v, ok)
			}
		}
	}
}

// stageFlushHook captures, at the first flush of one root's stage line,
// the crash image in which that line — just staged — is the only unfenced
// line that reached PM (fenced), or in which every inflight line did
// (inflight).
type stageFlushHook struct {
	*pmem.CrashCountdown // its Write and Flush are shadowed, so it only supplies the other, empty hooks
	dev                  *pmem.Device
	line                 uint64
	fenced, inflight     []byte
}

func (h *stageFlushHook) Write(pmem.Addr, int) {}

func (h *stageFlushHook) Flush(line uint64) {
	if line != h.line || h.fenced != nil {
		return
	}
	h.inflight = h.dev.CrashImage(pmem.CrashAllInflight, 0)
	h.fenced = h.dev.CrashImage(pmem.CrashFencedOnly, 0)
	at := line << 6
	copy(h.fenced[at:at+pmem.LineSize], h.dev.Snapshot()[at:at+pmem.LineSize])
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
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.Map("m")
	for i := 0; i < 40; i++ {
		m.Set([]byte(fmt.Sprintf("k%02d", i)), []byte("old"))
	}
	armStaging(s)
	s.Sync() // the replaced paths are on the free lists, their durable bytes intact
	slot, _ := s.heap.RootSlot("m")
	hook := &stageFlushHook{
		CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0),
		dev:            dev,
		line:           uint64(s.heap.StageSlotAddr(slot, 0)) >> 6,
	}
	dev.SetTracer(hook)
	asyncSet(t, s, m, "new", "v")
	dev.SetTracer(nil)
	if hook.fenced == nil {
		t.Fatal("the round never flushed the root's stage line")
	}

	// The ghost: the staged final's header block holds, durably, an older
	// node's valid checksum word.
	final := m.Current().Addr()
	ckAt := final - alloc.HeaderSize + 8
	durable := binary.LittleEndian.Uint64(hook.fenced[ckAt:])
	if live := dev.ReadU64(ckAt); durable == live || durable>>63 == 0 {
		t.Fatalf("the final's header block was not recycled from a checksummed node (durable %#x, live %#x)", durable, live)
	}

	s2, rs := recoverImage(t, cfg, hook.fenced)
	m2, _ := s2.Map("m")
	if _, ok := m2.Get([]byte("new")); ok || rs.StagedRoots != 0 {
		t.Fatalf("a stage slot over ghost blocks was applied (%d roots moved)", rs.StagedRoots)
	}
	for i := 0; i < 40; i++ {
		if v, ok := m2.Get([]byte(fmt.Sprintf("k%02d", i))); !ok || string(v) != "old" {
			t.Fatalf("k%02d = %q, %v after rejecting the slot", i, v, ok)
		}
	}

	s3, rs := recoverImage(t, cfg, hook.inflight)
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
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	s.heap.DisableReclaim = true
	m, _ := s.Map("m")
	m.Set([]byte("k"), []byte("A"))
	armStaging(s)
	s.Sync()
	slot, _ := s.heap.RootSlot("m")
	a := s.heap.Root(slot)
	asyncSet(t, s, m, "k", "B")
	b := s.heap.Root(slot)
	if !s.publishRoot(slot, b, a, true) {
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
// multi-root record just swapped is acknowledged at its own fence, which
// covers the record's swaps — but the record's retirement, written after
// that fence, waits for the next. A crash in between can find the record
// live and the root's cell line evicted with the round's swap in it. Recovery
// must not roll that root back onto the record's version: the record's
// swap there has landed (a later publication overwrote it), and the
// acknowledged round must survive.
func TestStagedRoundOutlivesLiveRecord(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Map("a")
	b, _ := s.Map("b")
	armStaging(s)
	s.Sync()
	bt := s.NewBatch()
	bt.MapSet(a, []byte("k"), []byte("batch"))
	bt.MapSet(b, []byte("k"), []byte("batch"))
	bt.Commit()
	asyncSet(t, s, a, "k", "acked")
	slot, _ := s.heap.RootSlot("a")
	img := dev.CrashImage(pmem.CrashFencedOnly, 0)
	at := s.heap.RootCellAddr(slot) &^ (pmem.LineSize - 1)
	copy(img[at:at+pmem.LineSize], dev.Snapshot()[at:at+pmem.LineSize]) // root a's cell line evicted
	live := false
	for i := range s.sh.live {
		_, _, isLive := redoRecord{dev: pmem.NewFromImage(cfg, img), base: s.recSlot(i).base, max: MaxBatchRoots}.read()
		live = live || isLive
	}
	if !live {
		t.Fatal("the image holds no live record: the round's retirement was already durable")
	}
	s2, _ := recoverImage(t, cfg, img)
	a2, _ := s2.Map("a")
	b2, _ := s2.Map("b")
	if v, ok := a2.Get([]byte("k")); !ok || string(v) != "acked" {
		t.Fatalf("a.k = %q, %v: the record's roll-forward undid an acknowledged round", v, ok)
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
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.Map("m")
	armStaging(s)
	s.Sync()
	slot, _ := s.heap.RootSlot("m")
	hook := &slotReuseHook{
		CrashCountdown: pmem.NewCrashCountdown(dev, 0, pmem.CrashFencedOnly, 0),
		dev:            dev,
		cell:           s.heap.RootCellAddr(slot),
		slots:          [2]pmem.Addr{s.heap.StageSlotAddr(slot, 0), s.heap.StageSlotAddr(slot, 1)},
	}
	dev.SetTracer(hook)
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
	if hook.err != nil {
		t.Fatal(hook.err)
	}
	if hook.checked < 10 {
		t.Fatalf("only %d stage-slot overwrites checked", hook.checked)
	}
}

// slotReuseHook checks, at the first write into a stage slot that already
// holds a publication, that the durable cell is at or past it.
type slotReuseHook struct {
	*pmem.CrashCountdown // its Write is shadowed, so it only supplies the other, empty hooks
	dev                  *pmem.Device
	cell                 pmem.Addr
	slots                [2]pmem.Addr
	prev                 [2]uint64 // each slot's final word, as of its last completed write
	checked              int
	err                  error
}

func (h *slotReuseHook) Write(addr pmem.Addr, _ int) {
	for i, at := range h.slots {
		if addr != at {
			continue // the final word is a slot's first write
		}
		if prev := h.prev[i]; prev != 0 {
			durable := binary.LittleEndian.Uint64(h.dev.DurableBytes(h.cell, 8))
			if durable>>35 < prev>>35 && h.err == nil {
				h.err = fmt.Errorf("stage slot %d overwritten while the durable cell (counter %d) is behind its previous final (counter %d)", i, durable>>35, prev>>35)
			}
			h.checked++
		}
		h.prev[i] = h.dev.ReadU64(at)
	}
}

// TestMixedRoundStagesOneRootSubmissions: a round carrying a submission
// that spans roots and one-root submissions — on a root the spanning one
// does not touch, and on one it does — takes one fence. The one-root
// submission on the untouched root is staged and durable when the round
// returns; the spanning submission goes through the batch record, and the
// one-root submission that shares its root with it is published beside
// it, so both wait for a later fence.
func TestMixedRoundStagesOneRootSubmissions(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s, err := newStore(dev)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := s.Map("a")
	b, _ := s.Map("b")
	c, _ := s.Map("c")
	armStaging(s)
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
	before := dev.Stats().Fences
	q.mu.Lock()
	s.release()
	if got := dev.Stats().Fences - before; got != 1 {
		t.Fatalf("the mixed round paid %d fences, want 1", got)
	}
	if !tC.Done() || tSpan.Done() || tA.Done() {
		t.Fatalf("after the round: staged one-root ticket done=%v, spanning done=%v, one-root beside it done=%v; want true, false, false",
			tC.Done(), tSpan.Done(), tA.Done())
	}
	s2, rs := recoverImage(t, cfg, dev.CrashImage(pmem.CrashFencedOnly, 0))
	c2, _ := s2.Map("c")
	if v, ok := c2.Get([]byte("k")); !ok || string(v) != "one" || rs.StagedRoots != 1 {
		t.Fatalf("c.k = %q, %v with %d roots moved: the staged submission is not durable at its round's fence", v, ok, rs.StagedRoots)
	}
	for _, tk := range []*Ticket{tSpan, tA} {
		tk.Wait()
	}
	if !tSpan.Done() || !tA.Done() {
		t.Fatal("Wait returned before the record's publication was durable")
	}
}
