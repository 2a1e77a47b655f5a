package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/durcheck"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// The crash checker. A history — a store's roots, a setup committed
// before it, and a window of recorded ops from one or more goroutines —
// runs once under one capture hook (crashProbe). At every stride-th PM
// write of the window the hook takes a crash image of every region under
// each CrashPolicy, recovers it and checks it while the writers wait:
//
//   - recovered-is-linearizable-prefix, acked-survives,
//     not-invoked-absent and multi-root-whole are durcheck's, decided
//     against the ops recorded by then, each stamped on the hook's clock
//     when invoked, when returned and when acknowledged durable;
//   - recovery-idempotent: at strided writes of a sampled recovery, the
//     recovery's own crash image recovers the same state;
//   - writable-after-recovery: every recovered root takes an update.
//
// After the window the history ends with Sync: every op must then be
// acknowledged and recovered, and no-leak requires the live bytes, less
// the unsealed navigation nodes its roots name (which recovery sweeps by
// design), to equal a fresh recovery's. A crash image is taken while the writers'
// stores run, so concurrent histories are checked in the one run. A
// history may also pin, per image, what the spec leaves open (expect).

// crashPolicies is every CrashPolicy, each checked at every cut.
var crashPolicies = []pmem.CrashPolicy{pmem.CrashFencedOnly, pmem.CrashInflightRandom, pmem.CrashEvictRandom, pmem.CrashAllInflight}

const (
	idemEvery  = 8 // every idemEvery-th cut's CrashEvictRandom image is recovered under a second crash
	idemStride = 4 // ... at every idemStride-th PM write of its recovery
)

// crashProbe is the one tracer the crash tests install. It ticks a clock
// at every PM write and every recorded event, calls cut (under mu) at
// every every-th write, and calls a test's schedule hooks, which pin an
// interleaving.
type crashProbe struct {
	mu     sync.Mutex
	clock  int64
	writes int
	every  int
	cut    func()

	onWrite func(pmem.Addr)
	onFlush func(line uint64)
	onFence func(n int)
}

func (p *crashProbe) tick() int64 {
	p.clock++
	return p.clock
}

func (p *crashProbe) Write(addr pmem.Addr, _ int) {
	if p.onWrite != nil {
		p.onWrite(addr)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tick()
	if p.writes++; p.every > 0 && p.writes%p.every == 0 {
		p.cut()
	}
}

func (p *crashProbe) Flush(line uint64) {
	if p.onFlush != nil {
		p.onFlush(line)
	}
}

func (p *crashProbe) Fence(n int) {
	if p.onFence != nil {
		p.onFence(n)
	}
}

func (*crashProbe) Alloc(pmem.Addr, uint64, uint8) {}
func (*crashProbe) Free(pmem.Addr, uint64)         {}
func (*crashProbe) FASEBegin()                     {}
func (*crashProbe) FASEEnd()                       {}
func (*crashProbe) CommitBegin()                   {}
func (*crashProbe) CommitEnd()                     {}

// install sets p on every device and returns the undo.
func (p *crashProbe) install(devs []pmem.Backend) func() {
	for _, d := range devs {
		d.SetTracer(p)
	}
	return func() {
		for _, d := range devs {
			d.SetTracer(nil)
		}
	}
}

// crashHist is one checker history.
type crashHist struct {
	shards int // a DB of this many shards; 0: one store
	roots  []histRoot
	setup  func(e *histEnv) // committed and synced before the window
	window func(e *histEnv, r *histRec)
	stride int    // cut every stride-th PM write; 0: mxInjectionStride()
	seed   uint64 // varies the crash images' random line choices

	// expect, if set, is the history's own verdict on every image the
	// spec accepts: what it pins beyond the spec — which way an
	// unacknowledged op went — from the images and the window's progress.
	expect func(c histCut) error

	// On another backend: the devices the history runs on and the
	// devices a recovery reads its images from. Nil: simulator devices.
	open      func() []pmem.Backend
	recoverOn func(imgs [][]byte) []pmem.Backend
}

// histCut is one checked crash image, for a history's expect.
type histCut struct {
	policy pmem.CrashPolicy
	imgs   [][]byte       // the region images, by shard
	got    durcheck.State // what they recovered, by root
	end    bool           // the image after the history's closing Sync
}

// word reads the 8-byte word at addr of shard d's image.
func (c histCut) word(d int, addr pmem.Addr) uint64 {
	return binary.LittleEndian.Uint64(c.imgs[d][addr:])
}

// histRoot is one root of a history, bound by the matrixOps adapter of
// its structure. A sel root is bound once the stores turn selective
// (checkpointing every mxCheckpointEvery records), and its history
// reopens WithSelective.
type histRoot struct {
	name  string
	shard int
	sel   bool
	bind  func(s *Store, name string) (matrixOps, error)
}

// histEnv is a history's store and its roots' adapters, by root index.
type histEnv struct {
	t   *testing.T
	db  *DB
	ops []matrixOps
}

// eff is op i of root's structure as a model effect.
func (e *histEnv) eff(root, i int) durcheck.Effect {
	f := e.ops[root].eff(i)
	f.Root = root
	return f
}

// effs is ops from..to-1 of root's structure.
func (e *histEnv) effs(root, from, to int) []durcheck.Effect {
	var out []durcheck.Effect
	for i := from; i < to; i++ {
		out = append(out, e.eff(root, i))
	}
	return out
}

// state reads every root in the model's canonical form.
func (e *histEnv) state() durcheck.State {
	s := make(durcheck.State, len(e.ops))
	for i, o := range e.ops {
		s[i] = o.dump()
	}
	return s
}

func (h *crashHist) opts() []Option {
	if slices.ContainsFunc(h.roots, func(r histRoot) bool { return r.sel }) {
		return []Option{WithSelective(mxCheckpointEvery)}
	}
	return nil
}

func (h *crashHist) config() pmem.Config {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	return cfg
}

// bind binds every root on db, in order; the first root marked sel turns
// every store selective first.
func (h *crashHist) bind(db *DB) (*histEnv, error) {
	e := &histEnv{db: db}
	turned := false
	for _, r := range h.roots {
		if r.sel && !turned {
			turned = true
			for i := 0; i < db.ShardCount(); i++ {
				db.Shard(i).makeSelective(mxCheckpointEvery)
			}
		}
		o, err := r.bind(db.Shard(r.shard), r.name)
		if err != nil {
			return nil, fmt.Errorf("binding %s: %w", r.name, err)
		}
		e.ops = append(e.ops, o)
	}
	return e, nil
}

// devices builds a recovery's devices from a set of region images, with
// no cache model (nothing reads a recovered store's simulated time), and
// tracking durability only if the recovery is to be crashed again.
func (h *crashHist) devices(imgs [][]byte, track bool) []pmem.Backend {
	cfg := h.config()
	cfg.DisableCache, cfg.TrackDurable = true, track
	devs := make([]pmem.Backend, len(imgs))
	for i, img := range imgs {
		devs[i] = pmem.NewFromImage(cfg, img)
	}
	return devs
}

// attach recovers the store on devs through the front door.
func (h *crashHist) attach(devs []pmem.Backend) (*DB, RecoveryInfo, error) {
	return Open(pmem.Config{}, append([]Option{WithDevices(devs...), WithAttach()}, h.opts()...)...)
}

// crossRolls counts the groups spanning shards that a recovery of imgs
// rolls forward: one member's swap is in the images and another's is not.
func (h *crashHist) crossRolls(imgs [][]byte) int {
	if len(imgs) < 2 {
		return 0
	}
	stores := make([]*Store, len(imgs))
	for i, d := range h.devices(imgs, false) {
		s, err := attachStore(d, i)
		if err != nil {
			return 0
		}
		stores[i] = s
	}
	groups, err := crossGroups(stores)
	if err != nil {
		return 0
	}
	n := 0
	for _, g := range groups {
		spans := slices.ContainsFunc(g, func(m crossMember) bool { return m.shard != g[0].shard })
		if spans && landed(g) && slices.ContainsFunc(g, func(m crossMember) bool { return !m.Landed }) {
			n++
		}
	}
	return n
}

// recoverState recovers a set of region images and reads its roots.
func (h *crashHist) recoverState(imgs [][]byte) (s durcheck.State, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("recovered store panicked: %v", p)
		}
	}()
	db, _, err := h.attach(h.devices(imgs, false))
	if err != nil {
		return nil, err
	}
	e, err := h.bind(db)
	if err != nil {
		return nil, err
	}
	return e.state(), nil
}

// run runs the history and checks every cut, then its end.
func (h *crashHist) run(t *testing.T) *histRec {
	t.Helper()
	var opts []Option
	if h.shards > 1 {
		opts = append(opts, WithShards(h.shards))
	}
	if h.open != nil {
		opts = append(opts, WithDevices(h.open()...))
	}
	db, _, err := Open(h.config(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := h.bind(db)
	if err != nil {
		t.Fatal(err)
	}
	e.t = t
	if h.setup != nil {
		h.setup(e)
	}
	db.Sync()
	r := &histRec{h: h, e: e, devs: db.Regions().Devices(), model: durcheck.Model{Init: e.state()}}
	for _, o := range e.ops {
		r.model.Kinds = append(r.model.Kinds, o.kind)
	}
	stride := h.stride
	if stride == 0 {
		stride = mxInjectionStride()
	}
	r.p = &crashProbe{every: stride, cut: r.cut}
	undo := r.p.install(r.devs)
	h.window(e, r)
	r.p.mu.Lock()
	r.p.every = 0
	r.p.mu.Unlock()
	undo()
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.cuts == 0 {
		t.Fatal("the window wrote nothing to cut")
	}
	db.Sync()
	if err := r.end(); err != nil {
		t.Fatal(err)
	}
	return r
}

// histRec records a history's ops and checks its cuts.
type histRec struct {
	h      *crashHist
	e      *histEnv
	p      *crashProbe
	devs   []pmem.Backend
	model  durcheck.Model
	ops    []durcheck.Op
	fences [][]uint64 // per op: every device's FenceSeq when it returned; nil until then, or if acknowledged at its return
	cuts   int
	rolls  int  // images whose recovery rolls a group spanning shards forward
	ended  bool // the window is over and synced: checking the last image
	err    error
}

// invoke records the invocation of an op with the given effects.
func (r *histRec) invoke(name string, effs ...durcheck.Effect) int {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	r.ops = append(r.ops, durcheck.Op{Name: name, Effects: effs, Invoke: r.p.tick(), Response: durcheck.Never, Ack: durcheck.Never})
	r.fences = append(r.fences, nil)
	return len(r.ops) - 1
}

// respond records op i's return. A durable op is acknowledged by it;
// any other is acknowledged once a fence on every region it wrote has
// passed the return.
func (r *histRec) respond(i int, durable bool) {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	op := &r.ops[i]
	op.Response = r.p.tick()
	if durable {
		op.Ack = op.Response
		return
	}
	r.fences[i] = make([]uint64, len(r.devs))
	for d, dev := range r.devs {
		r.fences[i][d] = dev.FenceSeq()
	}
}

// do records f as an op durable at the next fence after it returns: a
// Basic update or a synchronous commit.
func (r *histRec) do(name string, effs []durcheck.Effect, f func()) {
	i := r.invoke(name, effs...)
	f()
	r.respond(i, false)
}

// durable records f as an op acknowledged durable when it returns: a
// CommitAsync and its Wait, or a cross-shard commit.
func (r *histRec) durable(name string, effs []durcheck.Effect, f func()) {
	i := r.invoke(name, effs...)
	f()
	r.respond(i, true)
}

// ackCovered acknowledges every returned op a completed fence on each
// region it wrote covers: a fence counted past the FenceSeq read after
// the op returned started after its last flush. Under p.mu.
func (r *histRec) ackCovered() {
	for i, f := range r.fences {
		if f == nil || r.ops[i].Ack != durcheck.Never {
			continue
		}
		covered := true
		for _, e := range r.ops[i].Effects {
			d := r.h.roots[e.Root].shard
			covered = covered && r.devs[d].FenceSeq() > f[d]
		}
		if covered {
			r.ops[i].Ack = r.p.tick()
		}
	}
}

// crash cuts the history here, between two PM writes.
func (r *histRec) crash() {
	r.p.mu.Lock()
	defer r.p.mu.Unlock()
	r.cut()
}

// cut takes the crash images of one cut and checks each. Under p.mu.
func (r *histRec) cut() {
	if r.err != nil {
		return
	}
	r.ackCovered()
	cut := r.p.tick()
	ops := slices.Clone(r.ops)
	r.cuts++
	regions := pmem.NewRegions(r.devs...)
	for _, policy := range crashPolicies {
		imgs := regions.CrashImages(policy, (uint64(cut)+r.h.seed<<32)*0x9E3779B97F4A7C15+uint64(policy))
		idem := policy == pmem.CrashEvictRandom && r.cuts%idemEvery == 0
		if err := r.check(imgs, policy, ops, cut, idem); err != nil {
			r.err = fmt.Errorf("cut at write %d, policy %d: %w", r.p.writes, policy, err)
			return
		}
	}
}

// check recovers one image set, taken under policy, and checks it
// against ops at cut.
func (r *histRec) check(imgs [][]byte, policy pmem.CrashPolicy, ops []durcheck.Op, cut int64, idem bool) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("recovered store panicked: %v", p)
		}
	}()
	var devs []pmem.Backend
	if r.h.recoverOn != nil {
		devs = r.h.recoverOn(imgs)
	} else {
		devs = r.h.devices(imgs, idem)
	}
	var again []durcheck.State
	var againErr error
	undo := func() {}
	if idem {
		inner := &crashProbe{every: idemStride}
		inner.cut = func() {
			s, err := r.h.recoverState(pmem.NewRegions(devs...).CrashImages(pmem.CrashEvictRandom, uint64(len(again))))
			if err != nil && againErr == nil {
				againErr = err
			}
			again = append(again, s)
		}
		undo = inner.install(devs) // cuts recovery's own writes only
	}
	r.rolls += r.h.crossRolls(imgs)
	db, _, err := r.h.attach(devs)
	undo()
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	if againErr != nil {
		return fmt.Errorf("recovery-idempotent: recovering a crash during recovery: %w", againErr)
	}
	e, err := r.h.bind(db)
	if err != nil {
		return err
	}
	got := e.state()
	if err := r.model.Check(ops, cut, got); err != nil {
		return err
	}
	if r.h.expect != nil {
		if err := r.h.expect(histCut{policy: policy, imgs: imgs, got: got, end: r.ended}); err != nil {
			return err
		}
	}
	for _, s := range again {
		if s.String() != got.String() {
			return fmt.Errorf("recovery-idempotent: a crash during recovery recovers %s, the recovery %s", s, got)
		}
	}
	for i, o := range e.ops {
		o.basic(900 + i)
		if slices.Equal(o.dump(), got[i]) {
			return fmt.Errorf("writable-after-recovery: root %s did not take an update after recovery", r.h.roots[i].name)
		}
	}
	return nil
}

// end checks the history's end, after its closing Sync: every op is
// acknowledged and recovered, and the store's live bytes, less the
// navigation nodes no fold has sealed that its roots name (navBytes), are
// a fresh recovery's (no-leak).
func (r *histRec) end() error {
	r.ackCovered()
	for _, op := range r.ops {
		if op.Ack == durcheck.Never {
			return fmt.Errorf("%s is not acknowledged after Sync", op.Name)
		}
	}
	var live uint64
	for i := 0; i < r.e.db.ShardCount(); i++ {
		live += r.e.db.Shard(i).Heap().Stats().LiveBytes - r.navBytes(i)
	}
	imgs := pmem.NewRegions(r.devs...).CrashImages(pmem.CrashFencedOnly, 0)
	r.ended = true
	if err := r.check(imgs, pmem.CrashFencedOnly, r.ops, r.p.tick(), true); err != nil {
		return fmt.Errorf("after Sync: %w", err)
	}
	_, info, err := r.h.attach(r.h.devices(imgs, false))
	if err != nil {
		return err
	}
	if info.Stats.LiveBytes != live {
		return fmt.Errorf("no-leak: %d live bytes after Sync, a fresh recovery finds %d", live, info.Stats.LiveBytes)
	}
	return nil
}

// navBytes sums the navigation nodes no fold has sealed that the live
// roots of shard d name (funcds.Crown). Recovery never follows a
// navigation word, so a fresh recovery sweeps them: they are the one
// difference between a selective store's live bytes and a recovery's. A
// navigation node no root reaches is not among them, so a leaked one
// still fails no-leak.
func (r *histRec) navBytes(d int) uint64 {
	h := r.e.db.Shard(d).Heap()
	seen := map[pmem.Addr]bool{}
	var n uint64
	for _, root := range r.h.roots {
		if root.shard != d {
			continue
		}
		slot, err := h.RootSlot(root.name)
		if err != nil || h.Root(slot) == pmem.Nil {
			continue
		}
		for _, a := range funcds.Crown(h, h.Root(slot)) {
			if !seen[a] {
				seen[a] = true
				n += uint64(h.PayloadSize(a) + alloc.HeaderSize)
			}
		}
	}
	return n
}
