package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Crash-matrix sweep: for every structure (vector, CHAMP map, CHAMP
// set, stack, queue) × every commit discipline (per-op FASEs, a
// multi-op edit FASE, a multi-root batch and a CommitUnrelated of
// caller-built shadow chains through the batch record, and a
// cross-shard batch through the shard manifest), inject a power
// failure at *every* PM-write index of the probed window under the
// most adversarial eviction policy, recover, and assert the recovered
// state equals a committed prefix — and, for the atomic modes, that the
// paired root moved with the structure or not at all. This replaces
// hand-picked crash windows with exhaustive ones: each injection point
// is between two PM writes, which subdivides every flush and fence
// interval of the window.

const (
	mxPrefix = 3 // committed ops before the probed window
	mxProbe  = 3 // ops inside the probed window
)

// matrixOps drives one structure through the sweep.
type matrixOps struct {
	basic func(i int)               // apply op i as its own Basic FASE
	batch func(b Batcher, i int)    // queue op i into a (single- or cross-shard) batch
	chain func(from, to int) Update // shadow chain of ops from..to-1 on the committed version, one shadow per op
	dump  func() []string           // canonical full state
}

type matrixStructure struct {
	name      string
	selective bool // the structure is bound on a store turned selective (mxCheckpointEvery)
	bind      func(t *testing.T, s *Store, nm string) matrixOps
}

// mxCheckpointEvery is the selective rows' checkpoint interval: every 2
// records, so they fold a checkpoint — crown flushes, ext rewrite,
// volatile-bit clears — inside the probed injection windows.
const mxCheckpointEvery = 2

// opts are the Open options a row opens or reopens a store with:
// WithSelective(mxCheckpointEvery) for a selective row. A reopen
// WithSelective leaves the row's plain marker map plain.
func (st matrixStructure) opts() []Option {
	if st.selective {
		return []Option{WithSelective(mxCheckpointEvery)}
	}
	return nil
}

// mxOpenRow prepares one row's store: the marker map is bound first,
// plain, and a selective row's store then turns selective — the state a
// reopen WithSelective of a plain store produces — before the structure
// under test is bound, so the batch and unrelated modes publish a
// selective and a plain root in one redo record.
func mxOpenRow(t *testing.T, st matrixStructure, s *Store) (matrixOps, *Map) {
	t.Helper()
	marker, err := s.Map("mx-marker")
	if err != nil {
		t.Fatal(err)
	}
	if st.selective {
		s.makeSelective(mxCheckpointEvery)
	}
	return st.bind(t, s, "mx"), marker
}

func mxVal(i int) uint64 { return uint64(i*31 + 7) }

func mxUints(els []uint64) []string {
	out := make([]string, len(els))
	for i, e := range els {
		out[i] = fmt.Sprint(e)
	}
	return out
}

func mxVectorOps(v *Vector) matrixOps {
	return matrixOps{
		basic: func(i int) { v.Push(mxVal(i)) },
		batch: func(b Batcher, i int) { b.VectorPush(v, mxVal(i)) },
		chain: func(from, to int) Update {
			u, cur := Update{DS: v}, v.Current()
			for i := from; i < to; i++ {
				cur = cur.Push(mxVal(i))
				u.Shadows = append(u.Shadows, cur)
			}
			return u
		},
		dump: func() []string {
			els := make([]uint64, v.Len())
			for i := range els {
				els[i] = v.Get(uint64(i))
			}
			return mxUints(els)
		},
	}
}

func mxMapOps(m *Map) matrixOps {
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("v%03d", i*3)) }
	return matrixOps{
		basic: func(i int) { m.Set(key(i), val(i)) },
		batch: func(b Batcher, i int) { b.MapSet(m, key(i), val(i)) },
		chain: func(from, to int) Update {
			u, cur := Update{DS: m}, m.Current()
			for i := from; i < to; i++ {
				cur, _ = cur.Set(key(i), val(i))
				u.Shadows = append(u.Shadows, cur)
			}
			return u
		},
		dump: func() []string {
			var out []string
			m.Range(func(k, v []byte) bool {
				out = append(out, string(k)+"="+string(v))
				return true
			})
			sort.Strings(out)
			return out
		},
	}
}

func mxSetOps(st *Set) matrixOps {
	key := func(i int) []byte { return []byte(fmt.Sprintf("m%03d", i)) }
	return matrixOps{
		basic: func(i int) { st.Insert(key(i)) },
		batch: func(b Batcher, i int) { b.SetInsert(st, key(i)) },
		chain: func(from, to int) Update {
			u, cur := Update{DS: st}, st.Current()
			for i := from; i < to; i++ {
				cur, _ = cur.Insert(key(i))
				u.Shadows = append(u.Shadows, cur)
			}
			return u
		},
		dump: func() []string {
			var out []string
			st.Range(func(k []byte) bool {
				out = append(out, string(k))
				return true
			})
			sort.Strings(out)
			return out
		},
	}
}

func mxStackOps(st *Stack) matrixOps {
	return matrixOps{
		basic: func(i int) { st.Push(mxVal(i)) },
		batch: func(b Batcher, i int) { b.StackPush(st, mxVal(i)) },
		chain: func(from, to int) Update {
			u, cur := Update{DS: st}, st.Current()
			for i := from; i < to; i++ {
				cur = cur.Push(mxVal(i))
				u.Shadows = append(u.Shadows, cur)
			}
			return u
		},
		dump: func() []string {
			snap := st.Snapshot()
			defer snap.Close()
			return mxUints(snap.Version().Elements())
		},
	}
}

func mxQueueOps(q *Queue) matrixOps {
	return matrixOps{
		basic: func(i int) { q.Enqueue(mxVal(i)) },
		batch: func(b Batcher, i int) { b.QueueEnqueue(q, mxVal(i)) },
		chain: func(from, to int) Update {
			u, cur := Update{DS: q}, q.Current()
			for i := from; i < to; i++ {
				cur = cur.Push(mxVal(i))
				u.Shadows = append(u.Shadows, cur)
			}
			return u
		},
		dump: func() []string {
			snap := q.Snapshot()
			defer snap.Close()
			return mxUints(snap.Version().Elements())
		},
	}
}

// mxBind adapts one of the store's binders to a matrix row. On a
// selective store the row runs with volatile navigation nodes, a durable
// record chain, and checkpoint folds with their volatile-bit clears
// landing inside the probed injection windows; the DRAM node cache is on
// so cached reads and invalidation are exercised across the crash too.
func mxBind[H any](bind func(*Store, string) (H, error), ops func(H) matrixOps) func(*testing.T, *Store, string) matrixOps {
	return func(t *testing.T, s *Store, nm string) matrixOps {
		h, err := bind(s, nm)
		if err != nil {
			t.Fatal(err)
		}
		return ops(h)
	}
}

func matrixStructures() []matrixStructure {
	return []matrixStructure{
		{"vector", false, mxBind((*Store).Vector, mxVectorOps)},
		{"map", false, mxBind((*Store).Map, mxMapOps)},
		{"set", false, mxBind((*Store).Set, mxSetOps)},
		{"stack", false, mxBind((*Store).Stack, mxStackOps)},
		{"queue", false, mxBind((*Store).Queue, mxQueueOps)},
		{"vector-sel", true, mxBind((*Store).Vector, mxVectorOps)},
		{"map-sel", true, mxBind((*Store).Map, mxMapOps)},
		{"set-sel", true, mxBind((*Store).Set, mxSetOps)},
		{"stack-sel", true, mxBind((*Store).Stack, mxStackOps)},
		{"queue-sel", true, mxBind((*Store).Queue, mxQueueOps)},
	}
}

func mxJoin(dump []string) string { return strings.Join(dump, "\n") }

var mxMarkerKey = []byte("marker")

// mxInjectionStride returns how densely to sweep injection points:
// every write normally, every third under -short.
func mxInjectionStride() int {
	if testing.Short() {
		return 3
	}
	return 1
}

// TestCrashMatrixSingleStore sweeps the per-op, edit-FASE,
// multi-root-batch and CommitUnrelated disciplines on a single store.
func TestCrashMatrixSingleStore(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	for _, st := range matrixStructures() {
		for _, mode := range []string{"perop", "edit", "batch", "unrelated"} {
			t.Run(st.name+"/"+mode, func(t *testing.T) {
				build := func() (*Store, matrixOps, *Map, *pmem.Device) {
					dev := pmem.New(cfg)
					s, err := newStore(dev)
					if err != nil {
						t.Fatal(err)
					}
					ops, marker := mxOpenRow(t, st, s)
					for i := 0; i < mxPrefix; i++ {
						ops.basic(i)
					}
					s.Sync()
					return s, ops, marker, dev
				}
				probe := func(s *Store, ops matrixOps, marker *Map) {
					switch mode {
					case "perop":
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							ops.basic(i)
						}
					case "edit":
						// One multi-op FASE: all ops share an edit context
						// and publish with a single atomic root swap.
						b := s.NewBatch()
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							ops.batch(b, i)
						}
						b.Commit()
					case "batch":
						// Structure + marker roots change together through
						// the persistent batch record.
						b := s.NewBatch()
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							ops.batch(b, i)
						}
						b.MapSet(marker, mxMarkerKey, []byte("present"))
						b.Commit()
					case "unrelated":
						// The same two roots, moved by CommitUnrelated: the
						// structure by a chain of one shadow per op (its
						// intermediates retire with the commit), the marker
						// by a single shadow.
						mv, _ := marker.PureSet(mxMarkerKey, []byte("present"))
						if err := s.CommitUnrelated(ops.chain(mxPrefix, mxPrefix+mxProbe), Update{DS: marker, Shadows: []Version{mv}}); err != nil {
							t.Fatal(err)
						}
					}
				}

				// Dry run: collect the allowed committed-prefix states and
				// count the window's PM writes.
				s, ops, marker, dev := build()
				allowed := map[string]bool{}
				prefixState := mxJoin(ops.dump())
				allowed[prefixState] = true
				writesBase := dev.Stats().Writes
				if mode == "perop" {
					for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
						ops.basic(i)
						allowed[mxJoin(ops.dump())] = true
					}
				} else {
					probe(s, ops, marker)
				}
				finalState := mxJoin(ops.dump())
				allowed[finalState] = true
				if finalState == prefixState {
					t.Fatal("degenerate ops: probe did not change state")
				}
				totalWrites := int(dev.Stats().Writes - writesBase)
				if totalWrites < mxProbe {
					t.Fatalf("implausibly few writes in window: %d", totalWrites)
				}

				for inj := 1; inj <= totalWrites; inj += mxInjectionStride() {
					s, ops, marker, dev := build()
					_ = ops
					tr := pmem.NewCrashCountdown(dev, inj, pmem.CrashEvictRandom, uint64(inj)*1048573+11)
					dev.SetTracer(tr)
					probe(s, ops, marker)
					dev.SetTracer(nil)
					img := tr.Image()
					if img == nil {
						t.Fatalf("inj %d/%d: countdown never expired", inj, totalWrites)
					}
					dev2 := pmem.NewFromImage(pmem.DefaultConfig(4<<20), img)
					s2, _, err := openStore(dev2, st.opts()...)
					if err != nil {
						t.Fatalf("inj %d: recovery: %v", inj, err)
					}
					ops2 := st.bind(t, s2, "mx")
					got := mxJoin(ops2.dump())
					if !allowed[got] {
						t.Fatalf("inj %d/%d: recovered state is not a committed prefix:\n%q", inj, totalWrites, got)
					}
					if mode == "batch" || mode == "unrelated" {
						marker2, err := s2.Map("mx-marker")
						if err != nil {
							t.Fatal(err)
						}
						_, markerIn := marker2.Get(mxMarkerKey)
						structIn := got == finalState
						if markerIn != structIn {
							t.Fatalf("inj %d: %s commit torn across roots: struct=%v marker=%v", inj, mode, structIn, markerIn)
						}
					}
					// The store must stay writable after recovery.
					ops2.basic(900 + inj)
					if after := mxJoin(ops2.dump()); after == got {
						t.Fatalf("inj %d: store inert after recovery", inj)
					}
				}
			})
		}
	}
}

// TestCrashMatrixRecordSlots sweeps the batch record's slot protocol: a
// shared root S (the structure under test) and three marker maps move
// through three back-to-back multi-root commits that all name S — two
// Batches, then a CommitUnrelated — with a one-root commit on S between
// the second and the third. The window covers a slot's reuse (the third
// record overwrites the first's slot while the second may still be
// live), the stale roll-back hazard (the one-root commit republishes S
// behind a live record), and a record's retirement written in the same
// epoch as a root swap. Power fails at every PM write under every crash
// policy; the recovered state must be one of the five committed prefixes.
func TestCrashMatrixRecordSlots(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	markers := []string{"mx-a", "mx-b", "mx-c"}
	for _, st := range matrixStructures() {
		if st.name != "map" && st.name != "vector-sel" {
			continue // one plain and one selective (checkpoint-folding) shape
		}
		t.Run(st.name, func(t *testing.T) {
			build := func() (*Store, matrixOps, []*Map, *pmem.Device) {
				dev := pmem.New(cfg)
				s, err := newStore(dev)
				if err != nil {
					t.Fatal(err)
				}
				ms := make([]*Map, len(markers))
				for i, nm := range markers {
					if ms[i], err = s.Map(nm); err != nil {
						t.Fatal(err)
					}
				}
				ops, _ := mxOpenRow(t, st, s)
				for i := 0; i < mxPrefix; i++ {
					ops.basic(i)
				}
				s.Sync()
				return s, ops, ms, dev
			}
			present := []byte("present")
			steps := []func(s *Store, ops matrixOps, ms []*Map){
				func(s *Store, ops matrixOps, ms []*Map) {
					b := s.NewBatch()
					ops.batch(b, mxPrefix)
					b.MapSet(ms[0], mxMarkerKey, present)
					b.Commit()
				},
				func(s *Store, ops matrixOps, ms []*Map) {
					b := s.NewBatch()
					ops.batch(b, mxPrefix+1)
					b.MapSet(ms[1], mxMarkerKey, present)
					b.Commit()
				},
				func(s *Store, ops matrixOps, ms []*Map) { ops.basic(mxPrefix + 2) },
				func(s *Store, ops matrixOps, ms []*Map) {
					mv, _ := ms[2].PureSet(mxMarkerKey, present)
					if err := s.CommitUnrelated(ops.chain(mxPrefix+3, mxPrefix+5), Update{DS: ms[2], Shadows: []Version{mv}}); err != nil {
						t.Fatal(err)
					}
				},
			}
			state := func(ops matrixOps, ms []*Map) string {
				out := mxJoin(ops.dump())
				for _, m := range ms {
					_, in := m.Get(mxMarkerKey)
					out += fmt.Sprintf("|%v", in)
				}
				return out
			}

			// Dry run: the five committed prefixes and the window's writes.
			s, ops, ms, dev := build()
			allowed := map[string]int{state(ops, ms): 0}
			writesBase := dev.Stats().Writes
			for i, step := range steps {
				step(s, ops, ms)
				allowed[state(ops, ms)] = i + 1
			}
			if len(allowed) != len(steps)+1 {
				t.Fatalf("degenerate steps: %d distinct prefixes", len(allowed))
			}
			totalWrites := int(dev.Stats().Writes - writesBase)

			for _, policy := range []pmem.CrashPolicy{pmem.CrashFencedOnly, pmem.CrashInflightRandom, pmem.CrashEvictRandom, pmem.CrashAllInflight} {
				for inj := 1; inj <= totalWrites; inj += mxInjectionStride() {
					s, ops, ms, dev := build()
					tr := pmem.NewCrashCountdown(dev, inj, policy, uint64(inj)*2862933555777941757+uint64(policy))
					dev.SetTracer(tr)
					for _, step := range steps {
						step(s, ops, ms)
					}
					dev.SetTracer(nil)
					if tr.Image() == nil {
						t.Fatalf("policy %d, inj %d/%d: countdown never expired", policy, inj, totalWrites)
					}
					s2, _, err := openStore(pmem.NewFromImage(cfg, tr.Image()), st.opts()...)
					if err != nil {
						t.Fatalf("policy %d, inj %d: recovery: %v", policy, inj, err)
					}
					ms2 := make([]*Map, len(markers))
					for i, nm := range markers {
						if ms2[i], err = s2.Map(nm); err != nil {
							t.Fatal(err)
						}
					}
					ops2 := st.bind(t, s2, "mx")
					got := state(ops2, ms2)
					if _, ok := allowed[got]; !ok {
						t.Fatalf("policy %d, inj %d/%d: recovered state is not a committed prefix:\n%q", policy, inj, totalWrites, got)
					}
					// The recovered store keeps committing through its record.
					b := s2.NewBatch()
					ops2.batch(b, 900+inj)
					b.MapSet(ms2[0], []byte("post"), present)
					b.Commit()
					if after := state(ops2, ms2); after == got {
						t.Fatalf("policy %d, inj %d: store inert after recovery", policy, inj)
					}
				}
			}
		})
	}
}

// TestCrashMatrixStagedRounds sweeps the commit queue's staged one-root
// publication (DESIGN.md §7) on a shared root S and four marker maps: two
// back-to-back one-root async rounds on S, an optimistic CAS on S, a
// round carrying two one-root submissions (S and the first marker, no
// record between them), a multi-root async submission (S and the second
// marker, through the batch record, settled by its leader before it steps
// down), a round carrying a
// multi-root submission (the third and fourth markers, through the
// record) beside a one-root one on S (staged), one more one-root round on
// S and a last CAS on S — slot reuse by counter parity across a CAS,
// independent roots sharing a fence, a record and a stage slot under one
// fence, and a staged round after a record its fence covers but whose
// retirement only the next fence makes durable. Power fails at every PM
// write under every crash policy. The recovered state must be a committed
// prefix — or, while a two-submission round is in flight, either of its
// halves — that contains every submission whose Wait returned before the
// failure: acknowledged means durable, at the round's own fence.
func TestCrashMatrixStagedRounds(t *testing.T) {
	cfg := pmem.DefaultConfig(1 << 20)
	cfg.TrackDurable = true
	markers := []string{"mx-a", "mx-b", "mx-c", "mx-d"}
	present := []byte("present")
	for _, st := range matrixStructures() {
		if st.name != "map" && st.name != "queue" && st.name != "vector-sel" {
			continue // two plain shapes and one selective, whose rounds stage nothing
		}
		t.Run(st.name, func(t *testing.T) {
			build := func() (*Store, matrixOps, []*Map, *pmem.Device) {
				dev := pmem.New(cfg)
				s, err := newStore(dev)
				if err != nil {
					t.Fatal(err)
				}
				ms := make([]*Map, len(markers))
				for i, nm := range markers {
					if ms[i], err = s.Map(nm); err != nil {
						t.Fatal(err)
					}
				}
				ops, _ := mxOpenRow(t, st, s)
				for i := 0; i < mxPrefix; i++ {
					ops.basic(i)
				}
				armStaging(s)
				s.Sync()
				return s, ops, ms, dev
			}
			async := func(b *Batch) {
				tk := b.CommitAsync()
				tk.Wait()
				if tk.Err() != nil {
					t.Fatal(tk.Err())
				}
			}
			oneRoot := func(i int) func(*Store, matrixOps, []*Map) {
				return func(s *Store, ops matrixOps, ms []*Map) {
					b := s.NewBatch()
					ops.batch(b, i)
					async(b)
				}
			}
			// oneRound submits both batches into one round — the caller holds
			// the lead while they queue — and waits on both.
			oneRound := func(s *Store, b1, b2 *Batch) {
				q := &s.sh.queue
				q.mu.Lock()
				q.leading.Store(true)
				q.mu.Unlock()
				t1, t2 := b1.CommitAsync(), b2.CommitAsync()
				q.mu.Lock()
				s.release()
				for _, tk := range []*Ticket{t1, t2} {
					if tk.Wait(); tk.Err() != nil {
						t.Fatal(tk.Err())
					}
				}
			}
			// acked[j] says whether step j's return acknowledges it durable.
			acked := []bool{true, true, false, true, true, true, true, false}
			steps := []func(s *Store, ops matrixOps, ms []*Map){
				oneRoot(mxPrefix),
				oneRoot(mxPrefix + 1),
				func(s *Store, ops matrixOps, ms []*Map) { ops.basic(mxPrefix + 2) },
				func(s *Store, ops matrixOps, ms []*Map) {
					b1, b2 := s.NewBatch(), s.NewBatch()
					ops.batch(b1, mxPrefix+3)
					b2.MapSet(ms[0], mxMarkerKey, present)
					oneRound(s, b1, b2)
				},
				func(s *Store, ops matrixOps, ms []*Map) {
					b := s.NewBatch()
					ops.batch(b, mxPrefix+4)
					b.MapSet(ms[1], mxMarkerKey, present)
					async(b)
				},
				func(s *Store, ops matrixOps, ms []*Map) {
					b1, b2 := s.NewBatch(), s.NewBatch()
					b1.MapSet(ms[2], mxMarkerKey, present)
					b1.MapSet(ms[3], mxMarkerKey, present)
					ops.batch(b2, mxPrefix+5)
					oneRound(s, b1, b2)
				},
				oneRoot(mxPrefix + 6),
				func(s *Store, ops matrixOps, ms []*Map) { ops.basic(mxPrefix + 7) }, // writes after the last ack
			}
			state := func(ops matrixOps, ms []*Map) (string, string) {
				out := ""
				for _, m := range ms {
					_, in := m.Get(mxMarkerKey)
					out += fmt.Sprintf("|%v", in)
				}
				return mxJoin(ops.dump()), out
			}

			// Dry run: the committed prefixes, indexed by the steps they
			// hold, plus the two halves of each two-submission round (which
			// hold the steps before it and not it), and the window's writes.
			s, ops, ms, dev := build()
			allowed := map[string]int{}
			var structs, marks []string
			add := func(st, mk string, n int) { allowed[st+mk] = n }
			sv, mk := state(ops, ms)
			structs, marks = append(structs, sv), append(marks, mk)
			add(sv, mk, 0)
			writesBase := dev.Stats().Writes
			for i, step := range steps {
				step(s, ops, ms)
				sv, mk := state(ops, ms)
				structs, marks = append(structs, sv), append(marks, mk)
				add(sv, mk, i+1)
			}
			for _, r := range []int{3, 5} { // the two-submission rounds
				add(structs[r+1], marks[r], r) // S moved, the markers not yet
				add(structs[r], marks[r+1], r) // the markers moved, S not yet
			}
			if len(allowed) != len(steps)+5 {
				t.Fatalf("degenerate steps: %d distinct states", len(allowed))
			}
			totalWrites := int(dev.Stats().Writes - writesBase)

			for _, policy := range []pmem.CrashPolicy{pmem.CrashFencedOnly, pmem.CrashInflightRandom, pmem.CrashEvictRandom, pmem.CrashAllInflight} {
				for inj := 1; inj <= totalWrites; inj += mxInjectionStride() {
					s, ops, ms, dev := build()
					tr := pmem.NewCrashCountdown(dev, inj, policy, uint64(inj)*0x9E3779B97F4A7C15+uint64(policy))
					dev.SetTracer(tr)
					floor := 0 // the steps acknowledged before the failure
					for i, step := range steps {
						step(s, ops, ms)
						if tr.Image() == nil && acked[i] {
							floor = i + 1
						}
					}
					dev.SetTracer(nil)
					if tr.Image() == nil {
						t.Fatalf("policy %d, inj %d/%d: countdown never expired", policy, inj, totalWrites)
					}
					s2, _, err := openStore(pmem.NewFromImage(cfg, tr.Image()), st.opts()...)
					if err != nil {
						t.Fatalf("policy %d, inj %d: recovery: %v", policy, inj, err)
					}
					ms2 := make([]*Map, len(markers))
					for i, nm := range markers {
						if ms2[i], err = s2.Map(nm); err != nil {
							t.Fatal(err)
						}
					}
					ops2 := st.bind(t, s2, "mx")
					sv, mk := state(ops2, ms2)
					n, ok := allowed[sv+mk]
					switch {
					case !ok:
						t.Fatalf("policy %d, inj %d/%d: recovered state is not a committed prefix:\n%q %s", policy, inj, totalWrites, sv, mk)
					case n < floor:
						t.Fatalf("policy %d, inj %d/%d: recovered %d steps, but step %d was acknowledged before the failure", policy, inj, totalWrites, n, floor)
					}
					// The recovered store keeps staging.
					b := s2.NewBatch()
					ops2.batch(b, 900+inj)
					async(b)
					if after, _ := state(ops2, ms2); after == sv {
						t.Fatalf("policy %d, inj %d: store inert after recovery", policy, inj)
					}
				}
			}
		})
	}
}

// TestCrashMatrixCrossShard sweeps the cross-shard-batch discipline:
// the structure lives on shard 0, a marker map on shard 1, and the
// batch commits through the shard manifest. Every injection point —
// including inside the manifest's intent, commit-point, and redo
// windows — must recover all of the batch on both shards or none.
func TestCrashMatrixCrossShard(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	for _, st := range matrixStructures() {
		t.Run(st.name+"/cross", func(t *testing.T) {
			build := func() (*DB, matrixOps, *Map) {
				ss := openShards(t, cfg, 2)
				marker, err := ss.Shard(1).Map("mx-marker")
				if err != nil {
					t.Fatal(err)
				}
				if st.selective {
					ss.Shard(0).makeSelective(mxCheckpointEvery)
					ss.Shard(1).makeSelective(mxCheckpointEvery)
				}
				ops := st.bind(t, ss.Shard(0), "mx")
				for i := 0; i < mxPrefix; i++ {
					ops.basic(i)
				}
				ss.Sync()
				return ss, ops, marker
			}
			probe := func(ss *DB, ops matrixOps, marker *Map) {
				b := ss.Batch()
				for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
					ops.batch(b, i)
				}
				b.MapSet(marker, mxMarkerKey, []byte("present"))
				b.Commit()
			}

			ss, ops, marker := build()
			prefixState := mxJoin(ops.dump())
			writesBase := ss.Stats().Writes
			probe(ss, ops, marker)
			finalState := mxJoin(ops.dump())
			if finalState == prefixState {
				t.Fatal("degenerate ops: probe did not change state")
			}
			totalWrites := int(ss.Stats().Writes - writesBase)

			for inj := 1; inj <= totalWrites; inj += mxInjectionStride() {
				ss, ops, marker := build()
				tr := pmem.NewMultiCrashCountdown(ss.Regions().Devices(), inj, pmem.CrashEvictRandom, uint64(inj)*2654435761+13)
				tr.Install()
				probe(ss, ops, marker)
				tr.Uninstall()
				imgs := tr.Images()
				if imgs == nil {
					t.Fatalf("inj %d/%d: countdown never expired", inj, totalWrites)
				}
				ss2, _, err := Open(cfg, append([]Option{WithExistingImages(imgs)}, st.opts()...)...)
				if err != nil {
					t.Fatalf("inj %d: recovery: %v", inj, err)
				}
				ops2 := st.bind(t, ss2.Shard(0), "mx")
				marker2, err := ss2.Shard(1).Map("mx-marker")
				if err != nil {
					t.Fatal(err)
				}
				got := mxJoin(ops2.dump())
				switch got {
				case prefixState, finalState:
				default:
					t.Fatalf("inj %d/%d: recovered state is not a committed prefix:\n%q", inj, totalWrites, got)
				}
				_, markerIn := marker2.Get(mxMarkerKey)
				if structIn := got == finalState; markerIn != structIn {
					t.Fatalf("inj %d: batch torn across shards: struct=%v marker=%v", inj, structIn, markerIn)
				}
				ops2.basic(900 + inj)
				if after := mxJoin(ops2.dump()); after == got {
					t.Fatalf("inj %d: store inert after recovery", inj)
				}
			}
		})
	}
}
