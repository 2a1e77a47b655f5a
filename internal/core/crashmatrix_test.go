package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/mod-ds/mod/internal/durcheck"
)

// Crash-matrix histories for the crash checker (checker_test.go): every
// structure (vector, CHAMP map, CHAMP set, stack, queue; plain and
// selective) under every commit discipline — per-op FASEs, a multi-op
// edit FASE, a multi-root batch and a CommitUnrelated of caller-built
// shadow chains as staged groups, back-to-back groups sharing a root,
// staged queue rounds, and a cross-shard batch through the shard
// manifest — crashed at every PM write of the window under every crash
// policy. matrixOps is each structure's driver and its model adapter.

const (
	mxPrefix = 3 // committed ops before the probed window
	mxProbe  = 3 // ops inside the probed window
)

// matrixOps drives one structure through the sweep.
type matrixOps struct {
	kind  durcheck.Kind
	basic func(i int)               // apply op i as its own Basic FASE
	batch func(b Batcher, i int)    // queue op i into a (single- or cross-shard) batch
	chain func(from, to int) Update // shadow chain of ops from..to-1 on the committed version, one shadow per op
	eff   func(i int) durcheck.Effect
	dump  func() []string // canonical full state, in the form durcheck.Kind documents
}

type matrixStructure struct {
	name      string
	selective bool // the structure is bound on a store turned selective (mxCheckpointEvery)
	bind      func(s *Store, nm string) (matrixOps, error)
}

func (st matrixStructure) mustBind(t *testing.T, s *Store, nm string) matrixOps {
	t.Helper()
	ops, err := st.bind(s, nm)
	if err != nil {
		t.Fatal(err)
	}
	return ops
}

// mxCheckpointEvery is the selective rows' checkpoint interval: every 2
// records, so they fold a checkpoint — crown seals, ext rewrite, reseal —
// inside the probed injection windows.
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
// selective and a plain root in one staged group.
func mxOpenRow(t *testing.T, st matrixStructure, s *Store) (matrixOps, *Map) {
	t.Helper()
	marker, err := s.Map("mx-marker")
	if err != nil {
		t.Fatal(err)
	}
	if st.selective {
		s.makeSelective(mxCheckpointEvery)
	}
	return st.mustBind(t, s, "mx"), marker
}

func mxVal(i int) uint64 { return uint64(i*31 + 7) }

// mxElem is op i's element as a model effect.
func mxElem(i int) durcheck.Effect { return durcheck.Effect{Val: fmt.Sprint(mxVal(i))} }

func mxUints(els []uint64) []string {
	out := make([]string, len(els))
	for i, e := range els {
		out[i] = fmt.Sprint(e)
	}
	return out
}

func mxVectorOps(v *Vector) matrixOps {
	return matrixOps{
		kind:  durcheck.Vector,
		eff:   mxElem,
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

// mxMapKey and mxMapVal are a map row's op i.
func mxMapKey(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
func mxMapVal(i int) []byte { return []byte(fmt.Sprintf("v%03d", i*3)) }

func mxMapOps(m *Map) matrixOps {
	key, val := mxMapKey, mxMapVal
	return matrixOps{
		kind:  durcheck.Map,
		eff:   func(i int) durcheck.Effect { return durcheck.Effect{Key: string(key(i)), Val: string(val(i))} },
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
		kind:  durcheck.Set,
		eff:   func(i int) durcheck.Effect { return durcheck.Effect{Key: string(key(i))} },
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
		kind:  durcheck.Stack,
		eff:   mxElem,
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
		kind:  durcheck.Queue,
		eff:   mxElem,
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
// record chain, and checkpoint folds with their crown seals landing inside
// the probed injection windows; the DRAM node cache is on
// so cached reads and invalidation are exercised across the crash too.
func mxBind[H any](bind func(*Store, string) (H, error), ops func(H) matrixOps) func(*Store, string) (matrixOps, error) {
	return func(s *Store, nm string) (matrixOps, error) {
		h, err := bind(s, nm)
		if err != nil {
			return matrixOps{}, err
		}
		return ops(h), nil
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

// mxHist is a matrix row's history: markers plain maps, then the
// structure under test (root index markers), selective on a -sel row,
// holding mxPrefix committed ops before the window.
func mxHist(st matrixStructure, markers int) *crashHist {
	h := &crashHist{}
	for i := 0; i < markers; i++ {
		h.roots = append(h.roots, histRoot{name: fmt.Sprintf("mx-%c", 'a'+i), bind: mxBind((*Store).Map, mxMapOps)})
	}
	h.roots = append(h.roots, histRoot{name: "mx", sel: st.selective, bind: st.bind})
	h.setup = func(e *histEnv) {
		for i := 0; i < mxPrefix; i++ {
			e.ops[markers].basic(i)
		}
	}
	return h
}

// mxBatch records a Batch.Commit of op i on each of roots.
func mxBatch(e *histEnv, r *histRec, name string, i int, roots ...int) {
	var effs []durcheck.Effect
	for _, root := range roots {
		effs = append(effs, e.eff(root, i))
	}
	r.do(name, effs, func() {
		b := e.db.Store().NewBatch()
		for _, root := range roots {
			e.ops[root].batch(b, i)
		}
		b.Commit()
	})
}

// mxUnrelated records a CommitUnrelated of ops from..to-1 on root s, one
// shadow each, and op from on root m.
func mxUnrelated(e *histEnv, r *histRec, s, m, from, to int) {
	r.do("unrelated", append(e.effs(s, from, to), e.eff(m, from)), func() {
		if err := e.db.Store().CommitUnrelated(e.ops[s].chain(from, to), e.ops[m].chain(from, from+1)); err != nil {
			e.t.Error(err)
		}
	})
}

// TestCrashMatrixSingleStore checks the per-op, edit-FASE, multi-root
// batch, CommitUnrelated and CommitSingle disciplines on a single store:
// the structure and a marker map, mxProbe ops in the window.
func TestCrashMatrixSingleStore(t *testing.T) {
	const m, s = 0, 1 // the marker and the structure
	for _, st := range matrixStructures() {
		for _, mode := range []string{"perop", "edit", "batch", "unrelated", "single"} {
			t.Run(st.name+"/"+mode, func(t *testing.T) {
				h := mxHist(st, 1)
				h.window = func(e *histEnv, r *histRec) {
					switch mode {
					case "perop":
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							r.do(fmt.Sprint("op", i), e.effs(s, i, i+1), func() { e.ops[s].basic(i) })
						}
					case "edit":
						// One multi-op FASE: all ops share an edit context
						// and publish with a single atomic root swap.
						r.do("edit", e.effs(s, mxPrefix, mxPrefix+mxProbe), func() {
							b := e.db.Store().NewBatch()
							for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
								e.ops[s].batch(b, i)
							}
							b.Commit()
						})
					case "batch":
						// Structure and marker change together as one
						// staged group.
						r.do("batch", append(e.effs(s, mxPrefix, mxPrefix+mxProbe), e.eff(m, mxPrefix)), func() {
							b := e.db.Store().NewBatch()
							for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
								e.ops[s].batch(b, i)
							}
							e.ops[m].batch(b, mxPrefix)
							b.Commit()
						})
					case "unrelated":
						// The same two roots, moved by CommitUnrelated: the
						// structure by a chain of one shadow per op (its
						// intermediates retire with the commit).
						mxUnrelated(e, r, s, m, mxPrefix, mxPrefix+mxProbe)
					case "single":
						// The structure alone, moved by CommitSingle of a
						// chain of one shadow per op.
						r.do("single", e.effs(s, mxPrefix, mxPrefix+mxProbe), func() {
							u := e.ops[s].chain(mxPrefix, mxPrefix+mxProbe)
							if err := e.db.Store().CommitSingle(u.DS, u.Shadows...); err != nil {
								e.t.Error(err)
							}
						})
					}
				}
				h.run(t)
			})
		}
	}
}

// TestCrashMatrixRecordSlots checks the member slots of staged groups: a
// shared root S (the structure under test) and three marker maps move
// through three back-to-back multi-root commits that all name S — two
// Batches, then a CommitUnrelated — with a one-root commit on S between
// the second and the third. The window covers member-slot reuse on S (the
// third group's member overwrites the first's slot, by counter parity,
// while the second's member may still hold its unfenced siblings) and the
// stale roll-back hazard (the one-root commit republishes S past the
// second group's member).
func TestCrashMatrixRecordSlots(t *testing.T) {
	const s = 3
	for _, st := range matrixStructures() {
		if st.name != "map" && st.name != "vector-sel" {
			continue // one plain and one selective (checkpoint-folding) shape
		}
		t.Run(st.name, func(t *testing.T) {
			h := mxHist(st, 3)
			h.window = func(e *histEnv, r *histRec) {
				mxBatch(e, r, "batch-a", mxPrefix, s, 0)
				mxBatch(e, r, "batch-b", mxPrefix+1, s, 1)
				r.do("one-root", e.effs(s, mxPrefix+2, mxPrefix+3), func() { e.ops[s].basic(mxPrefix + 2) })
				mxUnrelated(e, r, s, 2, mxPrefix+3, mxPrefix+5)
			}
			h.run(t)
		})
	}
}

// TestCrashMatrixStagedRounds checks the commit queue's staged
// publications (DESIGN.md §7) on a shared root S and four marker maps: two
// back-to-back one-root async rounds on S, an optimistic CAS on S, a
// round carrying two one-root submissions (S and the first marker, each
// staged on its own), a multi-root async submission (S and the second
// marker, a group with digests, durable at its own fence), a round
// carrying a multi-root submission (the third and fourth markers, one
// group) beside a one-root one on S (staged on its own), one more
// one-root round on S, a round of two one-root submissions on S — one
// publication whose second op rebuilds nodes the first added (a map root
// changing shape) — and a last CAS on S: slot reuse by counter parity
// across a CAS, independent roots sharing a fence, a group and a group of
// one under one fence, a staged round on a root a group just swapped, and
// a digest over a ledger range with released nodes left out.
// On the selective rows the digests cover each publication's durable
// blocks (header, record cells, bindings) and recovery never reaches its
// navigation nodes; every second record folds a checkpoint
// (mxCheckpointEvery), whose member carries no digest, and its round
// fences once more after the swaps. Every submission is acknowledged when
// its Wait returns.
func TestCrashMatrixStagedRounds(t *testing.T) {
	const s = 4
	for _, st := range matrixStructures() {
		if st.name != "map" && st.name != "queue" && st.name != "vector-sel" && st.name != "map-sel" {
			continue // two plain shapes and two selective ones
		}
		t.Run(st.name, func(t *testing.T) {
			h := mxHist(st, 4)
			h.window = func(e *histEnv, r *histRec) {
				store := e.db.Store()
				async := func(name string, i int, roots ...int) {
					b := store.NewBatch()
					var effs []durcheck.Effect
					for _, root := range roots {
						e.ops[root].batch(b, i)
						effs = append(effs, e.eff(root, i))
					}
					r.durable(name, effs, func() { mxWait(e.t, b.CommitAsync()) })
				}
				// round submits two batches into one round — the caller
				// holds the lead while they queue — and waits on both:
				// op i on each of first, then op j on second.
				round := func(i int, first []int, second, j int) {
					b1, b2 := store.NewBatch(), store.NewBatch()
					var effs []durcheck.Effect
					for _, root := range first {
						e.ops[root].batch(b1, i)
						effs = append(effs, e.eff(root, i))
					}
					e.ops[second].batch(b2, j)
					q := &store.sh.queue
					q.mu.Lock()
					q.leading.Store(true)
					q.mu.Unlock()
					i1, i2 := r.invoke(fmt.Sprint("round", i, "a"), effs...), r.invoke(fmt.Sprint("round", i, "b"), e.eff(second, j))
					t1, t2 := b1.CommitAsync(), b2.CommitAsync()
					q.mu.Lock()
					store.release()
					mxWait(e.t, t1)
					r.respond(i1, true)
					mxWait(e.t, t2)
					r.respond(i2, true)
				}
				async("async-1", mxPrefix, s)
				async("async-2", mxPrefix+1, s)
				r.do("cas-1", e.effs(s, mxPrefix+2, mxPrefix+3), func() { e.ops[s].basic(mxPrefix + 2) })
				round(mxPrefix+3, []int{s}, 0, mxPrefix+3)
				async("spanning", mxPrefix+4, s, 1)
				round(mxPrefix+5, []int{2, 3}, s, mxPrefix+5)
				async("async-3", mxPrefix+6, s)
				round(mxPrefix+7, []int{s}, s, mxPrefix+8)
				r.do("cas-2", e.effs(s, mxPrefix+9, mxPrefix+10), func() { e.ops[s].basic(mxPrefix + 9) })
			}
			h.run(t)
		})
	}
}

// mxWait waits on an acknowledgement.
func mxWait(t *testing.T, tk *Ticket) {
	if tk.Wait(); tk.Err() != nil {
		t.Error(tk.Err())
	}
}

// TestCrashMatrixCrossShard checks the cross-shard-batch discipline: the
// structure lives on shard 0, a marker map on shard 1, and the batch
// commits through the shard manifest — every cut, including inside the
// manifest's intent, commit-point and redo windows, must recover all of
// the batch on both shards or none, and all of it once it returned.
func TestCrashMatrixCrossShard(t *testing.T) {
	for _, st := range matrixStructures() {
		t.Run(st.name+"/cross", func(t *testing.T) {
			h := mxHist(st, 1)
			h.shards = 2
			h.roots[0].shard = 1
			h.window = func(e *histEnv, r *histRec) {
				r.durable("cross", append(e.effs(1, mxPrefix, mxPrefix+mxProbe), e.eff(0, mxPrefix)), func() {
					b := e.db.Batch()
					for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
						e.ops[1].batch(b, i)
					}
					e.ops[0].batch(b, mxPrefix)
					b.Commit()
				})
			}
			h.run(t)
		})
	}
}
