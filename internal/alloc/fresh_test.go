package alloc_test

import (
	"fmt"
	"slices"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Edit.Fresh lists a publication's durable blocks from the edit's ledger
// (the nodes RecordNode registered) instead of walking the version. Its
// result is what a stage slot's digest folds and counts, and recovery
// finds the same blocks by walking, so the two must agree exactly.

// freshCase is one structure and an edit's worth of ops on it.
type freshCase struct {
	name string
	// empty allocates an empty structure, plain or selective.
	empty func(h *alloc.Heap, sel bool) pmem.Addr
	// pre builds the committed base the edit starts from; ops is the
	// edit's work on the root. Both return the version they leave.
	pre, ops func(ed *alloc.Edit, a pmem.Addr) pmem.Addr
}

func fKey(i int) []byte { return []byte(fmt.Sprintf("fk-%04d", i)) }

func mapCase(name string, pre, ops func(m funcds.Map) funcds.Map) freshCase {
	return freshCase{
		name: name,
		empty: func(h *alloc.Heap, sel bool) pmem.Addr {
			if sel {
				return funcds.NewMapSelective(h).Addr()
			}
			return funcds.NewMap(h).Addr()
		},
		pre: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
			return pre(funcds.MapAt(ed.Heap(), a).WithEdit(ed)).Addr()
		},
		ops: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
			return ops(funcds.MapAt(ed.Heap(), a).WithEdit(ed)).Addr()
		},
	}
}

func mapSets(m funcds.Map, from, to int, val string) funcds.Map {
	for i := from; i < to; i++ {
		m, _ = m.Set(fKey(i), []byte(val))
	}
	return m
}

func vecCase(name string, pre, ops func(v funcds.Vector) funcds.Vector) freshCase {
	return freshCase{
		name: name,
		empty: func(h *alloc.Heap, sel bool) pmem.Addr {
			if sel {
				return funcds.NewVectorSelective(h).Addr()
			}
			return funcds.NewVector(h).Addr()
		},
		pre: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
			return pre(funcds.VectorAt(ed.Heap(), a).WithEdit(ed)).Addr()
		},
		ops: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
			return ops(funcds.VectorAt(ed.Heap(), a).WithEdit(ed)).Addr()
		},
	}
}

func vecPushes(v funcds.Vector, n int) funcds.Vector {
	for i := 0; i < n; i++ {
		v = v.Push(uint64(i))
	}
	return v
}

func freshCases() []freshCase {
	return []freshCase{
		mapCase("map",
			func(m funcds.Map) funcds.Map { return mapSets(m, 0, 100, "v0") },
			func(m funcds.Map) funcds.Map {
				m = mapSets(m, 100, 105, "v1") // new keys
				m = mapSets(m, 10, 12, "v1")   // committed keys overwritten
				m = mapSets(m, 101, 103, "v2") // keys this edit added, overwritten
				m, _ = m.Delete(fKey(20))
				m, _ = m.Delete(fKey(104))
				return m
			}),
		// An empty map's root changes shape with every new key: the edit
		// rebuilds its owned root and releases the one it replaces.
		mapCase("map-root-reshape",
			func(m funcds.Map) funcds.Map { return m },
			func(m funcds.Map) funcds.Map { return mapSets(m, 0, 40, "v") }),
		{
			name: "set",
			empty: func(h *alloc.Heap, sel bool) pmem.Addr {
				if sel {
					return funcds.NewSetSelective(h).Addr()
				}
				return funcds.NewSet(h).Addr()
			},
			pre: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
				s := funcds.SetDSAt(ed.Heap(), a).WithEdit(ed)
				for i := 0; i < 60; i++ {
					s, _ = s.Insert(fKey(i))
				}
				return s.Addr()
			},
			ops: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
				s := funcds.SetDSAt(ed.Heap(), a).WithEdit(ed)
				for i := 55; i < 65; i++ {
					s, _ = s.Insert(fKey(i))
				}
				s, _ = s.Delete(fKey(3))
				s, _ = s.Delete(fKey(63))
				return s.Addr()
			},
		},
		vecCase("vector",
			func(v funcds.Vector) funcds.Vector { return vecPushes(v, 40) },
			func(v funcds.Vector) funcds.Vector {
				v = v.Update(3, 99).Update(30, 98).Update(3, 97)
				return vecPushes(v, 5).Update(41, 96)
			}),
		// Pushes across the trie's capacities (8 and 256): each adds a
		// level, replacing an owned root node by one over it.
		vecCase("vector-push-level",
			func(v funcds.Vector) funcds.Vector { return vecPushes(v, 250) },
			func(v funcds.Vector) funcds.Vector { return vecPushes(v, 20) }),
		vecCase("vector-push-level-empty",
			func(v funcds.Vector) funcds.Vector { return v },
			func(v funcds.Vector) funcds.Vector { return vecPushes(v, 12) }),
		{
			// Pops of cells this edit pushed release them inside the edit.
			name: "stack",
			empty: func(h *alloc.Heap, sel bool) pmem.Addr {
				if sel {
					return funcds.NewStackSelective(h).Addr()
				}
				return funcds.NewStack(h).Addr()
			},
			pre: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
				s := funcds.StackAt(ed.Heap(), a).WithEdit(ed)
				for i := 0; i < 5; i++ {
					s = s.Push(uint64(i))
				}
				return s.Addr()
			},
			ops: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
				s := funcds.StackAt(ed.Heap(), a).WithEdit(ed)
				s = s.Push(10).Push(11).Push(12)
				for i := 0; i < 4; i++ {
					s, _, _ = s.Pop()
				}
				return s.Push(13).Addr()
			},
		},
		{
			// Pops past the front list reverse the rear one: committed
			// cells first, then cells this edit pushed.
			name: "queue",
			empty: func(h *alloc.Heap, sel bool) pmem.Addr {
				if sel {
					return funcds.NewQueueSelective(h).Addr()
				}
				return funcds.NewQueue(h).Addr()
			},
			pre: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
				q := funcds.QueueAt(ed.Heap(), a).WithEdit(ed)
				for i := 0; i < 5; i++ {
					q = q.Push(uint64(i))
				}
				return q.Addr()
			},
			ops: func(ed *alloc.Edit, a pmem.Addr) pmem.Addr {
				q := funcds.QueueAt(ed.Heap(), a).WithEdit(ed)
				q, _, _ = q.Pop()
				q = q.Push(10).Push(11).Push(12)
				for i := 0; i < 6; i++ {
					q, _, _ = q.Pop()
				}
				return q.Push(13).Addr()
			},
		},
	}
}

// TestFreshLedgerMatchesWalk checks Edit.Fresh against the reference walk
// (WalkFresh) on every structure, plain and selective — for a selective
// one, the walk's durable blocks, which are also exactly those reachable
// through durable blocks alone, as recovery finds them — with each root
// in an edit of its own and with every case's root sharing one edit, each
// root's part a range of the ledger. Fresh reads no PM.
func TestFreshLedgerMatchesWalk(t *testing.T) {
	for _, sel := range []bool{false, true} {
		for _, shared := range []bool{false, true} {
			t.Run(fmt.Sprintf("sel=%v/shared=%v", sel, shared), func(t *testing.T) {
				dev := pmem.New(pmem.DefaultConfig(8 << 20))
				h := alloc.Format(dev)
				funcds.RegisterWalkers(h)
				cases := freshCases()
				base := make([]pmem.Addr, len(cases))
				for i, c := range cases {
					ed := h.BeginEdit()
					base[i] = c.pre(ed, c.empty(h, sel))
					ed.Seal()
				}
				h.Fence()
				var ed *alloc.Edit
				for i, c := range cases {
					if ed == nil || !shared {
						ed = h.BeginEdit()
					}
					mark := ed.Mark()
					final := c.ops(ed, base[i])
					reads := dev.Stats().Reads
					got := ed.Fresh(mark, nil)
					if r := dev.Stats().Reads - reads; r != 0 {
						t.Errorf("%s: Fresh made %d device reads", c.name, r)
					}
					var want []pmem.Addr
					for _, a := range alloc.WalkFresh(ed, final, false) {
						if !h.IsVolatile(a) {
							want = append(want, a)
						}
					}
					durable := alloc.WalkFresh(ed, final, true)
					slices.Sort(got)
					slices.Sort(want)
					slices.Sort(durable)
					if len(got) == 0 || !slices.Equal(got, want) {
						t.Errorf("%s: ledger %#x\nwalk %#x", c.name, got, want)
					}
					if !slices.Equal(want, durable) {
						t.Errorf("%s: durable blocks reached only through navigation: walk %#x, as recovery walks %#x", c.name, want, durable)
					}
					if !shared {
						ed.Seal()
					}
				}
				ed.Seal()
			})
		}
	}
}
