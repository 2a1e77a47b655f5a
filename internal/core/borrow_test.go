package core

import (
	"math/rand"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// TestCommitPathsLeaveCountsExact drives every commit path of a store —
// Basic operations on both tiers, CommitSingle over a chain whose
// intermediate is released first, CommitUnrelated, multi-operation
// batches, CommitSiblings under a parent, and shadows the caller
// abandons — over maps and vectors deep enough to path-copy, then
// requires the allocator's books to balance: after Sync no borrow record
// is left (alloc/borrow.go) and the live bytes are exactly what a
// recovery of the same heap's crash image finds reachable. A copy that
// over-counted a child it shares shows as extra live bytes; one that
// under-counted panics in a later release long before this point.
func TestCommitPathsLeaveCountsExact(t *testing.T) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	s := newStore(dev)
	m, _ := s.Map("m")
	v, _ := s.Vector("v")
	q, _ := s.Queue("q")
	p, err := s.Parent("p", "pm", "pv")
	if err != nil {
		t.Fatal(err)
	}
	pm, _ := p.Map("pm")
	pv, _ := p.Vector("pv")

	const keys, vecLen = 2000, 3000
	rng := rand.New(rand.NewSource(7))
	key := func() []byte { return key64(uint64(rng.Intn(keys))) }
	load := s.NewBatch()
	for i := uint64(0); i < vecLen; i++ {
		if i < keys {
			load.MapSet(m, key64(i), key64(i))
			pm.Set(key64(i), key64(i)) // parent-bound: the locked tier, one FASE each
		}
		load.VectorPush(v, i)
		pv.Push(i)
		if load.Len() >= 256 {
			load.Commit()
		}
	}
	load.Commit()

	for step := 0; step < 1200; step++ {
		switch rng.Intn(9) {
		case 0:
			pm.Set(key(), key64(uint64(step))) // parent-bound: the locked tier
		case 1:
			m.Set(key(), key64(uint64(step)))
		case 2:
			m.Delete(key())
			m.Set(key(), key64(uint64(step))) // keep the population up
		case 3:
			v.Update(uint64(rng.Intn(vecLen)), uint64(step))
		case 4: // vec-swap: the intermediate dies before the version it came from
			cur := v.Current()
			s1 := cur.Update(uint64(rng.Intn(vecLen)), uint64(step))
			s2 := s1.Update(uint64(rng.Intn(vecLen)), uint64(step))
			if err := s.CommitSingle(v, s1, s2); err != nil {
				t.Fatal(err)
			}
		case 5:
			mv, _ := m.PureSet(key(), key64(uint64(step)))
			if err := s.CommitUnrelated(
				Update{DS: v, Shadows: []Version{v.PureUpdate(uint64(rng.Intn(vecLen)), uint64(step))}},
				Update{DS: m, Shadows: []Version{mv}}); err != nil {
				t.Fatal(err)
			}
		case 6: // one FASE, many operations: in-place writes on fresh copies
			b := s.NewBatch()
			for n := 2 + rng.Intn(8); n > 0; n-- {
				switch rng.Intn(4) {
				case 0:
					b.VectorUpdate(v, uint64(rng.Intn(vecLen)), uint64(step))
				case 1:
					b.MapSet(m, key(), key64(uint64(step)))
				case 2:
					b.MapDelete(m, key())
				default:
					b.QueueEnqueue(q, uint64(step))
					b.QueueDequeue(q)
				}
			}
			b.Commit()
		case 7:
			ms, _ := pm.PureSet(key(), key64(uint64(step)))
			if err := s.CommitSiblings(p,
				Update{DS: pm, Shadows: []Version{ms}},
				Update{DS: pv, Shadows: []Version{pv.PureUpdate(uint64(rng.Intn(vecLen)), uint64(step))}}); err != nil {
				t.Fatal(err)
			}
		case 8: // shadows built and then dropped by the caller, one of two copies of a base
			a, _ := m.PureSet(key(), key64(uint64(step)))
			b, _ := m.PureSet(key(), key64(uint64(step)))
			s.heap.Release(b.Addr())
			s.heap.Release(a.Addr())
		}
	}

	s.Sync()
	st := s.heap.Stats()
	if st.Borrows != 0 || st.Quarantine != 0 {
		t.Fatalf("%d borrow records and %d quarantined blocks after Sync", st.Borrows, st.Quarantine)
	}
	s2, rs, err := openStore(pmem.NewFromImage(cfg, dev.CrashImage(pmem.CrashFencedOnly, 1)))
	if err != nil {
		t.Fatal(err)
	}
	if rs.LiveBytes != st.LiveBytes {
		t.Fatalf("%d live bytes after Sync, recovery of the same heap finds %d reachable", st.LiveBytes, rs.LiveBytes)
	}
	m2, _ := s2.Map("m")
	if m2.Len() != m.Len() {
		t.Fatalf("recovered map has %d entries, live one %d", m2.Len(), m.Len())
	}
	t.Logf("%d allocations, %d copies settled, %d live bytes", st.Allocs, st.Settled, st.LiveBytes)
}
