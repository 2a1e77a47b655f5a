package pmem

import (
	"math/rand"
	"reflect"
	"testing"
)

// An OrderedSet must behave identically on both sides of its spill bound
// and across Reset: checked against the obvious map-plus-slice model over
// rounds that stay small, spill, and stay small again on reused storage.
func TestOrderedSetMatchesModelAcrossSpill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s OrderedSet[uint64]
	for _, n := range []int{1, 10, orderedSetSpill, orderedSetSpill + 1, 300, 3, 2000, orderedSetSpill} {
		model := map[uint64]int{}
		var order []uint64
		for i := 0; i < 3*n; i++ {
			k := uint64(rng.Intn(n))
			pos, added := s.Add(k)
			want, seen := model[k]
			if !seen {
				want = len(order)
				model[k] = want
				order = append(order, k)
			}
			if pos != want || added == seen {
				t.Fatalf("round %d: Add(%d) = (%d, %v), model says (%d, %v)", n, k, pos, added, want, !seen)
			}
		}
		for k := uint64(0); k < uint64(n)+2; k++ {
			want, seen := model[k]
			if !seen {
				want = -1
			}
			if got := s.Find(k); got != want {
				t.Fatalf("round %d: Find(%d) = %d, want %d", n, k, got, want)
			}
		}
		if !reflect.DeepEqual(s.Keys(), order) || s.Len() != len(order) {
			t.Fatalf("round %d: keys out of insertion order", n)
		}
		s.Reset()
		if s.Len() != 0 || s.Find(0) != -1 {
			t.Fatalf("round %d: Reset left keys behind", n)
		}
	}
}
