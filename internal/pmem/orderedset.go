package pmem

// orderedSetSpill is the size past which an OrderedSet stops scanning and
// indexes its keys in a map. A single-operation FASE records about twenty
// cachelines, eight nodes and eight recycled blocks, all far below it; a
// 256-operation Batch records ~1,800 nodes and takes the map.
const orderedSetSpill = 64

// OrderedSet is a set of distinct keys kept in insertion order — the
// per-FASE bookkeeping shape of a FlushSet's lines and an alloc.Edit's
// nodes and recycled blocks, where the order is the PM-write order and
// must not depend on map iteration. Membership is a linear scan of the
// key slice while the set is small (no hashing, no allocation once the
// slice has grown) and a map from key to position once it has spilled
// past orderedSetSpill. Reset keeps both for the next FASE.
//
// The zero value is an empty set. Not safe for concurrent use.
type OrderedSet[K comparable] struct {
	keys []K
	pos  map[K]int // key -> index in keys; maintained only while spilled
}

func (s *OrderedSet[K]) spilled() bool { return len(s.keys) > orderedSetSpill }

// Find returns the insertion index of k, or -1 when k is absent.
func (s *OrderedSet[K]) Find(k K) int {
	if s.spilled() {
		if i, ok := s.pos[k]; ok {
			return i
		}
		return -1
	}
	for i, x := range s.keys {
		if x == k {
			return i
		}
	}
	return -1
}

// Add inserts k if absent and returns its insertion index and whether it
// was inserted by this call.
func (s *OrderedSet[K]) Add(k K) (int, bool) {
	if i := s.Find(k); i >= 0 {
		return i, false
	}
	i := len(s.keys)
	s.keys = append(s.keys, k)
	switch {
	case i == orderedSetSpill: // this insertion crossed the bound: index everything
		if s.pos == nil {
			s.pos = make(map[K]int, 4*orderedSetSpill)
		}
		for j, x := range s.keys {
			s.pos[x] = j
		}
	case i > orderedSetSpill:
		s.pos[k] = i
	}
	return i, true
}

// Keys returns the keys in insertion order. The slice is the set's own
// and is valid until the next Add or Reset.
func (s *OrderedSet[K]) Keys() []K { return s.keys }

// Len returns the number of keys.
func (s *OrderedSet[K]) Len() int { return len(s.keys) }

// Reset empties the set, keeping its storage.
func (s *OrderedSet[K]) Reset() {
	if s.spilled() {
		clear(s.pos)
	}
	s.keys = s.keys[:0]
}
