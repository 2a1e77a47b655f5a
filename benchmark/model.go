package main

import (
	"bytes"
	"fmt"
)

// model is the benchmark's own record of what the store must hold: every
// operation that was acknowledged (a call that returned, a +OK, an EXEC
// reply) is applied here, reads during the run are compared against it,
// and after the run a crash image of the store is reopened and compared
// against it in full.
type model struct {
	kv    map[int][]byte
	vec   []uint64
	queue []uint64 // front first

	// group is, per key, the MULTI that last wrote it (absent: a plain
	// SET), so a mismatch after recovery can be told apart as a torn
	// transaction.
	group  map[int]int
	multis int

	// undo reverts the last top-level operation. The library's Basic and
	// Composition calls return after their FASE's single fence but before
	// the published root pointer is itself fenced, so a fenced-only crash
	// image may lack the final FASE — whole, never in part.
	undo []func()
}

func newModel() *model {
	return &model{kv: make(map[int][]byte), group: make(map[int]int)}
}

// apply records o as acknowledged.
func (m *model) apply(o op) {
	m.undo = m.undo[:0]
	switch o.kind {
	case opVecSwap:
		a, b := m.vec[o.idx], m.vec[o.idx2]
		m.setVec(o.idx, b)
		m.setVec(o.idx2, a)
	case opUnrelated, opBatch:
		for _, s := range o.sub {
			m.applyOne(s, 0)
		}
	case opMulti:
		m.multis++
		for _, s := range o.sub {
			m.applyOne(s, m.multis)
		}
	default:
		m.applyOne(o, 0)
	}
}

func (m *model) setVec(i, v uint64) {
	old := m.vec[i]
	m.vec[i] = v
	m.undo = append(m.undo, func() { m.vec[i] = old })
}

func (m *model) applyOne(o op, group int) {
	switch o.kind {
	case opSet:
		old, had := m.kv[o.key]
		oldGroup, hadGroup := m.group[o.key]
		m.kv[o.key] = o.val
		if group != 0 {
			m.group[o.key] = group
		} else {
			delete(m.group, o.key)
		}
		m.undo = append(m.undo, func() {
			if had {
				m.kv[o.key] = old
			} else {
				delete(m.kv, o.key)
			}
			if hadGroup {
				m.group[o.key] = oldGroup
			} else {
				delete(m.group, o.key)
			}
		})
	case opDelete:
		if old, had := m.kv[o.key]; had {
			delete(m.kv, o.key)
			m.undo = append(m.undo, func() { m.kv[o.key] = old })
		}
	case opVecUpdate:
		m.setVec(o.idx, o.u)
	case opEnqueue:
		m.queue = append(m.queue, o.u)
		m.undo = append(m.undo, func() { m.queue = m.queue[:len(m.queue)-1] })
	case opDequeue:
		if len(m.queue) > 0 {
			front := m.queue[0]
			m.queue = m.queue[1:]
			m.undo = append(m.undo, func() { m.queue = append([]uint64{front}, m.queue...) })
		}
	}
}

// revertLast undoes the last applied top-level operation.
func (m *model) revertLast() {
	for i := len(m.undo) - 1; i >= 0; i-- {
		m.undo[i]()
	}
	m.undo = nil
}

// userBytes is the size of the live user data: key and value bytes of
// every map entry, 8 bytes per vector and queue element.
func (m *model) userBytes() int64 {
	n := int64(8 * (len(m.vec) + len(m.queue)))
	for _, v := range m.kv {
		n += int64(len("key-00000000") + len(v))
	}
	return n
}

// view reads a store — the live one or one reopened from a crash image.
// vec and queue are nil for workloads without those roots.
type view struct {
	get    func(key []byte) ([]byte, bool)
	mapLen func() uint64
	vec    func() []uint64
	queue  func() []uint64
}

// verdict is the outcome of comparing a store with the model.
type verdict struct {
	checked int64 // comparisons made
	failed  int64 // comparisons that did not match
	torn    int   // MULTIs found applied in part
	first   string
}

func (v *verdict) fail(format string, args ...any) {
	v.failed++
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

// compare reads every key, element and length the model knows back from
// the store and counts the mismatches.
func (m *model) compare(s view) verdict {
	var v verdict
	matched := make(map[int]bool)  // per MULTI: some key it owns matched
	mismatch := make(map[int]bool) // per MULTI: some key it owns did not
	for k, want := range m.kv {
		v.checked++
		got, ok := s.get(keyBytes(k))
		good := ok && bytes.Equal(got, want)
		if !good {
			v.fail("key %s: present=%v, value differs from the acknowledged write", keyBytes(k), ok)
		}
		if g, in := m.group[k]; in {
			if good {
				matched[g] = true
			} else {
				mismatch[g] = true
			}
		}
	}
	for g := range mismatch {
		if matched[g] {
			v.torn++
		}
	}
	v.checked++
	if n := s.mapLen(); n != uint64(len(m.kv)) {
		v.fail("map holds %d keys, model %d", n, len(m.kv))
	}
	if s.vec != nil {
		v.compareSeq("vector", s.vec(), m.vec)
	}
	if s.queue != nil {
		v.compareSeq("queue", s.queue(), m.queue)
	}
	return v
}

func (v *verdict) compareSeq(what string, got, want []uint64) {
	v.checked++
	if len(got) != len(want) {
		v.fail("%s holds %d elements, model %d", what, len(got), len(want))
		return
	}
	for i := range want {
		v.checked++
		if got[i] != want[i] {
			v.fail("%s[%d] = %d, model %d", what, i, got[i], want[i])
		}
	}
}

// compareRecovered compares a store reopened from a crash image with the
// model. With lastMayBeLost (library workloads, see model.undo) a store
// that lacks exactly the final operation, whole, also passes.
func (m *model) compareRecovered(s view, lastMayBeLost bool) verdict {
	v := m.compare(s)
	if v.failed == 0 || !lastMayBeLost {
		return v
	}
	m.revertLast()
	if w := m.compare(s); w.failed == 0 {
		return w
	}
	return v
}
