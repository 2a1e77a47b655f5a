package core

import (
	"fmt"
	"strings"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Version aliases: the Pure* operations of the Composition interface
// return shadow versions of the underlying functional datastructures;
// further pure updates can be chained on them directly (Fig. 7b) before
// committing with CommitSingle/CommitSiblings/CommitUnrelated.
type (
	// MapVersion is one immutable version of a MOD map.
	MapVersion = funcds.Map
	// SetVersion is one immutable version of a MOD set.
	SetVersion = funcds.Set
	// VectorVersion is one immutable version of a MOD vector.
	VectorVersion = funcds.Vector
	// StackVersion is one immutable version of a MOD stack.
	StackVersion = funcds.Stack
	// QueueVersion is one immutable version of a MOD queue.
	QueueVersion = funcds.Queue
)

// Handle concurrency. A handle may be shared across goroutines: its
// bookkeeping word (the version its last commit adopted) is atomic, and
// every operation resolves the live committed version from PM rather
// than trusting a cached one that another handle's commit may have
// superseded and reclaimed. Basic-interface updates commit through the
// two-tier optimistic path (optimistic.go): each attempt applies against
// a fresh snapshot of the committed version and publishes with a CAS, so
// concurrent writers through different handles stay linearizable per
// root and never lose updates — without serializing their shadow builds.
// Read methods pin the reclamation epoch for the duration of one call;
// for repeated reads of one consistent version, Snapshot amortizes the
// pin and fixes the version (snapshot.go).
// Composition-interface methods (Current, Pure*) resolve the committed
// version without pinning: they are writer-side operations, and the
// required single-writer-per-root discipline means no concurrent commit
// can retire the version under them.

// reservedRootPrefix guards the store's internal anchor roots (the
// batch record): binding a datastructure over one of them would let
// user commits clobber the recovery machinery.
const reservedRootPrefix = "__mod_"

// rootKind names a structure family and the header tags it may bind
// over, for the ErrWrongRootKind check. Map and Set share the CHAMP
// header and are one kind; each kind accepts both the plain and the
// selective flavor of its header.
type rootKind struct {
	name string
	tags []uint8
}

var (
	kindChamp  = rootKind{"map/set", []uint8{funcds.TagMapHdr, funcds.TagMapHdrSel}}
	kindVector = rootKind{"vector", []uint8{funcds.TagVecHdr, funcds.TagVecHdrSel}}
	kindStack  = rootKind{"stack", []uint8{funcds.TagStackHdr, funcds.TagStackHdrSel}}
	kindQueue  = rootKind{"queue", []uint8{funcds.TagQueueHdr, funcds.TagQueueHdrSel}}
	kindParent = rootKind{"parent", []uint8{funcds.TagParent}}
)

// checkKind verifies an existing header's tag belongs to the kind a
// binder expects.
func (s *Store) checkKind(name string, addr pmem.Addr, want rootKind) error {
	tag := s.heap.Tag(addr)
	for _, t := range want.tags {
		if tag == t {
			return nil
		}
	}
	return fmt.Errorf("core: binding %q as %s: %w (header tag %d)", name, want.name, ErrWrongRootKind, tag)
}

// bindRoot resolves a handle's location and current address, creating the
// structure via create (which must allocate and flush a new empty header)
// when absent. The root's commit mutex serializes concurrent first binds.
func bindRoot(s *Store, name string, want rootKind, create func() pmem.Addr) (location, pmem.Addr, error) {
	if strings.HasPrefix(name, reservedRootPrefix) {
		return location{}, pmem.Nil, fmt.Errorf("core: root name %q uses the reserved prefix %q: %w", name, reservedRootPrefix, ErrReservedRootName)
	}
	if s.sh.closed.Load() {
		return location{}, pmem.Nil, fmt.Errorf("core: binding %q: %w", name, ErrStoreClosed)
	}
	slot, err := s.heap.RootSlot(name)
	if err != nil {
		return location{}, pmem.Nil, err
	}
	if qerr := s.quarantineErr(slot); qerr != nil {
		return location{}, pmem.Nil, fmt.Errorf("core: binding %q: %w", name, qerr)
	}
	mu := &s.sh.rootMu[slot]
	mu.Lock()
	defer mu.Unlock()
	if root := s.heap.Root(slot); root != pmem.Nil {
		if err := s.verifyBindLazy(name, slot, root); err != nil {
			return location{}, pmem.Nil, err
		}
		if err := s.checkKind(name, root, want); err != nil {
			return location{}, pmem.Nil, err
		}
		return location{slot: slot}, root, nil
	}
	s.BeginFASE()
	addr := create()
	if err := s.commitRoot(slot, pmem.Nil, addr); err != nil {
		s.EndFASE()
		return location{}, pmem.Nil, err
	}
	s.EndFASE()
	return location{slot: slot}, addr, nil
}

func bindField(p *Parent, field string, want rootKind, create func() pmem.Addr) (location, pmem.Addr, error) {
	i, err := p.fieldIndex(field)
	if err != nil {
		return location{}, pmem.Nil, err
	}
	if p.s.sh.closed.Load() {
		return location{}, pmem.Nil, fmt.Errorf("core: binding field %q: %w", field, ErrStoreClosed)
	}
	mu := &p.s.sh.rootMu[p.slot]
	mu.Lock()
	defer mu.Unlock()
	p.refreshLocked()
	if f := p.fieldAddr(i); f != pmem.Nil {
		if err := p.s.checkKind(field, f, want); err != nil {
			return location{}, pmem.Nil, err
		}
		return location{parent: p, slot: i}, f, nil
	}
	p.s.BeginFASE()
	addr := create()
	if err := p.installField(i, addr); err != nil {
		p.s.EndFASE()
		return location{}, pmem.Nil, err
	}
	p.s.EndFASE()
	return location{parent: p, slot: i}, addr, nil
}

// ---------------------------------------------------------------- Map --

// Map is a recoverable hash map with STL-like failure-atomic operations
// (Basic interface) and Pure* shadow operations (Composition interface).
type Map struct {
	st   *Store
	name string
	loc  location
	cur  atomic.Uint64 // address of the handle's adopted version
}

// Map binds (creating on first use) a recoverable map under a named root.
func (s *Store) Map(name string) (*Map, error) {
	loc, addr, err := bindRoot(s, name, kindChamp, func() pmem.Addr { return funcds.NewMap(s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	m := &Map{st: s, name: name, loc: loc}
	m.adopt(addr)
	return m, nil
}

// Map binds (creating on first use) a recoverable map under a parent field.
func (p *Parent) Map(field string) (*Map, error) {
	loc, addr, err := bindField(p, field, kindChamp, func() pmem.Addr { return funcds.NewMap(p.s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	m := &Map{st: p.s, name: field, loc: loc}
	m.adopt(addr)
	return m, nil
}

// Name returns the bound root or field name.
func (m *Map) Name() string { return m.name }

func (m *Map) latest() funcds.Map     { return funcds.MapAt(m.st.heap, m.st.resolveForRead(m.loc)) }
func (m *Map) currentAddr() pmem.Addr { return pmem.Addr(m.cur.Load()) }
func (m *Map) adopt(a pmem.Addr)      { m.cur.Store(uint64(a)) }
func (m *Map) location() location     { return m.loc }
func (m *Map) store() *Store          { return m.st }

// Len returns the number of entries.
func (m *Map) Len() uint64 {
	g := m.st.heap.Enter()
	defer g.Exit()
	return m.latest().Len()
}

// Get returns the value bound to key in the latest committed version.
func (m *Map) Get(key []byte) ([]byte, bool) {
	g := m.st.heap.Enter()
	defer g.Exit()
	return m.latest().Get(key)
}

// Set failure-atomically binds key to val (one FASE, one fence) and
// reports whether an existing binding was replaced. Like every Basic
// mutator it commits through the two-tier optimistic path
// (optimistic.go): lock-free CAS publication, flat combining under
// contention.
func (m *Map) Set(key, val []byte) bool {
	var replaced bool
	m.st.update(m, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, r := funcds.MapAt(s.heap, cur).WithEdit(ed).Set(key, val)
		replaced = r
		return next.Addr()
	})
	return replaced
}

// Delete failure-atomically removes key, reporting whether it was present.
func (m *Map) Delete(key []byte) bool {
	var removed bool
	m.st.update(m, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, r := funcds.MapAt(s.heap, cur).WithEdit(ed).Delete(key)
		removed = r
		if !r {
			return cur // miss: nothing to publish
		}
		return next.Addr()
	})
	return removed
}

// Range iterates over the latest committed version's entries.
func (m *Map) Range(f func(key, val []byte) bool) {
	g := m.st.heap.Enter()
	defer g.Exit()
	m.latest().Range(f)
}

// Current returns the current committed version for composition.
func (m *Map) Current() MapVersion { return m.latest() }

// PureSet returns a shadow with key bound to val, without committing.
func (m *Map) PureSet(key, val []byte) (MapVersion, bool) { return m.latest().Set(key, val) }

// PureDelete returns a shadow without key, without committing.
func (m *Map) PureDelete(key []byte) (MapVersion, bool) { return m.latest().Delete(key) }

// ---------------------------------------------------------------- Set --

// Set is a recoverable hash set.
type Set struct {
	st   *Store
	name string
	loc  location
	cur  atomic.Uint64
}

// Set binds (creating on first use) a recoverable set under a named root.
func (s *Store) Set(name string) (*Set, error) {
	loc, addr, err := bindRoot(s, name, kindChamp, func() pmem.Addr { return funcds.NewSet(s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	st := &Set{st: s, name: name, loc: loc}
	st.adopt(addr)
	return st, nil
}

// Set binds (creating on first use) a recoverable set under a parent field.
func (p *Parent) Set(field string) (*Set, error) {
	loc, addr, err := bindField(p, field, kindChamp, func() pmem.Addr { return funcds.NewSet(p.s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	st := &Set{st: p.s, name: field, loc: loc}
	st.adopt(addr)
	return st, nil
}

// Name returns the bound root or field name.
func (s *Set) Name() string { return s.name }

func (s *Set) latest() funcds.Set     { return funcds.SetDSAt(s.st.heap, s.st.resolveForRead(s.loc)) }
func (s *Set) currentAddr() pmem.Addr { return pmem.Addr(s.cur.Load()) }
func (s *Set) adopt(a pmem.Addr)      { s.cur.Store(uint64(a)) }
func (s *Set) location() location     { return s.loc }
func (s *Set) store() *Store          { return s.st }

// Len returns the number of members.
func (s *Set) Len() uint64 {
	g := s.st.heap.Enter()
	defer g.Exit()
	return s.latest().Len()
}

// Contains reports membership in the latest committed version.
func (s *Set) Contains(key []byte) bool {
	g := s.st.heap.Enter()
	defer g.Exit()
	return s.latest().Contains(key)
}

// Insert failure-atomically adds key, reporting whether it already existed.
func (s *Set) Insert(key []byte) bool {
	var existed bool
	s.st.update(s, func(st *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, e := funcds.SetDSAt(st.heap, cur).WithEdit(ed).Insert(key)
		existed = e
		return next.Addr()
	})
	return existed
}

// Delete failure-atomically removes key, reporting whether it was present.
func (s *Set) Delete(key []byte) bool {
	var removed bool
	s.st.update(s, func(st *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, r := funcds.SetDSAt(st.heap, cur).WithEdit(ed).Delete(key)
		removed = r
		if !r {
			return cur
		}
		return next.Addr()
	})
	return removed
}

// Range iterates over the latest committed version's members.
func (s *Set) Range(f func(key []byte) bool) {
	g := s.st.heap.Enter()
	defer g.Exit()
	s.latest().Range(f)
}

// Current returns the current committed version for composition.
func (s *Set) Current() SetVersion { return s.latest() }

// PureInsert returns a shadow containing key, without committing.
func (s *Set) PureInsert(key []byte) (SetVersion, bool) { return s.latest().Insert(key) }

// PureDelete returns a shadow without key, without committing.
func (s *Set) PureDelete(key []byte) (SetVersion, bool) { return s.latest().Delete(key) }

// ------------------------------------------------------------- Vector --

// Vector is a recoverable vector of 8-byte elements.
type Vector struct {
	st   *Store
	name string
	loc  location
	cur  atomic.Uint64
}

// Vector binds (creating on first use) a recoverable vector under a root.
func (s *Store) Vector(name string) (*Vector, error) {
	loc, addr, err := bindRoot(s, name, kindVector, func() pmem.Addr { return funcds.NewVector(s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	v := &Vector{st: s, name: name, loc: loc}
	v.adopt(addr)
	return v, nil
}

// Vector binds (creating on first use) a recoverable vector under a field.
func (p *Parent) Vector(field string) (*Vector, error) {
	loc, addr, err := bindField(p, field, kindVector, func() pmem.Addr { return funcds.NewVector(p.s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	v := &Vector{st: p.s, name: field, loc: loc}
	v.adopt(addr)
	return v, nil
}

// Name returns the bound root or field name.
func (v *Vector) Name() string { return v.name }

func (v *Vector) latest() funcds.Vector {
	return funcds.VectorAt(v.st.heap, v.st.resolveForRead(v.loc))
}
func (v *Vector) currentAddr() pmem.Addr { return pmem.Addr(v.cur.Load()) }
func (v *Vector) adopt(a pmem.Addr)      { v.cur.Store(uint64(a)) }
func (v *Vector) location() location     { return v.loc }
func (v *Vector) store() *Store          { return v.st }

// Len returns the number of elements.
func (v *Vector) Len() uint64 {
	g := v.st.heap.Enter()
	defer g.Exit()
	return v.latest().Len()
}

// Get returns the element at index i of the latest committed version.
func (v *Vector) Get(i uint64) uint64 {
	g := v.st.heap.Enter()
	defer g.Exit()
	return v.latest().Get(i)
}

// Push failure-atomically appends val (push_back).
func (v *Vector) Push(val uint64) {
	v.st.update(v, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.VectorAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	})
}

// Update failure-atomically replaces element i with val.
func (v *Vector) Update(i uint64, val uint64) {
	v.st.update(v, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.VectorAt(s.heap, cur).WithEdit(ed).Update(i, val).Addr()
	})
}

// Swap failure-atomically exchanges elements i and j: two pure updates on
// successive shadows and one commit (Fig. 7b).
func (v *Vector) Swap(i, j uint64) {
	v.st.update(v, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		c := funcds.VectorAt(s.heap, cur).WithEdit(ed)
		a, b := c.Get(i), c.Get(j)
		s1 := c.Update(i, b)
		s2 := s1.Update(j, a) // mutates s1's owned nodes in place
		if s1.Addr() != s2.Addr() && s1.Addr() != cur {
			s.heap.Release(s1.Addr()) // intermediate shadow off the edit run
		}
		return s2.Addr()
	})
}

// Current returns the current committed version for composition.
func (v *Vector) Current() VectorVersion { return v.latest() }

// PurePush returns a shadow with val appended, without committing.
func (v *Vector) PurePush(val uint64) VectorVersion { return v.latest().Push(val) }

// PureUpdate returns a shadow with element i replaced, without committing.
func (v *Vector) PureUpdate(i uint64, val uint64) VectorVersion { return v.latest().Update(i, val) }

// -------------------------------------------------------------- Stack --

// Stack is a recoverable LIFO stack of 8-byte elements.
type Stack struct {
	st   *Store
	name string
	loc  location
	cur  atomic.Uint64
}

// Stack binds (creating on first use) a recoverable stack under a root.
func (s *Store) Stack(name string) (*Stack, error) {
	loc, addr, err := bindRoot(s, name, kindStack, func() pmem.Addr { return funcds.NewStack(s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	st := &Stack{st: s, name: name, loc: loc}
	st.adopt(addr)
	return st, nil
}

// Stack binds (creating on first use) a recoverable stack under a field.
func (p *Parent) Stack(field string) (*Stack, error) {
	loc, addr, err := bindField(p, field, kindStack, func() pmem.Addr { return funcds.NewStack(p.s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	st := &Stack{st: p.s, name: field, loc: loc}
	st.adopt(addr)
	return st, nil
}

// Name returns the bound root or field name.
func (s *Stack) Name() string { return s.name }

func (s *Stack) latest() funcds.Stack   { return funcds.StackAt(s.st.heap, s.st.resolveForRead(s.loc)) }
func (s *Stack) currentAddr() pmem.Addr { return pmem.Addr(s.cur.Load()) }
func (s *Stack) adopt(a pmem.Addr)      { s.cur.Store(uint64(a)) }
func (s *Stack) location() location     { return s.loc }
func (s *Stack) store() *Store          { return s.st }

// Len returns the number of elements.
func (s *Stack) Len() uint64 {
	g := s.st.heap.Enter()
	defer g.Exit()
	return s.latest().Len()
}

// Peek returns the top element of the latest committed version.
func (s *Stack) Peek() (uint64, bool) {
	g := s.st.heap.Enter()
	defer g.Exit()
	return s.latest().Peek()
}

// Push failure-atomically pushes val.
func (s *Stack) Push(val uint64) {
	s.st.update(s, func(st *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.StackAt(st.heap, cur).WithEdit(ed).Push(val).Addr()
	})
}

// Pop failure-atomically removes and returns the top element.
func (s *Stack) Pop() (uint64, bool) {
	var (
		val uint64
		ok  bool
	)
	s.st.update(s, func(st *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, v, o := funcds.StackAt(st.heap, cur).WithEdit(ed).Pop()
		val, ok = v, o
		if !o {
			return cur
		}
		return next.Addr()
	})
	return val, ok
}

// Current returns the current committed version for composition.
func (s *Stack) Current() StackVersion { return s.latest() }

// PurePush returns a shadow with val pushed, without committing.
func (s *Stack) PurePush(val uint64) StackVersion { return s.latest().Push(val) }

// PurePop returns a shadow without the top element, without committing.
func (s *Stack) PurePop() (StackVersion, uint64, bool) { return s.latest().Pop() }

// -------------------------------------------------------------- Queue --

// Queue is a recoverable FIFO queue of 8-byte elements.
type Queue struct {
	st   *Store
	name string
	loc  location
	cur  atomic.Uint64
}

// Queue binds (creating on first use) a recoverable queue under a root.
func (s *Store) Queue(name string) (*Queue, error) {
	loc, addr, err := bindRoot(s, name, kindQueue, func() pmem.Addr { return funcds.NewQueue(s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	q := &Queue{st: s, name: name, loc: loc}
	q.adopt(addr)
	return q, nil
}

// Queue binds (creating on first use) a recoverable queue under a field.
func (p *Parent) Queue(field string) (*Queue, error) {
	loc, addr, err := bindField(p, field, kindQueue, func() pmem.Addr { return funcds.NewQueue(p.s.heap).Addr() })
	if err != nil {
		return nil, err
	}
	q := &Queue{st: p.s, name: field, loc: loc}
	q.adopt(addr)
	return q, nil
}

// Name returns the bound root or field name.
func (q *Queue) Name() string { return q.name }

func (q *Queue) latest() funcds.Queue   { return funcds.QueueAt(q.st.heap, q.st.resolveForRead(q.loc)) }
func (q *Queue) currentAddr() pmem.Addr { return pmem.Addr(q.cur.Load()) }
func (q *Queue) adopt(a pmem.Addr)      { q.cur.Store(uint64(a)) }
func (q *Queue) location() location     { return q.loc }
func (q *Queue) store() *Store          { return q.st }

// Len returns the number of elements.
func (q *Queue) Len() uint64 {
	g := q.st.heap.Enter()
	defer g.Exit()
	return q.latest().Len()
}

// Peek returns the head element of the latest committed version.
func (q *Queue) Peek() (uint64, bool) {
	g := q.st.heap.Enter()
	defer g.Exit()
	return q.latest().Peek()
}

// Enqueue failure-atomically appends val at the tail.
func (q *Queue) Enqueue(val uint64) {
	q.st.update(q, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.QueueAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	})
}

// Dequeue failure-atomically removes and returns the head element.
func (q *Queue) Dequeue() (uint64, bool) {
	var (
		val uint64
		ok  bool
	)
	q.st.update(q, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, v, o := funcds.QueueAt(s.heap, cur).WithEdit(ed).Pop()
		val, ok = v, o
		if !o {
			return cur
		}
		return next.Addr()
	})
	return val, ok
}

// Current returns the current committed version for composition.
func (q *Queue) Current() QueueVersion { return q.latest() }

// PureEnqueue returns a shadow with val appended, without committing.
func (q *Queue) PureEnqueue(val uint64) QueueVersion { return q.latest().Push(val) }

// PureDequeue returns a shadow without the head element, without
// committing.
func (q *Queue) PureDequeue() (QueueVersion, uint64, bool) { return q.latest().Pop() }
