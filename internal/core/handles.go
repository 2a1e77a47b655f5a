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

// handle is the bookkeeping every datastructure handle embeds: the store
// handle it was bound through, its root or field name, where its
// committed-version pointer lives, and the version its last commit
// adopted.
type handle struct {
	st   *Store
	name string
	loc  location
	cur  atomic.Uint64 // address of the handle's adopted version
}

// Name returns the bound root or field name.
func (h *handle) Name() string { return h.name }

func (h *handle) base() *handle          { return h }
func (h *handle) currentAddr() pmem.Addr { return pmem.Addr(h.cur.Load()) }
func (h *handle) adopt(a pmem.Addr)      { h.cur.Store(uint64(a)) }

// committed resolves the location's committed version pointer; read
// paths pin the reclamation epoch first (Store.resolveForRead).
func (h *handle) committed() pmem.Addr { return h.st.resolveForRead(h.loc) }

// reservedRootPrefix is the root-name prefix reserved for the store's own
// roots. Since heap layout v10 the store anchors none — every root slot
// is the caller's — and the prefix stays reserved so a later layout can
// anchor one without taking a name a caller already bound.
const reservedRootPrefix = "__mod_"

// rootKind is one structure family as the binders see it: its name, the
// version tags a bind may find at an existing root or field (anything
// else is ErrWrongRootKind), and create, which allocates and flushes an
// empty version of the plain or the selective flavor: a header, or a
// plain map's root node. Map and Set are two kinds over the CHAMP tags,
// so either binds over the other's root; every kind accepts both flavors.
type rootKind struct {
	name   string
	tags   []uint8
	create func(h *alloc.Heap, selective bool) pmem.Addr
}

// flavored builds a kind's create from its two funcds constructors.
func flavored[V Version](plain, sel func(*alloc.Heap) V) func(*alloc.Heap, bool) pmem.Addr {
	return func(h *alloc.Heap, selective bool) pmem.Addr {
		if selective {
			return sel(h).Addr()
		}
		return plain(h).Addr()
	}
}

var (
	champTags  = []uint8{funcds.TagMapRoot, funcds.TagMapHdrSel}
	kindMap    = rootKind{"map", champTags, flavored(funcds.NewMap, funcds.NewMapSelective)}
	kindSet    = rootKind{"set", champTags, flavored(funcds.NewSet, funcds.NewSetSelective)}
	kindVector = rootKind{"vector", []uint8{funcds.TagVecRoot, funcds.TagVecHdrSel}, flavored(funcds.NewVector, funcds.NewVectorSelective)}
	kindStack  = rootKind{"stack", []uint8{funcds.TagStackHdr, funcds.TagStackHdrSel}, flavored(funcds.NewStack, funcds.NewStackSelective)}
	kindQueue  = rootKind{"queue", []uint8{funcds.TagQueueHdr, funcds.TagQueueHdrSel}, flavored(funcds.NewQueue, funcds.NewQueueSelective)}
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

// bind is every datastructure binder: it binds a T under a named root of
// s (p nil) or under a field of p, creating an empty structure on first
// use. Root binds create the flavor of the store (DESIGN.md §10), field
// binds always the plain one; an existing root or field keeps the flavor
// it was created with.
func bind[T any, P interface {
	*T
	Datastructure
}](s *Store, p *Parent, name string, k rootKind) (*T, error) {
	t := new(T)
	h := P(t).base()
	h.st, h.name = s, name
	var err error
	if p != nil {
		err = bindField(p, P(t), k)
	} else {
		var addr pmem.Addr
		h.loc, addr, err = bindRoot(s, name, k)
		h.adopt(addr)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// bindRoot resolves a root's location and current address, creating the
// structure in the store's flavor when absent. The root's commit mutex
// serializes concurrent first binds.
func bindRoot(s *Store, name string, k rootKind) (location, pmem.Addr, error) {
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
		if err := s.checkKind(name, root, k); err != nil {
			return location{}, pmem.Nil, err
		}
		return location{slot: slot}, root, nil
	}
	// The new root publishes as any locked commit does, under the lock
	// held since the cell was read empty: nothing to retire, no handle
	// yet to adopt it.
	s.BeginFASE()
	addr := k.create(s.heap, s.sh.selective)
	publish([]*preparedBatch{{s: s, changed: []rootChange{{slot: slot, final: addr}}}})
	s.EndFASE()
	return location{slot: slot}, addr, nil
}

// bindField binds ds under the parent field its handle names. A field
// bound for the first time is created plain — selective structures are
// root-bound only, because checkpoint folding hooks the root commit
// paths — and published as a one-update CommitSiblings of ds.
func bindField(p *Parent, ds Datastructure, k rootKind) error {
	h := ds.base()
	i, err := p.fieldIndex(h.name)
	if err != nil {
		return err
	}
	s := p.s
	if s.sh.closed.Load() {
		return fmt.Errorf("core: binding field %q: %w", h.name, ErrStoreClosed)
	}
	mu := &s.sh.rootMu[p.slot]
	mu.Lock()
	defer mu.Unlock()
	p.refreshLocked()
	h.loc = location{parent: p, slot: i}
	if f := p.fieldAddr(i); f != pmem.Nil {
		if err := s.checkKind(h.name, f, k); err != nil {
			return err
		}
		h.adopt(f)
		return nil
	}
	s.BeginFASE()
	defer s.EndFASE()
	return s.commitSiblingsLocked(p, []Update{{DS: ds, Shadows: []Version{addrVersion(k.create(s.heap, false))}}})
}

// Each batchable update is one rootOp constructor, shared by the Basic
// method (which passes a result sink) and its Batch twin (nil sink,
// cloned buffers). A sink is written on every application, so a retried
// op reports its last, published application.

func sink[T any](p *T, v T) {
	if p != nil {
		*p = v
	}
}

// popped receives a Stack.Pop or Queue.Dequeue result.
type popped struct {
	val uint64
	ok  bool
}

func mapSet(key, val []byte, replaced *bool) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, r := funcds.MapAt(s.heap, cur).WithEdit(ed).Set(key, val)
		sink(replaced, r)
		return next.Addr()
	}
}

func mapDelete(key []byte, removed *bool) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, r := funcds.MapAt(s.heap, cur).WithEdit(ed).Delete(key) // a miss returns cur
		sink(removed, r)
		return next.Addr()
	}
}

func setInsert(key []byte, existed *bool) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, e := funcds.SetDSAt(s.heap, cur).WithEdit(ed).Insert(key)
		sink(existed, e)
		return next.Addr()
	}
}

func setDelete(key []byte, removed *bool) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, r := funcds.SetDSAt(s.heap, cur).WithEdit(ed).Delete(key)
		sink(removed, r)
		return next.Addr()
	}
}

func vectorPush(val uint64) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.VectorAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	}
}

func vectorUpdate(i, val uint64) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.VectorAt(s.heap, cur).WithEdit(ed).Update(i, val).Addr()
	}
}

func stackPush(val uint64) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.StackAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	}
}

func stackPop(out *popped) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, v, ok := funcds.StackAt(s.heap, cur).WithEdit(ed).Pop() // empty returns cur
		sink(out, popped{v, ok})
		return next.Addr()
	}
}

func queueEnqueue(val uint64) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		return funcds.QueueAt(s.heap, cur).WithEdit(ed).Push(val).Addr()
	}
}

func queueDequeue(out *popped) rootOp {
	return func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		next, v, ok := funcds.QueueAt(s.heap, cur).WithEdit(ed).Pop()
		sink(out, popped{v, ok})
		return next.Addr()
	}
}

// ---------------------------------------------------------------- Map --

// Map is a recoverable hash map with STL-like failure-atomic operations
// (Basic interface) and Pure* shadow operations (Composition interface).
type Map struct{ handle }

// Map binds (creating on first use) a recoverable map under a named root.
func (s *Store) Map(name string) (*Map, error) { return bind[Map](s, nil, name, kindMap) }

// Map binds (creating on first use) a recoverable map under a parent field.
func (p *Parent) Map(field string) (*Map, error) { return bind[Map](p.s, p, field, kindMap) }

func (m *Map) latest() funcds.Map { return funcds.MapAt(m.st.heap, m.committed()) }

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
	m.st.update(m, mapSet(key, val, &replaced))
	return replaced
}

// Delete failure-atomically removes key, reporting whether it was present.
func (m *Map) Delete(key []byte) bool {
	var removed bool
	m.st.update(m, mapDelete(key, &removed))
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
type Set struct{ handle }

// Set binds (creating on first use) a recoverable set under a named root.
func (s *Store) Set(name string) (*Set, error) { return bind[Set](s, nil, name, kindSet) }

// Set binds (creating on first use) a recoverable set under a parent field.
func (p *Parent) Set(field string) (*Set, error) { return bind[Set](p.s, p, field, kindSet) }

func (s *Set) latest() funcds.Set { return funcds.SetDSAt(s.st.heap, s.committed()) }

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
	s.st.update(s, setInsert(key, &existed))
	return existed
}

// Delete failure-atomically removes key, reporting whether it was present.
func (s *Set) Delete(key []byte) bool {
	var removed bool
	s.st.update(s, setDelete(key, &removed))
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
type Vector struct{ handle }

// Vector binds (creating on first use) a recoverable vector under a root.
func (s *Store) Vector(name string) (*Vector, error) { return bind[Vector](s, nil, name, kindVector) }

// Vector binds (creating on first use) a recoverable vector under a field.
func (p *Parent) Vector(field string) (*Vector, error) {
	return bind[Vector](p.s, p, field, kindVector)
}

func (v *Vector) latest() funcds.Vector { return funcds.VectorAt(v.st.heap, v.committed()) }

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
func (v *Vector) Push(val uint64) { v.st.update(v, vectorPush(val)) }

// Update failure-atomically replaces element i with val.
func (v *Vector) Update(i uint64, val uint64) { v.st.update(v, vectorUpdate(i, val)) }

// Swap failure-atomically exchanges elements i and j: two pure updates on
// successive shadows and one commit (Fig. 7b).
func (v *Vector) Swap(i, j uint64) {
	v.st.update(v, func(s *Store, ed *alloc.Edit, cur pmem.Addr) pmem.Addr {
		c := funcds.VectorAt(s.heap, cur).WithEdit(ed)
		a, b := c.Get(i), c.Get(j)
		// The second update writes the first one's owned nodes in place,
		// and would itself release an owned version it superseded.
		return c.Update(i, b).Update(j, a).Addr()
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
type Stack struct{ handle }

// Stack binds (creating on first use) a recoverable stack under a root.
func (s *Store) Stack(name string) (*Stack, error) { return bind[Stack](s, nil, name, kindStack) }

// Stack binds (creating on first use) a recoverable stack under a field.
func (p *Parent) Stack(field string) (*Stack, error) { return bind[Stack](p.s, p, field, kindStack) }

func (s *Stack) latest() funcds.Stack { return funcds.StackAt(s.st.heap, s.committed()) }

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
func (s *Stack) Push(val uint64) { s.st.update(s, stackPush(val)) }

// Pop failure-atomically removes and returns the top element.
func (s *Stack) Pop() (uint64, bool) {
	var r popped
	s.st.update(s, stackPop(&r))
	return r.val, r.ok
}

// Current returns the current committed version for composition.
func (s *Stack) Current() StackVersion { return s.latest() }

// PurePush returns a shadow with val pushed, without committing.
func (s *Stack) PurePush(val uint64) StackVersion { return s.latest().Push(val) }

// PurePop returns a shadow without the top element, without committing.
func (s *Stack) PurePop() (StackVersion, uint64, bool) { return s.latest().Pop() }

// -------------------------------------------------------------- Queue --

// Queue is a recoverable FIFO queue of 8-byte elements.
type Queue struct{ handle }

// Queue binds (creating on first use) a recoverable queue under a root.
func (s *Store) Queue(name string) (*Queue, error) { return bind[Queue](s, nil, name, kindQueue) }

// Queue binds (creating on first use) a recoverable queue under a field.
func (p *Parent) Queue(field string) (*Queue, error) { return bind[Queue](p.s, p, field, kindQueue) }

func (q *Queue) latest() funcds.Queue { return funcds.QueueAt(q.st.heap, q.committed()) }

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
func (q *Queue) Enqueue(val uint64) { q.st.update(q, queueEnqueue(val)) }

// Dequeue failure-atomically removes and returns the head element.
func (q *Queue) Dequeue() (uint64, bool) {
	var r popped
	q.st.update(q, queueDequeue(&r))
	return r.val, r.ok
}

// Current returns the current committed version for composition.
func (q *Queue) Current() QueueVersion { return q.latest() }

// PureEnqueue returns a shadow with val appended, without committing.
func (q *Queue) PureEnqueue(val uint64) QueueVersion { return q.latest().Push(val) }

// PureDequeue returns a shadow without the head element, without
// committing.
func (q *Queue) PureDequeue() (QueueVersion, uint64, bool) { return q.latest().Pop() }
