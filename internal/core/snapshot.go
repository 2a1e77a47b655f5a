package core

import (
	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Snapshots: the lock-free read path. A snapshot pins the allocator's
// reclamation epoch, loads the structure's committed version pointer with
// one atomic read, and hands back the immutable version. Because every
// committed version is immutable (Functional Shadowing, §4.1) and the
// epoch pin keeps its nodes from being recycled, the snapshot can be
// traversed freely while any number of writers commit new versions — the
// reader never blocks a committing writer and is never blocked by one.
//
// A snapshot must be Closed when done; holding one open delays
// reclamation of every version retired after it was taken (it does not
// block writers, only memory reuse).
//
// Snapshots observe the version committed at the moment of the pointer
// load: the 8-byte root swap is atomic, so a snapshot taken mid-commit
// sees either the old or the new version in full, never a mixture.

// pinned is a committed version held against reclamation: the part every
// snapshot type shares.
type pinned[V any] struct {
	v V
	g *alloc.EpochGuard
}

// pin pins the epoch and resolves h's committed pointer, in that order —
// the pin must cover the pointer load, or the version could be retired
// and recycled between load and traversal.
func pin[V any](h *handle, at func(*alloc.Heap, pmem.Addr) V) pinned[V] {
	g := h.st.heap.Enter()
	return pinned[V]{v: at(h.st.heap, h.committed()), g: g}
}

// Close releases the snapshot's reclamation pin. Idempotent.
func (p pinned[V]) Close() { p.g.Exit() }

// Version returns the underlying immutable version for composition. It
// is valid only until Close.
func (p pinned[V]) Version() V { return p.v }

// MapSnapshot is an immutable view of a map's latest committed version.
type MapSnapshot struct{ pinned[MapVersion] }

// Snapshot returns the latest committed version of the map, pinned
// against reclamation until Close.
func (m *Map) Snapshot() MapSnapshot { return MapSnapshot{pin(&m.handle, funcds.MapAt)} }

// Len returns the number of entries.
func (s MapSnapshot) Len() uint64 { return s.v.Len() }

// Get returns the value bound to key in this version.
func (s MapSnapshot) Get(key []byte) ([]byte, bool) { return s.v.Get(key) }

// Contains reports whether key is bound in this version.
func (s MapSnapshot) Contains(key []byte) bool { return s.v.Contains(key) }

// Range iterates over this version's entries.
func (s MapSnapshot) Range(f func(key, val []byte) bool) { s.v.Range(f) }

// SetSnapshot is an immutable view of a set's latest committed version.
type SetSnapshot struct{ pinned[SetVersion] }

// Snapshot returns the latest committed version of the set, pinned
// against reclamation until Close.
func (s *Set) Snapshot() SetSnapshot { return SetSnapshot{pin(&s.handle, funcds.SetDSAt)} }

// Len returns the number of members.
func (s SetSnapshot) Len() uint64 { return s.v.Len() }

// Contains reports membership in this version.
func (s SetSnapshot) Contains(key []byte) bool { return s.v.Contains(key) }

// Range iterates over this version's members.
func (s SetSnapshot) Range(f func(key []byte) bool) { s.v.Range(f) }

// VectorSnapshot is an immutable view of a vector's latest committed
// version.
type VectorSnapshot struct{ pinned[VectorVersion] }

// Snapshot returns the latest committed version of the vector, pinned
// against reclamation until Close.
func (v *Vector) Snapshot() VectorSnapshot { return VectorSnapshot{pin(&v.handle, funcds.VectorAt)} }

// Len returns the number of elements.
func (s VectorSnapshot) Len() uint64 { return s.v.Len() }

// Get returns the element at index i in this version.
func (s VectorSnapshot) Get(i uint64) uint64 { return s.v.Get(i) }

// StackSnapshot is an immutable view of a stack's latest committed
// version.
type StackSnapshot struct{ pinned[StackVersion] }

// Snapshot returns the latest committed version of the stack, pinned
// against reclamation until Close.
func (s *Stack) Snapshot() StackSnapshot { return StackSnapshot{pin(&s.handle, funcds.StackAt)} }

// Len returns the number of elements.
func (s StackSnapshot) Len() uint64 { return s.v.Len() }

// Peek returns the top element of this version.
func (s StackSnapshot) Peek() (uint64, bool) { return s.v.Peek() }

// QueueSnapshot is an immutable view of a queue's latest committed
// version.
type QueueSnapshot struct{ pinned[QueueVersion] }

// Snapshot returns the latest committed version of the queue, pinned
// against reclamation until Close.
func (q *Queue) Snapshot() QueueSnapshot { return QueueSnapshot{pin(&q.handle, funcds.QueueAt)} }

// Len returns the number of elements.
func (s QueueSnapshot) Len() uint64 { return s.v.Len() }

// Peek returns the head element of this version.
func (s QueueSnapshot) Peek() (uint64, bool) { return s.v.Peek() }
