// Package mod is the public API of this reproduction of "MOD: Minimally
// Ordered Durable Datastructures for Persistent Memory" (Haria, Hill &
// Swift, ASPLOS 2020): a library of recoverable map, set, vector, stack,
// and queue datastructures for (simulated) persistent memory whose
// failure-atomic updates need a single ordering point in the common case.
//
// # Quickstart
//
//	db, _, _ := mod.Open(mod.DefaultDeviceConfig(256 << 20))
//	defer db.Close()
//	m, _ := db.Map("users")
//	m.Set([]byte("ada"), []byte("lovelace"))   // one FASE, one fence
//	v, ok := m.Get([]byte("ada"))
//
// Reopening after a crash recovers committed state and sweeps leaks:
//
//	db, info, _ := mod.Open(cfg, mod.WithExistingImages(images))
//
// Open takes functional options — mod.WithShards(n) partitions the
// store across independent heaps, mod.WithCommitter(n) caps how many
// operations one commit-queue round coalesces into a fence epoch,
// mod.WithSelective(0) makes the store
// selectively persisted — its new roots keep navigation nodes in DRAM,
// served from a node cache, over a minimal persistent core. The
// returned DB is the one store shape: a
// single heap is its one-shard case (DB.Store reaches the per-heap
// engine; DB.Shard(i) on a partitioned store), and DB.Batch commits
// atomically across roots and shards.
//
// # Basic vs Composition interfaces
//
// Handle methods such as Map.Set and Vector.Push are the Basic interface
// (§4.3.1): each is a self-contained failure-atomic section. For FASEs
// spanning several updates or several datastructures, use the Composition
// interface (§4.3.2): Pure* methods return shadow versions, and
// Store.CommitSingle, Store.CommitSiblings (for structures under one
// Parent), or Store.CommitUnrelated (for unrelated roots; it stages them
// as one group in the heap's stage table, as a multi-root Batch does, one
// fence however many roots) install them atomically.
//
// # Concurrency
//
// A Store is safe for concurrent use. Give each goroutine its own view
// with Store.Fork so its simulated time is tracked independently;
// handles bound through any view share the same persistent state.
// Writers serialize per root (writers to different roots commit in
// parallel); readers take lock-free Snapshots that pin an immutable
// committed version — they never block on a committing writer:
//
//	rs := store.Fork()            // per-goroutine view
//	rm, _ := rs.Map("users")
//	snap := rm.Snapshot()
//	defer snap.Close()
//	v, ok := snap.Get([]byte("ada"))
//
// Batch.CommitAsync hands a batch to the store's commit queue, whose
// rounds share one fence among concurrent submitters, and returns a
// Ticket. The ticket resolves once the batch is durable; any goroutine
// may Wait on it, since Wait only receives from a channel.
//
// The persistent memory substrate is simulated (see DESIGN.md): Device
// models Optane DCPMM cacheline-flush semantics with the paper's measured
// latencies, so all performance figures are in simulated nanoseconds.
package mod

import (
	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Device is a simulated persistent memory module with clwb/sfence
// semantics and a simulated-time clock.
type Device = pmem.Device

// DeviceConfig holds device geometry and the latency model.
type DeviceConfig = pmem.Config

// Addr is a persistent address (byte offset into the device arena).
type Addr = pmem.Addr

// Store is one persistent heap hosting MOD datastructures — a DB's
// per-shard engine — located across process lifetimes by named roots.
// A store hosts up to 62 named roots, every one of them the caller's: a
// multi-root commit over all of them still takes one fence.
type Store = core.Store

// DB is the handle Open returns: one or more Store shards behind one
// set of binders, with cross-shard atomic batches.
type DB = core.DB

// KV is the interface DB satisfies, the seam serving layers fake in
// tests.
type KV = core.KV

// Batcher is the group-commit batch interface DB.Batch returns.
type Batcher = core.Batcher

// Ticket tracks one asynchronous commit's durability.
type Ticket = core.Ticket

// Option configures Open.
type Option = core.Option

// RecoveryInfo reports what Open recovered when reopening from images.
type RecoveryInfo = core.RecoveryInfo

// RecoveryStats reports what post-crash recovery found and reclaimed.
type RecoveryStats = alloc.RecoveryStats

// Sentinel errors for errors.Is dispatch.
var (
	// ErrReservedRootName is returned when binding a root under the
	// store-internal name prefix.
	ErrReservedRootName = core.ErrReservedRootName
	// ErrWrongRootKind is returned when binding a root that holds a
	// different structure kind.
	ErrWrongRootKind = core.ErrWrongRootKind
	// ErrStoreClosed is returned by operations on a closed store.
	ErrStoreClosed = core.ErrStoreClosed
	// ErrShardCount is returned for invalid shard counts.
	ErrShardCount = core.ErrShardCount
	// ErrCorrupted is returned (wrapped in a *CorruptionError) when an
	// image fails recovery, a root fails verification, or a bind targets
	// a quarantined root (DESIGN.md §13).
	ErrCorrupted = core.ErrCorrupted
)

// CorruptionError wraps ErrCorrupted with the shard, root slot, and
// detailed cause of detected media damage.
type CorruptionError = core.CorruptionError

// DamagedRoot reports one root that failed verification at open or
// during a Scrub, and whether salvage repaired it.
type DamagedRoot = core.DamagedRoot

// Datastructure handles (Basic interface) and shadow versions
// (Composition interface).
type (
	// Map is a recoverable hash map (CHAMP trie).
	Map = core.Map
	// Set is a recoverable hash set.
	Set = core.Set
	// Vector is a recoverable vector (32-way trie).
	Vector = core.Vector
	// Stack is a recoverable LIFO stack (cons list).
	Stack = core.Stack
	// Queue is a recoverable FIFO queue (banker's queue).
	Queue = core.Queue
	// Parent is a persistent object whose fields anchor sibling
	// datastructures for CommitSiblings.
	Parent = core.Parent

	// Version is one immutable shadow version of a datastructure.
	Version = core.Version
	// Update pairs a datastructure with a shadow chain for the multi-
	// structure commits.
	Update = core.Update
	// MapVersion is a shadow map version.
	MapVersion = core.MapVersion
	// SetVersion is a shadow set version.
	SetVersion = core.SetVersion
	// VectorVersion is a shadow vector version.
	VectorVersion = core.VectorVersion
	// StackVersion is a shadow stack version.
	StackVersion = core.StackVersion
	// QueueVersion is a shadow queue version.
	QueueVersion = core.QueueVersion

	// MapSnapshot is a pinned immutable view of a map's latest
	// committed version (lock-free; Close when done).
	MapSnapshot = core.MapSnapshot
	// SetSnapshot is a pinned immutable view of a set version.
	SetSnapshot = core.SetSnapshot
	// VectorSnapshot is a pinned immutable view of a vector version.
	VectorSnapshot = core.VectorSnapshot
	// StackSnapshot is a pinned immutable view of a stack version.
	StackSnapshot = core.StackSnapshot
	// QueueSnapshot is a pinned immutable view of a queue version.
	QueueSnapshot = core.QueueSnapshot
)

// DefaultDeviceConfig returns the paper's machine model (Table 1) with
// the given arena size in bytes.
func DefaultDeviceConfig(size int64) DeviceConfig { return pmem.DefaultConfig(size) }

// NewDevice creates a simulated PM device.
func NewDevice(cfg DeviceConfig) *Device { return pmem.New(cfg) }

// NewDeviceFromImage creates a device initialized from a crash image.
func NewDeviceFromImage(cfg DeviceConfig, image []byte) *Device {
	return pmem.NewFromImage(cfg, image)
}

// Open formats (or, with WithExistingImages, recovers) a MOD store.
func Open(cfg DeviceConfig, opts ...Option) (*DB, RecoveryInfo, error) {
	return core.Open(cfg, opts...)
}

// WithShards partitions the store across n independent heap regions
// (1, the default, is a single heap).
func WithShards(n int) Option { return core.WithShards(n) }

// WithSelective opens the store selectively persisted: new roots are
// created in the selective flavor, the DRAM node cache is on, and
// checkpointEvery sets the store's record-chain folding interval
// (0 = default).
func WithSelective(checkpointEvery int) Option { return core.WithSelective(checkpointEvery) }

// WithExistingImages reopens a store from post-crash region images.
func WithExistingImages(imgs [][]byte) Option { return core.WithExistingImages(imgs) }

// WithCommitter caps the operations one round of each shard's commit
// queue coalesces into a fence epoch (maxOps 0 keeps the default). The
// queue needs no starting: CommitAsync callers lead it in turn.
func WithCommitter(maxOps int) Option { return core.WithCommitter(maxOps) }

// WithVerify walks every root at open, verifying node checksums, and
// quarantines damaged roots: the store opens degraded, with the damage
// reported in RecoveryInfo.Damaged (DESIGN.md §13).
func WithVerify() Option { return core.WithVerify() }

// WithSalvage implies WithVerify and additionally rolls a damaged
// selective root back to its last verified checkpoint instead of
// quarantining it, reporting the dropped operations.
func WithSalvage() Option { return core.WithSalvage() }

// WithDevices builds the store over caller-supplied backends — one per
// shard, in shard order, so one for a single-heap store — instead of fresh
// simulator devices — e.g. mmapdev devices over a real file.
func WithDevices(devs ...pmem.Backend) Option { return core.WithDevices(devs...) }

// WithAttach recovers the store already present on the WithDevices
// backends instead of formatting them.
func WithAttach() Option { return core.WithAttach() }
