package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// The front door (DESIGN.md §11). Open is the only constructor and DB
// the only store shape: S independent per-heap engines (*Store) plus,
// when S > 1, the metadata region of the cross-shard manifest
// (sharded.go). A single heap is simply S = 1 — no manifest phase, no
// metadata region — so WithShards(1) and no option build the same store
// through the same code.

// KV is the seam internal/server is written against, so its tests can
// interpose a fake (flakyKV) between the server and the store: named-root
// binding for the five structures, group-commit batching, durability
// draining, shutdown, and device counters. *DB is the one production
// implementer.
type KV interface {
	// Map binds (creating on first use) a recoverable map under a named
	// root; Set, Vector, Stack, and Queue bind the other structures.
	Map(name string) (*Map, error)
	Set(name string) (*Set, error)
	Vector(name string) (*Vector, error)
	Stack(name string) (*Stack, error)
	Queue(name string) (*Queue, error)
	// Batch returns an empty group-commit batch; its CommitAsync
	// submits to the commit queue and returns a durability Ticket.
	Batch() Batcher
	// Sync drains every outstanding commit and fences: everything
	// acknowledged so far is durable on return.
	Sync()
	// Close shuts the store down idempotently (see Store.Close).
	Close() error
	// Stats returns the aggregate device counters.
	Stats() pmem.Stats
	// ForkKV derives a handle with its own simulated clock for a worker
	// goroutine, sharing all store state.
	ForkKV() KV
}

// Batcher is the batch half of the KV seam, implemented by *Batch:
// deferred updates accumulated for one group commit, published
// synchronously (Commit) or through the commit queue (CommitAsync). A
// Batcher is not safe for concurrent use.
type Batcher interface {
	MapSet(m *Map, key, val []byte)
	MapDelete(m *Map, key []byte)
	SetInsert(s *Set, key []byte)
	SetDelete(s *Set, key []byte)
	VectorPush(v *Vector, val uint64)
	VectorUpdate(v *Vector, i uint64, val uint64)
	StackPush(s *Stack, val uint64)
	StackPop(s *Stack)
	QueueEnqueue(q *Queue, val uint64)
	QueueDequeue(q *Queue)
	// Len returns the number of operations accumulated.
	Len() int
	// Commit publishes synchronously; CommitAsync submits to the commit
	// queue and returns a durability ticket.
	Commit()
	CommitAsync() *Ticket
}

var (
	_ KV      = (*DB)(nil)
	_ Batcher = (*Batch)(nil)
)

// options collects the Open configuration.
type options struct {
	shards          int  // 0 = unset (single-heap store)
	shardsSet       bool // WithShards was passed (even with a bad count)
	selective       bool
	checkpointEvery int
	images          [][]byte
	devices         []pmem.Backend
	attach          bool
	committerMaxOps int
	committerLinger time.Duration
	verify          bool
	salvage         bool
}

// Option configures Open.
type Option func(*options)

// WithShards partitions the store across n fully independent heap
// regions, plus — when n > 1 — a small metadata region for the
// cross-shard manifest. WithShards(1) is the default single heap: a
// manifest needs two shards, so one shard carries no metadata region.
func WithShards(n int) Option {
	return func(o *options) {
		o.shards = n
		o.shardsSet = true
	}
}

// WithSelective opens the store in the selectively persisted flavor
// (DESIGN.md §10): DRAM-resident navigation over a minimal persistent
// core. Every shard's root binders — Store.Map and friends as well as
// DB.Map — create the selective flavor of each new structure (Parent
// fields stay plain), the DRAM node cache serves committed navigation
// nodes at DRAM instead of PM read latency, and record chains fold into
// a checkpoint every checkpointEvery records (<= 0 uses the default,
// 32768). Existing roots keep the flavor they were created with. The
// interval is the store's own; a store opened without WithSelective
// folds any selective roots it hosts at the default.
func WithSelective(checkpointEvery int) Option {
	return func(o *options) {
		o.selective = true
		o.checkpointEvery = checkpointEvery
	}
}

// WithExistingImages reopens a store from post-crash region images
// instead of formatting a fresh one: a single image reopens a
// single-heap store, and S+1 images (S >= 2 shards in order, metadata
// last — the layout DB.CrashImages produces) reopen a sharded store.
func WithExistingImages(imgs [][]byte) Option { return func(o *options) { o.images = imgs } }

// WithDevices builds the store over caller-supplied backends instead of
// fresh simulator devices from cfg: one backend gives a single-heap
// store, and N+1 backends give N >= 2 shards plus the cross-shard
// metadata region (last, matching the WithExistingImages layout); two
// backends are no valid layout (ErrShardCount). This is how a
// store lands on a real medium — pass mmapdev devices and the identical
// stack runs over a file. The devices are formatted; combine with
// WithAttach to recover what is already on them instead. Mutually
// exclusive with WithExistingImages.
func WithDevices(devs ...pmem.Backend) Option {
	return func(o *options) { o.devices = devs }
}

// WithAttach makes Open recover the store already present on the
// WithDevices backends — reachability scan, manifest replay, optional
// verification — instead of formatting them. It is the device-handle
// analog of WithExistingImages and requires WithDevices.
func WithAttach() Option { return func(o *options) { o.attach = true } }

// WithVerify makes a recovered open walk every root eagerly, checking
// node checksums and line readability before the store serves anything
// (corrupt.go). Damaged roots are quarantined — binds to them return
// ErrCorrupted — and reported in RecoveryInfo.Damaged; healthy roots
// serve normally. Without this option a recovered store arms lazy
// verification instead: each checksummed node is re-verified on its
// first post-recovery read.
func WithVerify() Option { return func(o *options) { o.verify = true } }

// WithSalvage implies WithVerify and additionally repairs damaged
// selective roots before quarantining: the record chain is replayed
// when it verifies, or the root rolls back to its last verifying
// checkpoint (the dropped record count is reported per root in
// RecoveryInfo.Damaged). Roots that cannot be salvaged are quarantined
// as under WithVerify.
func WithSalvage() Option {
	return func(o *options) {
		o.verify = true
		o.salvage = true
	}
}

// WithCommitter caps the operations one round of each shard's commit
// queue coalesces into a fence epoch (maxOps <= 0 keeps
// DefaultCommitterMaxOps). Every store has its queue, and it runs on its
// submitters' goroutines: the option starts nothing.
func WithCommitter(maxOps int) Option {
	return func(o *options) { o.committerMaxOps = maxOps }
}

// WithCommitterLinger sets how long a Ticket.Wait that would otherwise
// pay its own settling fence first waits for other submissions, whose
// round's fence then covers it. Only tickets a round did not stage
// settle: a batch spanning roots (a server MULTI/EXEC), one on a
// selective root, or one in a heap's first staging round, which only
// arms the heap's stage table. Any other one-root batch is durable at its
// own round's fence and its Wait never lingers. Zero (the default)
// settles at once.
func WithCommitterLinger(d time.Duration) Option {
	return func(o *options) { o.committerLinger = d }
}

// RecoveryInfo reports what Open recovered. Zero-valued (Recovered
// false) for a freshly formatted store.
type RecoveryInfo struct {
	// Recovered is true when the store was reopened from images.
	Recovered bool
	// Stats totals the reachability recovery across all shards.
	Stats alloc.RecoveryStats
	// PerShard holds each shard's recovery stats in shard order (one
	// entry for a single-heap store).
	PerShard []alloc.RecoveryStats
	// ManifestReplayed reports whether a committed cross-shard manifest
	// was found and its root swaps re-executed.
	ManifestReplayed bool
	// Damaged lists the roots that failed verification when the store
	// was opened WithVerify/WithSalvage: salvaged roots serve normally
	// (minus any DroppedOps), unsalvaged ones are quarantined.
	Damaged []DamagedRoot
}

// dbShared is the cross-shard state common to all handles of one DB:
// the manifest lock serializing cross-shard commits, the manifest
// sequence counter, and the closed flag.
type dbShared struct {
	mu     sync.Mutex
	seq    uint64 // last manifest sequence number; guarded by mu
	closed atomic.Bool
}

// DB is the handle Open returns, and the only store shape: S per-heap
// engines with root names routed across them by hash (ShardFor), plus
// the cross-shard manifest's metadata region when S > 1. Its binders
// bind on the shard a name routes to, in the store's flavor. Derive one
// handle per goroutine with Fork; handles share all store state but
// carry their own clocks. The per-heap API —
// Composition-interface commits, parents, trace checking — is reached
// through Shard (or Store on a single heap).
type DB struct {
	shards  []*Store
	meta    pmem.Backend  // manifest region; nil on a single heap
	regions *pmem.Regions // the shard regions in order, then meta
	sh      *dbShared
}

// Open formats (or, with WithExistingImages or WithAttach, recovers) a
// MOD store. The zero option set gives a single-heap store on a fresh
// device built from cfg; WithShards(n) partitions it; a recovered open
// reports what it found in the RecoveryInfo. Whatever the options, Open
// is one pipeline: resolve the region backends, then format or attach
// them. The returned DB (and any nil DB from a failed open) is safe to
// Close and Sync in all cases.
func Open(cfg pmem.Config, opts ...Option) (*DB, RecoveryInfo, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	var info RecoveryInfo
	if o.shardsSet && o.shards < 1 {
		return nil, info, fmt.Errorf("core: open with %d shards: %w", o.shards, ErrShardCount)
	}
	if len(o.devices) > 0 && o.images != nil {
		return nil, info, fmt.Errorf("core: WithDevices and WithExistingImages are mutually exclusive")
	}
	if o.attach && len(o.devices) == 0 {
		return nil, info, fmt.Errorf("core: WithAttach requires WithDevices")
	}
	// Resolve the region backends: the caller's, one per image, or fresh
	// from cfg. Shard regions come first, in order; with two or more
	// shards the manifest's metadata region follows.
	regions, attach := o.devices, o.attach
	switch {
	case len(regions) > 0:
	case o.images != nil:
		attach = true
		for i, img := range o.images {
			rc := cfg
			if i > 0 && i == len(o.images)-1 {
				rc = metaConfig(cfg)
			}
			regions = append(regions, pmem.NewFromImage(rc, img))
		}
	default:
		for i := 0; i < max(o.shards, 1); i++ {
			regions = append(regions, pmem.New(cfg))
		}
		if o.shards > 1 {
			regions = append(regions, pmem.New(metaConfig(cfg)))
		}
	}
	// One region is a single heap; S >= 2 shards take S+1, the last
	// being the manifest's. Two regions are no layout at all: a manifest
	// needs two shards.
	shardRegions, meta := regions, pmem.Backend(nil)
	if n := len(regions); n > 2 {
		shardRegions, meta = regions[:n-1], regions[n-1]
	}
	if len(regions) == 0 || len(regions) == 2 || (o.shards != 0 && o.shards != len(shardRegions)) {
		return nil, info, fmt.Errorf("core: open with %d shards over %d regions (want 1 region, or S >= 2 shard regions plus metadata): %w",
			o.shards, len(regions), ErrShardCount)
	}

	for i, r := range shardRegions {
		if r.Size() > funcds.MaxHeapBytes {
			return nil, info, fmt.Errorf("core: shard region %d is %d bytes: %w", i, r.Size(), ErrRegionTooLarge)
		}
	}

	db := &DB{meta: meta, regions: pmem.NewRegions(regions...), sh: &dbShared{}}
	var err error
	if attach {
		vc := verifyConfig{verify: o.verify, salvage: o.salvage}
		db.shards, info, err = attachRegions(shardRegions, meta, vc)
	} else {
		db.shards, err = formatRegions(shardRegions, meta)
	}
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	for _, s := range db.shards {
		if o.selective {
			s.makeSelective(o.checkpointEvery)
		}
		if o.committerMaxOps > 0 {
			s.sh.queue.maxOps = o.committerMaxOps
		}
		s.sh.queue.linger = o.committerLinger
	}
	return db, info, nil
}

// Store returns the sole shard's per-heap engine, or nil when the DB
// has more than one shard (use Shard).
func (db *DB) Store() *Store {
	if len(db.shards) > 1 {
		return nil
	}
	return db.shards[0]
}

// ShardCount returns the number of heap regions (1 for a single-heap
// store).
func (db *DB) ShardCount() int { return len(db.shards) }

// Shard returns the store handle of shard i, for explicit placement
// (binding a root on a chosen shard rather than by name hash) and for
// the per-heap API.
func (db *DB) Shard(i int) *Store { return db.shards[i] }

// ShardFor returns the shard index a root name routes to: fnv1a over
// the name, modulo the shard count.
func (db *DB) ShardFor(name string) int {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int(h % uint64(len(db.shards)))
}

// Regions returns the store's device regions: the shard regions in
// shard order, then (with two or more shards) the metadata region.
func (db *DB) Regions() *pmem.Regions { return db.regions }

// Fork derives a DB handle whose per-shard device and heap handles
// carry fresh per-goroutine clocks, sharing all store state.
func (db *DB) Fork() *DB {
	out := *db
	out.shards = make([]*Store, len(db.shards))
	for i, s := range db.shards {
		out.shards[i] = s.Fork()
	}
	if db.meta != nil {
		out.meta = db.meta.Fork()
	}
	return &out
}

// ForkKV derives a per-goroutine handle as a KV.
func (db *DB) ForkKV() KV { return db.Fork() }

// route returns the store handle of the shard name routes to.
func (db *DB) route(name string) *Store { return db.shards[db.ShardFor(name)] }

// Map binds (creating on first use) a recoverable map on the shard the
// name routes to; Set, Vector, Stack and Queue bind the other structures.
func (db *DB) Map(name string) (*Map, error) { return bind[Map](db.route(name), nil, name, kindMap) }

// Set binds a recoverable set on the shard the name routes to.
func (db *DB) Set(name string) (*Set, error) { return bind[Set](db.route(name), nil, name, kindSet) }

// Vector binds a recoverable vector on the shard the name routes to.
func (db *DB) Vector(name string) (*Vector, error) {
	return bind[Vector](db.route(name), nil, name, kindVector)
}

// Stack binds a recoverable stack on the shard the name routes to.
func (db *DB) Stack(name string) (*Stack, error) {
	return bind[Stack](db.route(name), nil, name, kindStack)
}

// Queue binds a recoverable queue on the shard the name routes to.
func (db *DB) Queue(name string) (*Queue, error) {
	return bind[Queue](db.route(name), nil, name, kindQueue)
}

// Batch returns an empty group-commit batch over this handle's shards.
func (db *DB) Batch() Batcher { return &Batch{shards: db.shards, db: db} }

// Sync makes everything committed so far durable on every shard —
// draining the commit queues first — and reclaims retired
// blocks shard by shard. On a closed store Sync is a no-op: Close
// already fenced everything. Nil-safe, so a deferred Sync after a failed
// Open is harmless.
func (db *DB) Sync() {
	if db == nil || db.sh.closed.Load() {
		return
	}
	for _, s := range db.shards {
		s.Sync()
	}
	if db.meta != nil {
		db.meta.Sfence() // defense in depth; manifest retirement is fenced inline
	}
}

// Close drains every shard's commit queue, fences each shard (and the
// metadata region), and marks the store closed:
// subsequent binds return ErrStoreClosed, and CommitAsync tickets resolve
// with ErrStoreClosed instead of hanging. Idempotent and nil-safe, so a
// deferred Close after a failed Open is harmless.
func (db *DB) Close() error {
	if db == nil || !db.sh.closed.CompareAndSwap(false, true) {
		return nil
	}
	for _, s := range db.shards {
		s.Close()
	}
	if db.meta != nil {
		db.meta.Sfence()
	}
	return nil
}

// Stats returns the device counters summed across every region: the
// exact counter-wise sum of the per-region stats, a property the test
// suite pins.
func (db *DB) Stats() pmem.Stats { return db.regions.Stats() }

// CrashImages returns post-power-failure images of every region, in the
// layout WithExistingImages expects: one image for a single heap, shard
// images in order plus the metadata region otherwise. Requires
// Config.TrackDurable.
func (db *DB) CrashImages(policy pmem.CrashPolicy, seed uint64) [][]byte {
	return db.regions.CrashImages(policy, seed)
}
