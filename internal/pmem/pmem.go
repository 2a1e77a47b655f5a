// Package pmem simulates a byte-addressable persistent memory device with
// the cacheline flush and ordering semantics of Intel Optane DCPMM as
// described in §3 of the MOD paper (Haria et al., ASPLOS 2020).
//
// The device models three line states. A store marks a line dirty in the
// (volatile) cache. Clwb moves a line from dirty to inflight: the writeback
// is launched but the CPU does not wait. Sfence stalls until every inflight
// writeback completes, at which point those lines are durable. On a crash,
// only durable lines survive (plus, under adversarial policies, an arbitrary
// subset of inflight or dirty lines, modeling cache evictions).
//
// Time is simulated: every access advances a nanosecond clock using the
// latency constants in Config. The flush-latency model is the paper's own
// Amdahl/Karp–Flatt fit (Fig. 4): overlapped flushes behave 82% parallel and
// 18% serial relative to a 353 ns un-overlapped flush.
//
// All datastructure state lives in the device arena and is referenced by
// Addr offsets, the simulator's stand-in for pointers into mapped PM.
//
// # Concurrency
//
// A Device value is a handle onto shared device state. Memory, line
// states, and the cache hierarchy are guarded by an internal mutex, so
// any number of goroutines may access the arena through their own
// handles. Time, however, is per handle: each handle owns a LocalClock
// (see clock.go), created by Fork, so a goroutine's simulated time is its
// own critical path while Clock() reports the aggregate of busy
// nanoseconds across all handles; both are charged inside the critical
// section the access already holds. The accounting Category is also
// per-handle state. Handles are cheap; create one per goroutine with
// Fork rather than sharing one (sharing is race-free but merges the
// goroutines' timelines).
package pmem

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/cachesim"
)

// Addr is a byte offset into the persistent arena. Addr 0 is the null
// address and is never returned by the allocator.
type Addr uint64

// Nil is the null persistent address.
const Nil Addr = 0

// Cacheline geometry, matching x86-64.
const (
	LineSize  = 64
	LineShift = 6
)

// Category labels simulated time for the execution-time breakdowns of
// Figs. 2 and 9.
type Category uint8

const (
	// CatOther is ordinary execution: reads, stores, compute.
	CatOther Category = iota
	// CatFlush is time spent issuing flushes and stalled at fences.
	// Following the paper, flushes of log entries also land here.
	CatFlush
	// CatLog is CPU time spent constructing and bookkeeping log entries
	// in PM-STM implementations.
	CatLog

	numCategories
)

// String returns the category name used in reports.
func (c Category) String() string {
	switch c {
	case CatOther:
		return "other"
	case CatFlush:
		return "flush"
	case CatLog:
		return "log"
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Config holds the device geometry and timing model. The zero value is not
// usable; call DefaultConfig and adjust.
type Config struct {
	// Size is the arena size in bytes, rounded up to a full line.
	Size int64

	// TrackDurable maintains a second image holding only fenced state so
	// that CrashImage can produce post-crash views. Doubles memory.
	TrackDurable bool

	// DisableCache turns off the L1D model (accesses then cost L1HitNs).
	DisableCache bool

	// Tracer, if non-nil, observes every PM event (see Tracer).
	Tracer Tracer

	// FlushLatencyNs is the latency of one clwb immediately ordered by an
	// sfence, measured at 353 ns on Optane DCPMM (§3).
	FlushLatencyNs float64
	// FlushParallelFrac is the Amdahl parallel fraction of concurrent
	// flushes, fitted at 0.82 via the Karp–Flatt metric (Fig. 4).
	FlushParallelFrac float64
	// FlushMaxConcurrency caps useful flush overlap; beyond 32 concurrent
	// flushes the paper observes no further improvement.
	FlushMaxConcurrency int

	// ClwbIssueNs is the CPU cost of issuing one clwb (commits instantly,
	// Fig. 3).
	ClwbIssueNs float64
	// SfenceBaseNs is the cost of an sfence with no inflight flushes.
	SfenceBaseNs float64

	// L1HitNs is the cost of a load or store that hits in L1D.
	L1HitNs float64
	// L2HitNs and L3HitNs are the costs of hits in the outer cache
	// levels of Table 1 (1 MB L2, 33 MB shared L3).
	L2HitNs float64
	L3HitNs float64
	// PMReadNs is the cost of a full cache miss served from PM (Table 1:
	// 302 ns random 8-byte read).
	PMReadNs float64
	// DRAMReadNs is the cost of serving a node line from the volatile
	// DRAM node cache (alloc.Heap's selective-persistence read path)
	// instead of the PM media — DRAM random-access latency, well under
	// PMReadNs but above an on-chip cache hit.
	DRAMReadNs float64
}

// DefaultConfig returns the Table 1 / §3 machine model with the given arena
// size.
func DefaultConfig(size int64) Config {
	return Config{
		Size:                size,
		FlushLatencyNs:      353,
		FlushParallelFrac:   0.82,
		FlushMaxConcurrency: 32,
		ClwbIssueNs:         5,
		SfenceBaseNs:        10,
		L1HitNs:             1.2,
		L2HitNs:             4,
		L3HitNs:             40,
		PMReadNs:            302,
		DRAMReadNs:          80,
	}
}

// Stats is a snapshot of device counters. Times are simulated nanoseconds;
// under concurrency TotalNs is aggregate busy time across all handles, not
// elapsed time (see LocalNs for a handle's own timeline).
type Stats struct {
	TotalNs float64
	CatNs   [3]float64 // indexed by Category

	Flushes      uint64 // clwb count
	Fences       uint64 // sfence count
	Reads        uint64 // read calls
	Writes       uint64 // write calls
	BytesRead    uint64
	BytesWritten uint64

	// FlushedPerFence accumulates the number of inflight flushes retired
	// by each fence, for flush-concurrency reporting.
	FlushedPerFence uint64

	// FlushesSaved counts clwbs avoided by deferred-flush deduplication
	// (FlushSet): lines recorded more than once per sweep — re-written
	// edit-owned nodes, shared header/payload lines — are flushed once.
	FlushesSaved uint64
	// CopiesElided counts shadow node copies avoided by edit-context
	// in-place mutation (alloc.Edit): nodes allocated within the current
	// FASE are mutated instead of re-copied on subsequent operations.
	CopiesElided uint64

	// Batches counts group commits executed against the device and
	// BatchedOps the operations they coalesced, so reports can derive
	// fences per batched operation (DESIGN.md §7). The commit layer
	// records them via NoteBatch.
	Batches    uint64
	BatchedOps uint64

	// DRAMReads counts node lines served from the volatile DRAM node
	// cache instead of the PM media (selective persistence, DESIGN.md
	// §10). The allocator records them via ReadDRAM.
	DRAMReads uint64

	// RebuiltNodes counts navigation nodes reconstructed from recovery
	// records during open, and RecoveryNs the simulated time the whole
	// post-crash recovery pass took (reachability scan plus selective
	// rebuild). The recovery layer records them via NoteRecovery.
	RebuiltNodes uint64
	RecoveryNs   float64

	// Cache holds the L1D counters (the Fig. 11 metric); CacheLevels
	// breaks accesses down by serving level.
	Cache       cachesim.Stats
	CacheLevels cachesim.HierarchyStats
}

// Add returns s + o, counter-wise, for aggregating the per-region
// devices of a region-split (sharded) store into one view. Summing every
// region exactly once is the invariant the shard-stats property test
// pins: a flush or fence executed on one shard device must appear in the
// aggregate exactly once.
func (s Stats) Add(o Stats) Stats {
	r := s
	r.TotalNs += o.TotalNs
	for i := range r.CatNs {
		r.CatNs[i] += o.CatNs[i]
	}
	r.Flushes += o.Flushes
	r.Fences += o.Fences
	r.Reads += o.Reads
	r.Writes += o.Writes
	r.BytesRead += o.BytesRead
	r.BytesWritten += o.BytesWritten
	r.FlushedPerFence += o.FlushedPerFence
	r.FlushesSaved += o.FlushesSaved
	r.CopiesElided += o.CopiesElided
	r.Batches += o.Batches
	r.BatchedOps += o.BatchedOps
	r.DRAMReads += o.DRAMReads
	r.RebuiltNodes += o.RebuiltNodes
	r.RecoveryNs += o.RecoveryNs
	r.Cache = s.Cache.Add(o.Cache)
	r.CacheLevels = s.CacheLevels.Add(o.CacheLevels)
	return r
}

// Sub returns s - base, counter-wise, for interval measurements.
func (s Stats) Sub(base Stats) Stats {
	r := s
	r.TotalNs -= base.TotalNs
	for i := range r.CatNs {
		r.CatNs[i] -= base.CatNs[i]
	}
	r.Flushes -= base.Flushes
	r.Fences -= base.Fences
	r.Reads -= base.Reads
	r.Writes -= base.Writes
	r.BytesRead -= base.BytesRead
	r.BytesWritten -= base.BytesWritten
	r.FlushedPerFence -= base.FlushedPerFence
	r.FlushesSaved -= base.FlushesSaved
	r.CopiesElided -= base.CopiesElided
	r.Batches -= base.Batches
	r.BatchedOps -= base.BatchedOps
	r.DRAMReads -= base.DRAMReads
	r.RebuiltNodes -= base.RebuiltNodes
	r.RecoveryNs -= base.RecoveryNs
	r.Cache = s.Cache.Sub(base.Cache)
	r.CacheLevels = s.CacheLevels.Sub(base.CacheLevels)
	return r
}

// tracerBox wraps a Tracer for atomic.Value storage (interface values of
// differing dynamic types cannot be stored in one atomic.Value directly).
type tracerBox struct{ t Tracer }

// devState is the shared device: arena contents, line states, cache model,
// counters. One mutex guards it all; simulated PM accesses are short, so a
// single lock keeps the memory image and line-state transitions atomic
// without a fine-grained protocol the paper never depends on.
type devState struct {
	cfg   Config
	lines uint64

	mu  sync.Mutex
	mem []byte
	dur []byte // durable image; nil unless cfg.TrackDurable

	dirty    bitset   // written since last clwb of the line
	everDirt bitset   // written and not yet durable (dirty ∪ inflight)
	inflight []uint64 // line indices clwb'd since last fence
	infSet   bitset

	cache *cachesim.Hierarchy

	dead      bitset // unreadable lines (media faults, fault.go); nil when none
	deadLines int

	tracer  atomic.Value // tracerBox
	stats   Stats        // counter fields only; times live in agg
	agg     nsByCat      // busy time across all handles, guarded by mu (clock.go)
	fences  atomic.Uint64
	scans   atomic.Int32 // open BeginRecovery brackets gating raw Bytes views
	endScan func()       // closes one bracket; bound once so BeginRecovery allocates nothing
}

// Device is a handle onto a simulated persistent memory module. See the
// package comment for the concurrency model: share the module by giving
// each goroutine its own handle via Fork.
type Device struct {
	s   *devState
	clk *LocalClock
	cat Category // per-handle accounting category
}

// New creates a device per cfg. The arena starts zeroed and durable.
func New(cfg Config) *Device {
	if cfg.Size <= 0 {
		panic("pmem: config Size must be positive")
	}
	size := (cfg.Size + LineSize - 1) &^ (LineSize - 1)
	s := &devState{
		cfg:   cfg,
		mem:   make([]byte, size),
		lines: uint64(size) >> LineShift,
	}
	s.dirty = newBitset(s.lines)
	s.everDirt = newBitset(s.lines)
	s.infSet = newBitset(s.lines)
	if cfg.TrackDurable {
		s.dur = make([]byte, size)
	}
	if !cfg.DisableCache {
		s.cache = cachesim.NewHierarchy()
	}
	s.tracer.Store(tracerBox{cfg.Tracer})
	s.endScan = func() { s.scans.Add(-1) }
	return &Device{s: s, clk: newLocalClock(s)}
}

// NewFromImage creates a device whose initial (durable) contents are img,
// as after a crash and restart. The image length must not exceed cfg.Size.
func NewFromImage(cfg Config, img []byte) *Device {
	if int64(len(img)) > cfg.Size {
		cfg.Size = int64(len(img))
	}
	d := New(cfg)
	copy(d.s.mem, img)
	if d.s.dur != nil {
		copy(d.s.dur, img)
	}
	return d
}

// Fork returns a new handle onto the same device with a fresh LocalClock
// (starting at zero) and the same accounting category. Each concurrent
// goroutine should work through its own forked handle so its simulated
// time is tracked independently.
func (d *Device) Fork() Backend {
	return &Device{s: d.s, clk: newLocalClock(d.s), cat: d.cat}
}

// Size returns the arena size in bytes.
func (d *Device) Size() int64 { return int64(len(d.s.mem)) }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.s.cfg }

// Tracer returns the tracer hook, or nil.
func (d *Device) Tracer() Tracer { return d.s.tracer.Load().(tracerBox).t }

// SetTracer replaces the tracer hook (nil disables tracing).
func (d *Device) SetTracer(t Tracer) { d.s.tracer.Store(tracerBox{t}) }

// Clock returns the aggregate simulated busy time in nanoseconds across
// all handles since device creation. With a single handle this is the
// familiar single-threaded simulated clock.
func (d *Device) Clock() float64 {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.s.agg.total
}

// LocalNs returns the simulated time accumulated on this handle's own
// clock — the critical path of the goroutine using it.
func (d *Device) LocalNs() float64 { return d.clk.Now() }

// LocalClock returns this handle's clock for fine-grained inspection.
func (d *Device) LocalClock() Clock { return d.clk }

// FenceSeq returns the number of sfences executed on the device, a
// monotonic sequence the allocator uses to order reclamation after the
// fence that made an orphaning commit durable.
func (d *Device) FenceSeq() uint64 { return d.s.fences.Load() }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() Stats {
	d.s.mu.Lock()
	s := d.s.stats
	if d.s.cache != nil {
		s.Cache = d.s.cache.L1Stats()
		s.CacheLevels = d.s.cache.Stats()
	}
	s.TotalNs = d.s.agg.total
	s.CatNs = d.s.agg.cat
	d.s.mu.Unlock()
	return s
}

// Category returns the current accounting category of this handle.
func (d *Device) Category() Category { return d.cat }

// SetCategory switches this handle's accounting category for subsequent
// time charges and returns the previous category.
func (d *Device) SetCategory(c Category) Category {
	old := d.cat
	d.cat = c
	return old
}

// ChargeCompute adds ns of CPU time to the current category. Used by
// higher layers to account for work with no PM access (e.g. building a log
// entry in registers).
func (d *Device) ChargeCompute(ns float64) { d.clk.Charge(d.cat, ns) }

// NoteBatch records a group commit that coalesced ops operations into
// one fence epoch, feeding the Batches/BatchedOps counters that reports
// use to derive fences per batched operation.
func (d *Device) NoteBatch(ops int) {
	if ops <= 0 {
		return
	}
	d.s.mu.Lock()
	d.s.stats.Batches++
	d.s.stats.BatchedOps += uint64(ops)
	d.s.mu.Unlock()
}

// ReadDRAM times a node read of [addr, addr+n) served from the volatile
// DRAM node cache (alloc.Heap's selective-persistence read path) instead
// of the PM media. The lines walk the same on-chip hierarchy — a hot
// cached node still hits L1 — but a full miss is a DRAM access
// (DRAMReadNs) rather than a PM one (PMReadNs). No bytes move: the
// caller already holds the cached snapshot; this charges its latency and
// counts the lines.
func (d *Device) ReadDRAM(addr Addr, n int) {
	if n <= 0 {
		return
	}
	s := d.s
	s.checkRange(addr, n)
	s.mu.Lock()
	first := uint64(addr) >> LineShift
	last := (uint64(addr) + uint64(n) - 1) >> LineShift
	var ns float64
	for ln := first; ln <= last; ln++ {
		if s.cache == nil {
			ns += s.cfg.L1HitNs
		} else {
			switch s.cache.Access(ln, false) {
			case cachesim.InL1:
				ns += s.cfg.L1HitNs
			case cachesim.InL2:
				ns += s.cfg.L2HitNs
			case cachesim.InL3:
				ns += s.cfg.L3HitNs
			default:
				ns += s.cfg.DRAMReadNs
			}
		}
	}
	s.stats.DRAMReads += last - first + 1
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
}

// NoteRecovery records a completed post-crash recovery pass: rebuilt
// navigation nodes reconstructed from recovery records, and the simulated
// nanoseconds the pass took on the recovering handle's clock.
func (d *Device) NoteRecovery(rebuilt uint64, ns float64) {
	d.s.mu.Lock()
	d.s.stats.RebuiltNodes += rebuilt
	d.s.stats.RecoveryNs += ns
	d.s.mu.Unlock()
}

// checkRange panics on an access outside the arena. It reads only the
// arena's length, fixed at New, so callers check before they take s.mu:
// a caller that recovers the panic finds the device usable, not locked.
func (s *devState) checkRange(addr Addr, n int) {
	if n < 0 || uint64(addr) >= uint64(len(s.mem)) || uint64(addr)+uint64(n) > uint64(len(s.mem)) {
		panic(fmt.Sprintf("pmem: access [%#x, %#x) outside arena of %d bytes", uint64(addr), uint64(addr)+uint64(n), len(s.mem)))
	}
}

// accessLocked computes the cache/latency cost of touching every line in
// [addr, addr+n) and updates line states. The caller holds s.mu; the
// returned nanoseconds are charged to the handle's clock after unlocking.
//
// Writes made under the Log category model PMDK's non-temporal log
// stores: they stream past the L1D (no allocation, no miss charge) at a
// fixed per-line cost, so a cycling log region does not thrash the cache.
func (d *Device) accessLocked(addr Addr, n int, write bool) float64 {
	s := d.s
	first := uint64(addr) >> LineShift
	last := (uint64(addr) + uint64(n) - 1) >> LineShift
	streaming := write && d.cat == CatLog
	var ns float64
	for ln := first; ln <= last; ln++ {
		if streaming || s.cache == nil {
			ns += s.cfg.L1HitNs
		} else {
			switch s.cache.Access(ln, write) {
			case cachesim.InL1:
				ns += s.cfg.L1HitNs
			case cachesim.InL2:
				ns += s.cfg.L2HitNs
			case cachesim.InL3:
				ns += s.cfg.L3HitNs
			default:
				ns += s.cfg.PMReadNs
			}
		}
		if write {
			s.dirty.set(ln)
			s.everDirt.set(ln)
		}
	}
	return ns
}

// Read copies n = len(p) bytes at addr into p.
func (d *Device) Read(addr Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	s := d.s
	s.checkRange(addr, len(p))
	s.mu.Lock()
	s.checkDeadLocked(addr, len(p))
	ns := d.accessLocked(addr, len(p), false)
	copy(p, s.mem[addr:])
	s.stats.Reads++
	s.stats.BytesRead += uint64(len(p))
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
}

// Write stores p at addr, marking the touched lines dirty.
func (d *Device) Write(addr Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	s := d.s
	s.checkRange(addr, len(p))
	s.mu.Lock()
	ns := d.accessLocked(addr, len(p), true)
	copy(s.mem[addr:], p)
	s.stats.Writes++
	s.stats.BytesWritten += uint64(len(p))
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Write(addr, len(p))
	}
}

// Zero writes n zero bytes at addr.
func (d *Device) Zero(addr Addr, n int) {
	if n == 0 {
		return
	}
	s := d.s
	s.checkRange(addr, n)
	s.mu.Lock()
	ns := d.accessLocked(addr, n, true)
	clear(s.mem[addr : addr+Addr(n)])
	s.stats.Writes++
	s.stats.BytesWritten += uint64(n)
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Write(addr, n)
	}
}

// ReadU64 reads a little-endian uint64 at addr.
func (d *Device) ReadU64(addr Addr) uint64 {
	s := d.s
	s.checkRange(addr, 8)
	s.mu.Lock()
	s.checkDeadLocked(addr, 8)
	ns := d.accessLocked(addr, 8, false)
	v := binary.LittleEndian.Uint64(s.mem[addr:])
	s.stats.Reads++
	s.stats.BytesRead += 8
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	return v
}

// WriteU64 stores a little-endian uint64 at addr.
func (d *Device) WriteU64(addr Addr, v uint64) {
	s := d.s
	s.checkRange(addr, 8)
	s.mu.Lock()
	ns := d.accessLocked(addr, 8, true)
	binary.LittleEndian.PutUint64(s.mem[addr:], v)
	s.stats.Writes++
	s.stats.BytesWritten += 8
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Write(addr, 8)
	}
}

// ReadAddr reads a persistent pointer stored at addr.
func (d *Device) ReadAddr(addr Addr) Addr { return Addr(d.ReadU64(addr)) }

// WriteAddr stores a persistent pointer at addr. The write is 8-byte
// aligned and therefore atomic with respect to failure, the property the
// MOD Commit step relies on (§5.2). Under the device mutex it is also
// atomic with respect to concurrent readers, which is what makes the
// commit step's version publication an atomic pointer swap.
func (d *Device) WriteAddr(addr Addr, v Addr) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("pmem: unaligned pointer write at %#x", uint64(addr)))
	}
	d.WriteU64(addr, uint64(v))
}

// CasAddr atomically compares the pointer at addr against old and, if it
// matches, stores v. Like WriteAddr the cell must be 8-byte aligned, so
// the store is failure-atomic; under the device mutex the compare and the
// store are one indivisible step with respect to concurrent readers and
// writers — the primitive the optimistic commit path publishes through.
// A failed CAS costs (and counts) a read; a successful one costs a read
// plus a write.
func (d *Device) CasAddr(addr, old, v Addr) bool {
	if addr&7 != 0 {
		panic(fmt.Sprintf("pmem: unaligned pointer CAS at %#x", uint64(addr)))
	}
	s := d.s
	s.checkRange(addr, 8)
	s.mu.Lock()
	s.checkDeadLocked(addr, 8)
	ns := d.accessLocked(addr, 8, false)
	cur := Addr(binary.LittleEndian.Uint64(s.mem[addr:]))
	s.stats.Reads++
	s.stats.BytesRead += 8
	if cur != old {
		d.clk.chargeLocked(d.cat, ns)
		s.mu.Unlock()
		return false
	}
	ns += d.accessLocked(addr, 8, true)
	binary.LittleEndian.PutUint64(s.mem[addr:], uint64(v))
	s.stats.Writes++
	s.stats.BytesWritten += 8
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Write(addr, 8)
	}
	return true
}

// ReadU32 reads a little-endian uint32 at addr.
func (d *Device) ReadU32(addr Addr) uint32 {
	s := d.s
	s.checkRange(addr, 4)
	s.mu.Lock()
	s.checkDeadLocked(addr, 4)
	ns := d.accessLocked(addr, 4, false)
	v := binary.LittleEndian.Uint32(s.mem[addr:])
	s.stats.Reads++
	s.stats.BytesRead += 4
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	return v
}

// WriteU32 stores a little-endian uint32 at addr.
func (d *Device) WriteU32(addr Addr, v uint32) {
	s := d.s
	s.checkRange(addr, 4)
	s.mu.Lock()
	ns := d.accessLocked(addr, 4, true)
	binary.LittleEndian.PutUint32(s.mem[addr:], v)
	s.stats.Writes++
	s.stats.BytesWritten += 4
	d.clk.chargeLocked(d.cat, ns)
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Write(addr, 4)
	}
}

// BeginRecovery opens a recovery/verification bracket on the device and
// returns the function that closes it. Raw Bytes views — which read
// around the dead-line (media fault) machinery and charge no simulated
// time — are only legal inside an open bracket; everywhere else they
// would let steady-state code dodge MediaError and checksum
// verification. Brackets nest and may be held concurrently; the counter
// is device-wide.
func (d *Device) BeginRecovery() func() {
	d.s.scans.Add(1)
	return d.s.endScan
}

// Bytes returns a read-only view of [addr, addr+n) without charging
// simulated time. It is exempt from dead-line poisoning (it models scrub
// machinery reading around the ECC), so it is only legal inside a
// BeginRecovery bracket — recovery scans, verification, checkers — and
// panics outside one. Workload code must use Read. The view aliases live
// memory and is not synchronized against concurrent writers.
func (d *Device) Bytes(addr Addr, n int) []byte {
	if d.s.scans.Load() == 0 {
		panic(fmt.Sprintf("pmem: Bytes(%#x, %d) outside a BeginRecovery bracket; steady-state reads must use Read/ReadU64 (checked against media faults)", uint64(addr), n))
	}
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	d.s.checkRange(addr, n)
	return d.s.mem[addr : addr+Addr(n) : addr+Addr(n)]
}

// Snapshot returns a fresh copy of the entire arena's current contents —
// every write, durable or not — taken under the device mutex. It is the
// whole-image checkpoint corruption tests and checkers capture before
// injecting damage; unlike Bytes it copies, so it needs no recovery
// bracket and cannot alias later writes.
func (d *Device) Snapshot() []byte {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return append([]byte(nil), d.s.mem...)
}

// Clwb initiates a writeback of the line containing addr. It commits
// instantly (Fig. 3); the writeback completes at the next Sfence. Flushing
// a clean line still costs issue time but does not join the inflight set
// twice.
func (d *Device) Clwb(addr Addr) {
	s := d.s
	s.checkRange(addr, 1)
	s.mu.Lock()
	ln := uint64(addr) >> LineShift
	s.stats.Flushes++
	s.dirty.clear(ln)
	if !s.infSet.get(ln) {
		s.infSet.set(ln)
		s.inflight = append(s.inflight, ln)
	}
	d.clk.chargeLocked(CatFlush, s.cfg.ClwbIssueNs)
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Flush(ln)
	}
}

// FlushRange issues Clwb for every line overlapping [addr, addr+n).
func (d *Device) FlushRange(addr Addr, n int) {
	if n <= 0 {
		return
	}
	d.s.checkRange(addr, n)
	first := uint64(addr) &^ (LineSize - 1)
	last := (uint64(addr) + uint64(n) - 1) &^ (LineSize - 1)
	for ln := first; ln <= last; ln += LineSize {
		d.Clwb(Addr(ln))
	}
}

// FenceStallNs returns the modeled sfence stall for n inflight flushes:
// n × T1 × ((1−f) + f/min(n, cap)), the Amdahl fit of Fig. 4.
func (d *Device) FenceStallNs(n int) float64 {
	if n <= 0 {
		return d.s.cfg.SfenceBaseNs
	}
	eff := n
	if d.s.cfg.FlushMaxConcurrency > 0 && eff > d.s.cfg.FlushMaxConcurrency {
		eff = d.s.cfg.FlushMaxConcurrency
	}
	f := d.s.cfg.FlushParallelFrac
	perFlush := d.s.cfg.FlushLatencyNs * ((1 - f) + f/float64(eff))
	return perFlush * float64(n)
}

// Sfence stalls until all inflight writebacks complete, making them
// durable. This is the only operation that adds lines to the durable
// image. The inflight set is device-wide: a fence issued through any
// handle retires every outstanding writeback, which is conservative for
// the fencing goroutine (it may pay for others' flushes) and sound for
// crash consistency (writebacks only become durable earlier, never
// later, than a per-core model would allow).
func (d *Device) Sfence() {
	s := d.s
	s.mu.Lock()
	n := len(s.inflight)
	s.stats.Fences++
	s.stats.FlushedPerFence += uint64(n)
	if s.dur != nil {
		for _, ln := range s.inflight {
			off := ln << LineShift
			copy(s.dur[off:off+LineSize], s.mem[off:off+LineSize])
		}
	}
	for _, ln := range s.inflight {
		s.infSet.clear(ln)
		if !s.dirty.get(ln) {
			s.everDirt.clear(ln)
		}
	}
	s.inflight = s.inflight[:0]
	// The sequence must advance inside the critical section: a commit on
	// another handle that runs after this fence's durable copy must read
	// a FenceSeq that includes it, or the allocator could tag a retired
	// block as already fence-covered and free it one fence early.
	s.fences.Add(1)
	d.clk.chargeLocked(CatFlush, d.FenceStallNs(n))
	s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Fence(n)
	}
}

// InflightLines returns the number of lines flushed but not yet fenced.
func (d *Device) InflightLines() int {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return len(d.s.inflight)
}

// DirtyLines returns the number of lines written but not yet flushed.
func (d *Device) DirtyLines() int {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return d.s.dirty.count()
}

// LineDirty reports whether the line containing addr has been written
// since it was last flushed.
func (d *Device) LineDirty(addr Addr) bool {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	d.s.checkRange(addr, 1)
	return d.s.dirty.get(uint64(addr) >> LineShift)
}

// bitset is a fixed-size bit vector over line indices.
type bitset struct {
	words []uint64
	n     int
}

func newBitset(bits uint64) bitset {
	return bitset{words: make([]uint64, (bits+63)/64)}
}

func (b *bitset) set(i uint64) {
	w := &b.words[i>>6]
	m := uint64(1) << (i & 63)
	if *w&m == 0 {
		*w |= m
		b.n++
	}
}

func (b *bitset) clear(i uint64) {
	w := &b.words[i>>6]
	m := uint64(1) << (i & 63)
	if *w&m != 0 {
		*w &^= m
		b.n--
	}
}

func (b *bitset) get(i uint64) bool { return b.words[i>>6]&(1<<(i&63)) != 0 }

func (b *bitset) count() int { return b.n }
