// Package mmapdev is a persistent-memory backend over a plain mmap'd
// file: the deployable counterpart of the pmem simulator, exposing the
// identical pmem.Backend surface so the whole MOD stack — allocator,
// functional datastructures, store, server — runs unchanged on a real
// file.
//
// The persistence mapping is deliberately simple, leaving a seam for a
// future DAX/clwb path:
//
//   - Clwb is a no-op range note: the touched line joins a deduplicated
//     dirty-line set (the FlushSet idiom, device-side).
//   - Sfence is msync(MS_SYNC) over the page-aligned runs covering the
//     noted lines, then clears the set. After Sfence returns, every
//     previously noted line is on stable storage — the same
//     "fence makes prior flushes durable" contract the simulator
//     models, at page rather than line granularity.
//   - CasAddr (and all 8-byte reads/writes of aligned cells) uses real
//     sync/atomic on the mapping, so the root-pointer publication race
//     the optimistic commit path relies on is decided by the CPU, not
//     a device mutex.
//
// There is no line-state machine, no simulated clock, no fault
// injection: Caps() reports none of the simulator's capability flags,
// Clock/LocalNs are wall-clock nanoseconds since open (which is why
// mmap bench rows are wall-clock-only and never value-gated), and
// CrashImage is a copy of the mapping — every write issued so far,
// i.e. the most permissive "any dirty line may persist" image.
//
// The on-file layout is the arena verbatim; multi-byte cells are
// little-endian, matching the simulator's images on the little-endian
// platforms the backend builds for.
package mmapdev

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/pmem"
)

// ErrUnsupported is returned by Create/Open on platforms without the
// mmap backend (only little-endian Linux builds carry it). Callers and
// tests skip the backend when they see it.
var ErrUnsupported = errors.New("mmapdev: not supported on this platform")

// tracerBox wraps a pmem.Tracer for atomic.Value storage.
type tracerBox struct{ t pmem.Tracer }

// devState is the shared mapping state behind every forked handle.
type devState struct {
	data []byte // the live mapping (or heap arena when file-less)
	path string

	mu    sync.Mutex
	noted map[uint64]struct{} // lines Clwb'd since the last Sfence
	order []uint64

	stats struct {
		flushes      atomic.Uint64
		fences       atomic.Uint64
		reads        atomic.Uint64
		writes       atomic.Uint64
		bytesRead    atomic.Uint64
		bytesWritten atomic.Uint64
		flushedPer   atomic.Uint64
		flushesSaved atomic.Uint64
		copiesElided atomic.Uint64
		batches      atomic.Uint64
		batchedOps   atomic.Uint64
		dramReads    atomic.Uint64
		rebuiltNodes atomic.Uint64
		recoveryNs   atomic.Uint64 // float64 bits
	}
	scans   atomic.Int32
	endScan func()        // closes one BeginRecovery bracket; bound once
	fences  atomic.Uint64 // fence sequence (duplicated from stats for clarity)
	tracer  atomic.Value  // tracerBox
	opened  time.Time

	closeOnce sync.Once
	closeErr  error
}

// Device is a handle onto an mmap-backed persistent arena. Like the
// simulator, handles are cheap and per-goroutine (Fork); the mapping is
// shared.
type Device struct {
	s   *devState
	cat pmem.Category
}

// Create creates (or truncates) the file at path, sizes it to size
// bytes rounded up to a full line, and maps it. The arena starts
// zeroed. On platforms without mmap support it returns an error.
func Create(path string, size int64) (*Device, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mmapdev: size must be positive, got %d", size)
	}
	size = (size + pmem.LineSize - 1) &^ (pmem.LineSize - 1)
	data, err := mapFile(path, size, true)
	if err != nil {
		return nil, err
	}
	return newDevice(data, path), nil
}

// Open maps the existing file at path, attaching to whatever state a
// previous incarnation persisted. The file size must be a multiple of
// the line size (Create guarantees it).
func Open(path string) (*Device, error) {
	data, err := mapFile(path, -1, false)
	if err != nil {
		return nil, err
	}
	if len(data)%pmem.LineSize != 0 {
		unmapFile(data)
		return nil, fmt.Errorf("mmapdev: %s size %d is not line-aligned", path, len(data))
	}
	return newDevice(data, path), nil
}

func newDevice(data []byte, path string) *Device {
	s := &devState{
		data:   data,
		path:   path,
		noted:  make(map[uint64]struct{}),
		opened: time.Now(),
	}
	s.tracer.Store(tracerBox{})
	s.endScan = func() { s.scans.Add(-1) }
	return &Device{s: s}
}

// Close syncs the mapping and unmaps it. The device (and every forked
// handle) must not be used afterwards.
func (d *Device) Close() error {
	d.s.closeOnce.Do(func() {
		d.Sfence()
		d.s.closeErr = unmapFile(d.s.data)
		d.s.data = nil
	})
	return d.s.closeErr
}

// Path returns the backing file's path.
func (d *Device) Path() string { return d.s.path }

// Size returns the arena size in bytes.
func (d *Device) Size() int64 { return int64(len(d.s.data)) }

// Config returns a minimal configuration: only the geometry is
// meaningful, the simulator's latency model does not apply.
func (d *Device) Config() pmem.Config { return pmem.Config{Size: int64(len(d.s.data))} }

// Caps reports no simulator capabilities: wall clock, whole-arena crash
// images, no fault injection, no durable-image tracking.
func (d *Device) Caps() pmem.Caps { return 0 }

// Fork returns a new handle onto the same mapping with its own
// accounting category.
func (d *Device) Fork() pmem.Backend { return &Device{s: d.s, cat: d.cat} }

// Tracer returns the tracer hook, or nil.
func (d *Device) Tracer() pmem.Tracer { return d.s.tracer.Load().(tracerBox).t }

// SetTracer replaces the tracer hook (nil disables tracing).
func (d *Device) SetTracer(t pmem.Tracer) { d.s.tracer.Store(tracerBox{t}) }

func (d *Device) checkRange(addr pmem.Addr, n int) {
	if n < 0 || uint64(addr) >= uint64(len(d.s.data)) || uint64(addr)+uint64(n) > uint64(len(d.s.data)) {
		panic(fmt.Sprintf("mmapdev: access [%#x, %#x) outside arena of %d bytes", uint64(addr), uint64(addr)+uint64(n), len(d.s.data)))
	}
}

// Read copies n = len(p) bytes at addr into p.
func (d *Device) Read(addr pmem.Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	d.checkRange(addr, len(p))
	copy(p, d.s.data[addr:])
	d.s.stats.reads.Add(1)
	d.s.stats.bytesRead.Add(uint64(len(p)))
}

// Write stores p at addr.
func (d *Device) Write(addr pmem.Addr, p []byte) {
	if len(p) == 0 {
		return
	}
	d.checkRange(addr, len(p))
	copy(d.s.data[addr:], p)
	d.s.stats.writes.Add(1)
	d.s.stats.bytesWritten.Add(uint64(len(p)))
	if t := d.Tracer(); t != nil {
		t.Write(addr, len(p))
	}
}

// Zero writes n zero bytes at addr.
func (d *Device) Zero(addr pmem.Addr, n int) {
	if n == 0 {
		return
	}
	d.checkRange(addr, n)
	clear(d.s.data[addr : addr+pmem.Addr(n)])
	d.s.stats.writes.Add(1)
	d.s.stats.bytesWritten.Add(uint64(n))
	if t := d.Tracer(); t != nil {
		t.Write(addr, n)
	}
}

// ReadU64 reads a little-endian uint64 at addr. Aligned cells are read
// with a real atomic load, so root-pointer cells race correctly against
// concurrent CasAddr publication.
func (d *Device) ReadU64(addr pmem.Addr) uint64 {
	d.checkRange(addr, 8)
	d.s.stats.reads.Add(1)
	d.s.stats.bytesRead.Add(8)
	return loadU64(d.s.data, addr)
}

// WriteU64 stores a little-endian uint64 at addr (atomically when
// aligned).
func (d *Device) WriteU64(addr pmem.Addr, v uint64) {
	d.checkRange(addr, 8)
	storeU64(d.s.data, addr, v)
	d.s.stats.writes.Add(1)
	d.s.stats.bytesWritten.Add(8)
	if t := d.Tracer(); t != nil {
		t.Write(addr, 8)
	}
}

// ReadU32 reads a little-endian uint32 at addr.
func (d *Device) ReadU32(addr pmem.Addr) uint32 {
	d.checkRange(addr, 4)
	d.s.stats.reads.Add(1)
	d.s.stats.bytesRead.Add(4)
	return loadU32(d.s.data, addr)
}

// WriteU32 stores a little-endian uint32 at addr.
func (d *Device) WriteU32(addr pmem.Addr, v uint32) {
	d.checkRange(addr, 4)
	storeU32(d.s.data, addr, v)
	d.s.stats.writes.Add(1)
	d.s.stats.bytesWritten.Add(4)
	if t := d.Tracer(); t != nil {
		t.Write(addr, 4)
	}
}

// ReadAddr reads a persistent pointer stored at addr.
func (d *Device) ReadAddr(addr pmem.Addr) pmem.Addr { return pmem.Addr(d.ReadU64(addr)) }

// WriteAddr stores a persistent pointer at addr. The cell must be
// 8-byte aligned so the store is both failure-atomic and a real atomic
// store with respect to concurrent readers.
func (d *Device) WriteAddr(addr pmem.Addr, v pmem.Addr) {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mmapdev: unaligned pointer write at %#x", uint64(addr)))
	}
	d.WriteU64(addr, uint64(v))
}

// CasAddr atomically compares the pointer at addr against old and, if
// it matches, stores v — a real compare-and-swap on the mapping.
func (d *Device) CasAddr(addr, old, v pmem.Addr) bool {
	if addr&7 != 0 {
		panic(fmt.Sprintf("mmapdev: unaligned pointer CAS at %#x", uint64(addr)))
	}
	d.checkRange(addr, 8)
	d.s.stats.reads.Add(1)
	d.s.stats.bytesRead.Add(8)
	ok := casU64(d.s.data, addr, uint64(old), uint64(v))
	if !ok {
		return false
	}
	d.s.stats.writes.Add(1)
	d.s.stats.bytesWritten.Add(8)
	if t := d.Tracer(); t != nil {
		t.Write(addr, 8)
	}
	return true
}

// Clwb notes the line containing addr as needing writeback at the next
// Sfence. No I/O happens here — the note set is the device-side
// FlushSet: deduplicated, in first-note order.
func (d *Device) Clwb(addr pmem.Addr) {
	d.checkRange(addr, 1)
	ln := uint64(addr) >> pmem.LineShift
	d.s.stats.flushes.Add(1)
	d.s.mu.Lock()
	if _, ok := d.s.noted[ln]; !ok {
		d.s.noted[ln] = struct{}{}
		d.s.order = append(d.s.order, ln)
	}
	d.s.mu.Unlock()
	if t := d.Tracer(); t != nil {
		t.Flush(ln)
	}
}

// FlushRange notes every line overlapping [addr, addr+n).
func (d *Device) FlushRange(addr pmem.Addr, n int) {
	if n <= 0 {
		return
	}
	d.checkRange(addr, n)
	first := uint64(addr) &^ (pmem.LineSize - 1)
	last := (uint64(addr) + uint64(n) - 1) &^ (pmem.LineSize - 1)
	for ln := first; ln <= last; ln += pmem.LineSize {
		d.Clwb(pmem.Addr(ln))
	}
}

// Sfence makes every noted line durable: msync(MS_SYNC) over the
// page-aligned runs covering the noted set, then the note set clears.
// Lines never noted are not synced — matching the clwb/sfence contract,
// where an unflushed store may or may not survive a crash.
func (d *Device) Sfence() {
	d.s.mu.Lock()
	n := len(d.s.order)
	runs := lineRuns(d.s.order)
	d.s.order = d.s.order[:0]
	clear(d.s.noted)
	d.s.mu.Unlock()

	d.s.stats.fences.Add(1)
	d.s.stats.flushedPer.Add(uint64(n))
	if d.s.data != nil {
		for _, run := range runs {
			// A failed msync means the durability ack about to be issued
			// would be a lie; there is no error channel in the Sfence
			// contract, so fail loudly.
			if err := syncRange(d.s.data, run[0], run[1]); err != nil {
				panic(err)
			}
		}
	}
	d.s.fences.Add(1)
	if t := d.Tracer(); t != nil {
		t.Fence(n)
	}
}

// lineRuns merges sorted-after-the-fact line indices into [startLine,
// endLine) runs so one msync covers each contiguous stretch.
func lineRuns(order []uint64) [][2]uint64 {
	if len(order) == 0 {
		return nil
	}
	sorted := append([]uint64(nil), order...)
	// Small sets; insertion sort avoids pulling in sort for a hot path.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	var runs [][2]uint64
	start, end := sorted[0], sorted[0]+1
	for _, ln := range sorted[1:] {
		if ln == end || ln == end-1 {
			if ln == end {
				end++
			}
			continue
		}
		runs = append(runs, [2]uint64{start, end})
		start, end = ln, ln+1
	}
	return append(runs, [2]uint64{start, end})
}

// FenceSeq returns the number of Sfence calls executed on the device.
func (d *Device) FenceSeq() uint64 { return d.s.fences.Load() }

// Stats returns a snapshot of the counters. Times are wall-clock.
func (d *Device) Stats() pmem.Stats {
	var s pmem.Stats
	s.TotalNs = d.Clock()
	s.Flushes = d.s.stats.flushes.Load()
	s.Fences = d.s.stats.fences.Load()
	s.Reads = d.s.stats.reads.Load()
	s.Writes = d.s.stats.writes.Load()
	s.BytesRead = d.s.stats.bytesRead.Load()
	s.BytesWritten = d.s.stats.bytesWritten.Load()
	s.FlushedPerFence = d.s.stats.flushedPer.Load()
	s.FlushesSaved = d.s.stats.flushesSaved.Load()
	s.CopiesElided = d.s.stats.copiesElided.Load()
	s.Batches = d.s.stats.batches.Load()
	s.BatchedOps = d.s.stats.batchedOps.Load()
	s.DRAMReads = d.s.stats.dramReads.Load()
	s.RebuiltNodes = d.s.stats.rebuiltNodes.Load()
	s.RecoveryNs = math.Float64frombits(d.s.stats.recoveryNs.Load())
	return s
}

// Clock returns wall-clock nanoseconds since the device was opened.
func (d *Device) Clock() float64 { return float64(time.Since(d.s.opened).Nanoseconds()) }

// LocalNs returns wall-clock nanoseconds since open. There is no
// per-handle simulated clock on this backend.
func (d *Device) LocalNs() float64 { return d.Clock() }

// ChargeCompute is a no-op: time is real here.
func (d *Device) ChargeCompute(ns float64) {}

// SetCategory switches the handle's category and returns the previous
// one. Categories have no latency effect on this backend.
func (d *Device) SetCategory(c pmem.Category) pmem.Category {
	old := d.cat
	d.cat = c
	return old
}

// NoteBatch records a group commit for the Batches/BatchedOps counters.
func (d *Device) NoteBatch(ops int) {
	if ops <= 0 {
		return
	}
	d.s.stats.batches.Add(1)
	d.s.stats.batchedOps.Add(uint64(ops))
}

// NoteRecovery records a completed recovery pass (ns are wall-clock).
func (d *Device) NoteRecovery(rebuilt uint64, ns float64) {
	d.s.stats.rebuiltNodes.Add(rebuilt)
	for {
		old := d.s.stats.recoveryNs.Load()
		if d.s.stats.recoveryNs.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+ns)) {
			return
		}
	}
}

// NoteFlushesSaved credits flushes avoided by FlushSet deduplication.
func (d *Device) NoteFlushesSaved(n uint64) { d.s.stats.flushesSaved.Add(n) }

// NoteCopiesElided credits node copies avoided by in-place mutation.
func (d *Device) NoteCopiesElided(n uint64) {
	if n != 0 {
		d.s.stats.copiesElided.Add(n)
	}
}

// ReadDRAM counts node lines served from the DRAM node cache. No
// latency is charged (time is real); the counter keeps reports honest.
func (d *Device) ReadDRAM(addr pmem.Addr, n int) {
	if n <= 0 {
		return
	}
	d.checkRange(addr, n)
	first := uint64(addr) >> pmem.LineShift
	last := (uint64(addr) + uint64(n) - 1) >> pmem.LineShift
	d.s.stats.dramReads.Add(last - first + 1)
}

// BeginRecovery opens a recovery/verification bracket gating raw Bytes
// views, mirroring the simulator's guard so recovery code is portable.
func (d *Device) BeginRecovery() func() {
	d.s.scans.Add(1)
	return d.s.endScan
}

// Bytes returns a raw view of [addr, addr+n) for recovery scans inside
// a BeginRecovery bracket; outside one it panics, exactly like the
// simulator.
func (d *Device) Bytes(addr pmem.Addr, n int) []byte {
	if d.s.scans.Load() == 0 {
		panic(fmt.Sprintf("mmapdev: Bytes(%#x, %d) outside a BeginRecovery bracket", uint64(addr), n))
	}
	d.checkRange(addr, n)
	return d.s.data[addr : addr+pmem.Addr(n) : addr+pmem.Addr(n)]
}

// RangeDead always reports no dead lines: the mmap backend has no
// media-fault injection (reads of a genuinely failing medium surface as
// SIGBUS, outside this model).
func (d *Device) RangeDead(addr pmem.Addr, n int) (pmem.Addr, bool) { return pmem.Nil, false }

// Snapshot returns a fresh copy of the whole mapping.
func (d *Device) Snapshot() []byte {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return append([]byte(nil), d.s.data...)
}

// CrashImage returns a copy of the mapping: every write issued so far,
// regardless of fencing. Without a line-state machine this is the one
// honest post-crash view — it equals CrashEvictRandom with every coin
// landing true, the most permissive outcome recovery must already
// tolerate. The policy and seed are ignored.
func (d *Device) CrashImage(policy pmem.CrashPolicy, seed uint64) []byte { return d.Snapshot() }

// Compile-time check: mmapdev implements the full Backend surface.
var _ pmem.Backend = (*Device)(nil)
