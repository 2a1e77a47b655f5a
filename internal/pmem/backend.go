package pmem

// Backend abstracts the persistent-memory device under the MOD stack so
// the identical allocator / functional-datastructure / store / server
// layers run over more than one medium:
//
//   - the simulator (*Device in this package): deterministic line-state
//     machine with a simulated nanosecond clock — the measurement
//     instrument and the CI crash-consistency gate;
//   - mmapdev (package pmem/mmapdev): a plain mmap'd file where Clwb is
//     a dirty-line note, Sfence is msync(MS_SYNC) over the noted lines,
//     and the clock is wall time — the deployable engine, a seam for a
//     future DAX/clwb path.
//
// The interface is exactly the surface the data path, recovery and the
// harness call through it. Simulator-only machinery — crash policies
// beyond a whole-arena copy, media-fault injection, durable-image views,
// per-line dirty/inflight introspection (InflightLines, DirtyLines,
// LineDirty) and reading back the accounting category — stays on
// *Device; callers that need it consult Caps first or type-assert.
type Backend interface {
	// Geometry and capability flags.
	Size() int64
	Config() Config
	Caps() Caps

	// Data path. All offsets are Addr byte offsets into the arena.
	Read(addr Addr, p []byte)
	Write(addr Addr, p []byte)
	Zero(addr Addr, n int)
	ReadU64(addr Addr) uint64
	WriteU64(addr Addr, v uint64)
	ReadU32(addr Addr) uint32
	WriteU32(addr Addr, v uint32)
	ReadAddr(addr Addr) Addr
	WriteAddr(addr Addr, v Addr)
	CasAddr(addr, old, v Addr) bool

	// Persistence ordering. FenceSeq is a monotonic sfence count the
	// allocator orders reclamation against on every backend.
	Clwb(addr Addr)
	FlushRange(addr Addr, n int)
	Sfence()
	FenceSeq() uint64

	// Accounting. Clock/LocalNs are simulated nanoseconds when
	// CapSimClock is set, wall-clock nanoseconds since open otherwise —
	// which is why mmap bench rows are wall-clock-only and never
	// value-gated.
	Stats() Stats
	Clock() float64
	LocalNs() float64
	ChargeCompute(ns float64)
	SetCategory(c Category) Category
	NoteBatch(ops int)
	NoteRecovery(rebuilt uint64, ns float64)
	NoteFlushesSaved(n uint64)
	NoteCopiesElided(n uint64)
	ReadDRAM(addr Addr, n int)

	// Concurrency: a handle per goroutine, sharing the arena.
	Fork() Backend
	Tracer() Tracer
	SetTracer(t Tracer)

	// Recovery-scan surface. Bytes returns a raw, time-free view of the
	// arena for recovery and verification scans ONLY: it reads around
	// the media-fault (dead line) machinery, so outside a BeginRecovery
	// bracket it panics rather than let steady-state callers dodge
	// MediaError/checksum verification. RangeDead classifies poisoned
	// lines for scans that must report rather than crash; backends
	// without fault injection always return (Nil, false).
	BeginRecovery() func()
	Bytes(addr Addr, n int) []byte
	RangeDead(addr Addr, n int) (Addr, bool)

	// Snapshot returns a fresh copy of the whole arena's current
	// contents (every write, durable or not) under the backend's lock —
	// the checkpoint shape corruption tests and checkers diff against.
	Snapshot() []byte

	// CrashImage returns a post-power-failure view of the arena. With
	// CapCrashPolicies the policy and seed select a reproducible subset
	// of non-durable lines; without it the backend returns its best
	// approximation (mmapdev: a copy of the mapping, i.e. every write
	// issued so far — the CrashEvictRandom image with every coin true).
	CrashImage(policy CrashPolicy, seed uint64) []byte
}

// Caps is a bitmask of optional backend capabilities.
type Caps uint32

const (
	// CapSimClock: Clock/LocalNs are deterministic simulated time, so
	// fence/flush counts and nanoseconds are reproducible bit-for-bit
	// and may be value-gated by benchdiff.
	CapSimClock Caps = 1 << iota
	// CapCrashPolicies: CrashImage honors CrashPolicy + seed over a
	// tracked durable/inflight/dirty line-state machine.
	CapCrashPolicies
	// CapFaultInjection: the backend supports dead-line poisoning
	// (MarkLineDead) and raises MediaError on reads of poisoned lines.
	CapFaultInjection
	// CapDurableImage: a fenced-only durable image is tracked
	// (Config.TrackDurable), so CrashFencedOnly views are exact.
	CapDurableImage
)

// Has reports whether every capability in want is present.
func (c Caps) Has(want Caps) bool { return c&want == want }

// Caps reports the simulator's capabilities. The line-state machine and
// fault injection are always present; the durable image only when the
// device was created with Config.TrackDurable.
func (d *Device) Caps() Caps {
	c := CapSimClock | CapCrashPolicies | CapFaultInjection
	if d.s.dur != nil {
		c |= CapDurableImage
	}
	return c
}

// Compile-time check: the simulator implements the full Backend surface.
var _ Backend = (*Device)(nil)
