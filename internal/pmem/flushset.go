package pmem

// FlushSet is a deferred, deduplicating flush recorder. Instead of issuing
// a clwb the moment a range is written, callers record dirty ranges with
// Add; Flush then issues exactly one clwb per distinct cacheline, in
// recording order, before the publishing fence. Two sources of redundancy
// disappear:
//
//   - a node rewritten several times inside one FASE (an edit-context
//     in-place mutation) is flushed once, not once per rewrite;
//   - ranges that straddle shared lines — a block header and the payload
//     that begins on the same line, or two adjacent packed blocks — are
//     flushed once, not once per range.
//
// The gap between lines recorded and lines flushed is accumulated in
// Stats.FlushesSaved.
//
// Deferring flushes to the ordering point is exactly as crash-consistent
// as issuing them eagerly: MOD's shadow updates are unreachable until the
// commit's root swap, and the swap is ordered after the fence that retires
// these flushes, so no recovery path can observe the deferred lines early.
//
// A FlushSet is not safe for concurrent use; it belongs to a single FASE
// on a single handle, like the edit context that owns it. Flush leaves it
// empty with its storage kept, so a reused edit records its next FASE
// without allocating.
type FlushSet struct {
	d        Backend
	lines    OrderedSet[uint64] // distinct line indices, in recording order
	recorded uint64             // line records including duplicates
}

// NewFlushSet returns an empty deferred flush set bound to the given
// backend handle. The dedup works over any backend: on the simulator a
// saved clwb is saved issue time, on mmapdev a saved note is a smaller
// msync set.
func NewFlushSet(b Backend) *FlushSet {
	return &FlushSet{d: b}
}

// NewFlushSet returns an empty deferred flush set bound to this handle.
func (d *Device) NewFlushSet() *FlushSet { return NewFlushSet(d) }

// Add records every line overlapping [addr, addr+n) as needing a flush.
// Lines already recorded are deduplicated and counted as saved flushes.
func (f *FlushSet) Add(addr Addr, n int) {
	if n <= 0 {
		return
	}
	first := uint64(addr) >> LineShift
	last := (uint64(addr) + uint64(n) - 1) >> LineShift
	for ln := first; ln <= last; ln++ {
		f.recorded++
		f.lines.Add(ln)
	}
}

// Pending returns the number of distinct lines awaiting the sweep.
func (f *FlushSet) Pending() int { return f.lines.Len() }

// Flush issues one clwb per recorded line and resets the set, crediting
// the deduplicated lines to Stats.FlushesSaved. Call it immediately before
// the FASE's ordering point.
func (f *FlushSet) Flush() {
	for _, ln := range f.lines.Keys() {
		f.d.Clwb(Addr(ln << LineShift))
	}
	if saved := f.recorded - uint64(f.lines.Len()); saved > 0 {
		f.d.NoteFlushesSaved(saved)
	}
	f.lines.Reset()
	f.recorded = 0
}

// NoteFlushesSaved credits n flushes avoided by deduplication.
func (d *Device) NoteFlushesSaved(n uint64) {
	d.s.mu.Lock()
	d.s.stats.FlushesSaved += n
	d.s.mu.Unlock()
}

// NoteCopiesElided credits n node copies avoided by in-place mutation of
// edit-owned nodes (the copy-elision counter of the transient experiment).
// The edit-context layer records them when it seals.
func (d *Device) NoteCopiesElided(n uint64) {
	if n == 0 {
		return
	}
	d.s.mu.Lock()
	d.s.stats.CopiesElided += n
	d.s.mu.Unlock()
}
