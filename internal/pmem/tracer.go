package pmem

// Tracer observes persistent-memory events for the automated testing
// framework of §5.4. The device reports writes, flushes, and fences;
// the allocator reports allocations and frees; the MOD core reports FASE
// and commit boundaries. A nil Tracer disables tracing.
//
// Tracer methods must not call back into the Device. One exception is
// sanctioned: the Write and Fence hooks are invoked after the device has
// released its internal mutex, so their implementations may take crash
// images (CrashCountdown in crash.go relies on this for Write).
type Tracer interface {
	// Alloc records that a block [addr, addr+size) was allocated with
	// the given node type tag.
	Alloc(addr Addr, size uint64, tag uint8)
	// Free records that the block at addr was released to the allocator.
	Free(addr Addr, size uint64)
	// Write records a PM store of size bytes at addr.
	Write(addr Addr, size int)
	// Flush records a clwb of the given line index.
	Flush(line uint64)
	// Fence records an sfence that retired n inflight flushes.
	Fence(n int)
	// FASEBegin and FASEEnd bracket a failure-atomic section.
	FASEBegin()
	FASEEnd()
	// CommitBegin and CommitEnd bracket the commit step of a FASE, the
	// only region in which writes to existing PM data are permitted.
	CommitBegin()
	CommitEnd()
}
