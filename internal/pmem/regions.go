package pmem

// Region-split devices. A sharded store partitions its persistent arena
// into independent regions — one backend per shard — so that
// allocation, flushing, and above all
// fencing on one shard never order or stall another: each backend owns
// its inflight set and fence sequence, which is exactly what lets
// unrelated FASEs on different shards commit without sharing an
// ordering point.
//
// Regions bundles those backends for the operations that genuinely span
// the split: aggregate statistics (per-region counters sum; see
// Stats.Add), whole-set crash images for failure injection, and the
// critical-path clock (the slowest region bounds a perfectly parallel
// execution).

// Regions is an ordered set of independently fenced device regions.
type Regions struct {
	devs []Backend
}

// NewRegions bundles the given backends into a region set. The set
// aliases the handles; it does not copy or own them.
func NewRegions(devs ...Backend) *Regions {
	r := &Regions{devs: make([]Backend, len(devs))}
	copy(r.devs, devs)
	return r
}

// Len returns the number of regions.
func (r *Regions) Len() int { return len(r.devs) }

// Device returns the i-th region's backend handle.
func (r *Regions) Device(i int) Backend { return r.devs[i] }

// Devices returns the region backends in order, in a fresh slice — the
// shape NewMultiCrashCountdown takes.
func (r *Regions) Devices() []Backend {
	devs := make([]Backend, len(r.devs))
	copy(devs, r.devs)
	return devs
}

// Stats returns the aggregate counters across every region: each
// region's snapshot is taken once and summed counter-wise.
func (r *Regions) Stats() Stats {
	var agg Stats
	for _, d := range r.devs {
		agg = agg.Add(d.Stats())
	}
	return agg
}

// Clock returns the total simulated busy nanoseconds across all regions.
func (r *Regions) Clock() float64 {
	var total float64
	for _, d := range r.devs {
		total += d.Clock()
	}
	return total
}

// MaxClock returns the largest per-region busy time — the critical path
// of an execution whose regions proceed in parallel.
func (r *Regions) MaxClock() float64 {
	var m float64
	for _, d := range r.devs {
		if c := d.Clock(); c > m {
			m = c
		}
	}
	return m
}

// CrashImages returns a post-power-failure view of every region under
// the given policy, one image per region in region order. Each region's
// pseudorandom line subset is derived from seed and the region index so
// a single seed reproduces the whole multi-region failure.
//
// When every region is a simulator device the capture is simultaneous:
// every region's mutex is held (acquired in region order — no other
// path locks two devices at once, so the ordering cannot deadlock)
// while the images are taken, as a real power failure hits all DIMMs at
// one instant. A per-region sequential capture would let commits that
// ran between two snapshots appear on a later region but not an earlier
// one, which under load manifests as a cross-shard transaction
// "partially applied" by a failure mode real hardware cannot produce.
// Mixed or non-simulator region sets fall back to sequential capture —
// such sets are not driven by the deterministic crash matrix, so the
// simultaneity guarantee is not load-bearing there.
func (r *Regions) CrashImages(policy CrashPolicy, seed uint64) [][]byte {
	sims := make([]*Device, len(r.devs))
	allSim := true
	for i, b := range r.devs {
		d, ok := b.(*Device)
		if !ok {
			allSim = false
			break
		}
		sims[i] = d
	}
	imgs := make([][]byte, len(r.devs))
	if !allSim {
		for i, b := range r.devs {
			imgs[i] = b.CrashImage(policy, seed+uint64(i)*0x9e3779b97f4a7c15)
		}
		return imgs
	}
	for _, d := range sims {
		d.s.mu.Lock()
	}
	defer func() {
		for _, d := range sims {
			d.s.mu.Unlock()
		}
	}()
	for i, d := range sims {
		imgs[i] = d.crashImageLocked(policy, seed+uint64(i)*0x9e3779b97f4a7c15)
	}
	return imgs
}

// MultiCrashCountdown lands one simulated power failure across a region
// set: a shared countdown of PM write events, decremented by a
// per-region tracer, that on expiry captures a crash image of every
// region at the same instant. This is how failure injection reaches the
// middle of a cross-shard commit — between its per-shard fences, after
// some shards' root swaps but not others'.
//
// Like CrashCountdown it is driven from the device Write hook (invoked
// after the device mutex is released); the shared counter is not
// synchronized, so install it only around single-goroutine operation
// sequences, which is what crash tests run.
type MultiCrashCountdown struct {
	devs      []Backend
	countdown int
	policy    CrashPolicy
	seed      uint64
	imgs      [][]byte
	prev      []Tracer
}

// NewMultiCrashCountdown returns a countdown that captures all-region
// crash images at the afterWrites-th PM write across the set. Every
// simulator device must track durability.
func NewMultiCrashCountdown(devs []Backend, afterWrites int, policy CrashPolicy, seed uint64) *MultiCrashCountdown {
	return &MultiCrashCountdown{devs: devs, countdown: afterWrites, policy: policy, seed: seed}
}

// Install sets a counting tracer on every device, remembering the
// tracers it displaces for Uninstall.
func (c *MultiCrashCountdown) Install() {
	c.prev = make([]Tracer, len(c.devs))
	for i, d := range c.devs {
		c.prev[i] = d.Tracer()
		d.SetTracer(&multiCrashSub{c: c})
	}
}

// Uninstall restores each device's previous tracer.
func (c *MultiCrashCountdown) Uninstall() {
	for i, d := range c.devs {
		d.SetTracer(c.prev[i])
	}
	c.prev = nil
}

// Images returns the captured per-region crash images in region order,
// or nil if the countdown has not expired.
func (c *MultiCrashCountdown) Images() [][]byte { return c.imgs }

func (c *MultiCrashCountdown) noteWrite() {
	if c.imgs != nil {
		return
	}
	c.countdown--
	if c.countdown <= 0 {
		imgs := make([][]byte, len(c.devs))
		for i, d := range c.devs {
			imgs[i] = d.CrashImage(c.policy, c.seed+uint64(i)*0x9e3779b97f4a7c15)
		}
		c.imgs = imgs
	}
}

// multiCrashSub is the per-device tracer feeding a shared countdown.
type multiCrashSub struct{ c *MultiCrashCountdown }

func (t *multiCrashSub) Write(addr Addr, size int)             { t.c.noteWrite() }
func (t *multiCrashSub) Alloc(addr Addr, size uint64, u uint8) {}
func (t *multiCrashSub) Free(addr Addr, size uint64)           {}
func (t *multiCrashSub) Flush(line uint64)                     {}
func (t *multiCrashSub) Fence(n int)                           {}
func (t *multiCrashSub) FASEBegin()                            {}
func (t *multiCrashSub) FASEEnd()                              {}
func (t *multiCrashSub) CommitBegin()                          {}
func (t *multiCrashSub) CommitEnd()                            {}
