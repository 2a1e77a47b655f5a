package pmem

// Simulated-time accounting. A single-threaded simulation can keep one
// float64 clock, but concurrent goroutines each have their own critical
// path: reader A performing a lookup does not wait for reader B's lookup
// on real hardware, so their simulated times must advance independently.
//
// Every Device handle therefore carries a LocalClock: charges land on the
// handle's own timeline (the goroutine's critical path) and on a
// device-wide aggregate (total busy nanoseconds across all goroutines).
// Elapsed time of a parallel phase is the maximum of the participating
// handles' local clocks; aggregate throughput is total operations divided
// by that maximum.
//
// Both clocks are plain float64 sums guarded by the device mutex. Every
// PM access already holds that mutex for its line-state and cache-model
// update, so the access charges its latency before unlocking and the
// clocks cost no synchronization of their own; the readers (Clock,
// LocalNs, CategoryNs, Stats) and the one charge with no access behind it
// (ChargeCompute) take the mutex themselves. A handle's sum is therefore
// exact — the same additions in the same order as a single-threaded run
// — and a handle shared by several goroutines loses no charge.

// Clock accounts simulated time for one execution context.
type Clock interface {
	// Charge advances the clock by ns, attributed to category c.
	Charge(c Category, ns float64)
	// Now returns the accumulated simulated nanoseconds.
	Now() float64
	// CategoryNs returns the accumulated nanoseconds of one category.
	CategoryNs(c Category) float64
}

// nsByCat is a simulated-time total with its per-category breakdown.
type nsByCat struct {
	total float64
	cat   [numCategories]float64
}

func (t *nsByCat) add(c Category, ns float64) {
	t.total += ns
	t.cat[c] += ns
}

// LocalClock is the per-handle simulated clock. Charges accumulate both
// locally and on the device aggregate, so a handle's Now() is the critical
// path of the goroutine using it while Device.Clock() remains the total
// busy time. LocalClock is safe for concurrent use, but sharing one across
// goroutines merges their timelines; Fork the device instead.
type LocalClock struct {
	s     *devState // owner of the guarding mutex and of the aggregate
	local nsByCat
}

func newLocalClock(s *devState) *LocalClock { return &LocalClock{s: s} }

// chargeLocked advances this clock and the device aggregate by ns. The
// caller holds the device mutex.
func (c *LocalClock) chargeLocked(cat Category, ns float64) {
	c.local.add(cat, ns)
	c.s.agg.add(cat, ns)
}

// Charge advances this clock and the device aggregate by ns.
func (c *LocalClock) Charge(cat Category, ns float64) {
	c.s.mu.Lock()
	c.chargeLocked(cat, ns)
	c.s.mu.Unlock()
}

// Now returns the simulated nanoseconds accumulated on this clock.
func (c *LocalClock) Now() float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.local.total
}

// CategoryNs returns this clock's accumulated time in one category.
func (c *LocalClock) CategoryNs(cat Category) float64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.local.cat[cat]
}
