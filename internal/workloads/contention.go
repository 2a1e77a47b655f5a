package workloads

import (
	"fmt"
	"sync"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Contention workload: W writer goroutines hammer ONE shared map root.
// This is the adversarial inverse of the concurrent workload (which gives
// every writer its own shard): all scaling must come from the commit
// protocol itself. Two modes run per writer count:
//
//   - mutex: the serialized baseline — every writer takes one workload-
//     level mutex around its update, so adding writers adds queueing, not
//     throughput. The engine sees a single uncontended writer (every
//     commit a first-try CAS win); simulated lock-wait time is modeled by
//     a watermark the lock holders hand on (see RunContention).
//   - cas: the two-tier path — optimistic CAS publication while the race
//     is light, flat combining once it is not. Combining merges the
//     pending ops of all enrolled writers into one shadow chain published
//     under a single flush+sfence epoch, so fences/op falls as contention
//     rises instead of staying fixed at one per op.
//
// Elapsed simulated time is the maximum over writer goroutines (each
// works through a forked handle carrying its own clock); throughput is
// total committed ops over that maximum.

// ContentionConfig parameterizes one contention measurement.
type ContentionConfig struct {
	// Writers is the goroutine count, all updating the same root.
	Writers int
	// OpsPerWriter is committed updates per writer.
	OpsPerWriter int
	// Keyspace is the number of distinct keys (preloaded before the
	// measured phase so map shape stays roughly constant).
	Keyspace int
	// MutexBaseline serializes the writers on a workload-level mutex
	// instead of letting them race on the two-tier commit path.
	MutexBaseline bool
	// Seed drives the deterministic per-goroutine operation streams.
	Seed uint64
	// ArenaBytes sizes the device (0 = automatic).
	ArenaBytes int64
}

func (c *ContentionConfig) defaults() {
	if c.Writers <= 0 {
		c.Writers = 1
	}
	if c.OpsPerWriter <= 0 {
		c.OpsPerWriter = 1000
	}
	if c.Keyspace <= 0 {
		c.Keyspace = 512
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	if c.ArenaBytes == 0 {
		need := int64(c.Writers)*int64(c.OpsPerWriter)*2048 +
			int64(c.Keyspace)*512 + (64 << 20)
		c.ArenaBytes = need
	}
}

// RunContention executes the contention workload and returns its
// measurement. MOD engine only: the baselines under comparison are the
// two commit tiers of the same engine. Ops is total committed updates
// across writers; Extra carries the commit-tier counters of the measured
// phase (fast_wins == Ops and nothing else in mutex mode).
func RunContention(cfg ContentionConfig) (Row, error) {
	cfg.defaults()
	pcfg := pmem.DefaultConfig(cfg.ArenaBytes)
	// One cache hierarchy is shared by every handle, so its hit pattern
	// depends on how the Go scheduler interleaves the writers in real
	// time — noise that would drown the protocol costs this sweep
	// isolates (fences, serialization, CAS retries). Flat access costs
	// keep the measurement deterministic.
	pcfg.DisableCache = true
	db, _, err := core.Open(pcfg)
	if err != nil {
		return Row{}, err
	}
	defer db.Close()
	store := db.Store()
	dev := store.Device()

	// Preload the shared root serially on the main handle.
	m, err := store.Map("contended")
	if err != nil {
		return Row{}, err
	}
	preloadRng := rng{state: cfg.Seed}
	for k := 0; k < cfg.Keyspace; k++ {
		key := fmt.Sprintf("key-%06d", k)
		val := fmt.Sprintf("val-%016x", preloadRng.next())
		m.Set([]byte(key), []byte(val))
	}
	store.Sync()
	statsBase := dev.Stats()
	commitBase := store.CommitStats()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		maxNs    float64
		firstErr error

		// Mutex baseline. Simulated clocks are per-goroutine and a Go
		// mutex wait costs no simulated nanoseconds, so back-to-back
		// critical sections on different handles would otherwise overlap
		// in simulated time and a serialized baseline would appear to
		// scale. Each holder advances its clock to the watermark left by
		// the previous one and records its own exit time.
		serialMu  sync.Mutex
		busyUntil float64

		// Cas mode. The writers are paced by simulated clock (pacer,
		// concurrent.go) so none runs its whole budget before another
		// starts: unpaced they either never overlap — every op a
		// first-try win, and per-goroutine clocks report W independent
		// runs as W-fold scaling — or pile up on however few CPUs there
		// are, by machine. Pacing bounds how far the clocks drift apart;
		// which ops interleave inside the window stays the scheduler's
		// choice, so the row is held to floors (DESIGN.md §12).
		pace = make(pacer, cfg.Writers)
	)
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer pace.done(w)
			st := store.Fork()
			wm, err := st.Map("contended")
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				return
			}
			d := st.Device()
			r := rng{state: cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1))}
			for i := 0; i < cfg.OpsPerWriter; i++ {
				key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.Keyspace)))
				val := fmt.Sprintf("val-%016x", r.next())
				if !cfg.MutexBaseline {
					pace.wait(w, d.LocalNs())
					wm.Set([]byte(key), []byte(val))
					continue
				}
				serialMu.Lock()
				if now := d.LocalNs(); now < busyUntil {
					d.ChargeCompute(busyUntil - now)
				}
				wm.Set([]byte(key), []byte(val))
				busyUntil = d.LocalNs() // at or past the old watermark by now
				serialMu.Unlock()
			}
			ns := d.LocalNs()
			mu.Lock()
			maxNs = max(maxNs, ns)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return Row{}, firstErr
	}
	mode := "cas"
	if cfg.MutexBaseline {
		mode = "mutex"
	}
	res := NewRow(fmt.Sprintf("contention/w%d/%s", cfg.Writers, mode),
		cfg.Writers*cfg.OpsPerWriter, dev.Stats().Sub(statsBase), maxNs)
	commit := store.CommitStats()
	res.Extra["fast_wins"] = float64(commit.FastWins - commitBase.FastWins)
	res.Extra["fast_aborts"] = float64(commit.FastAborts - commitBase.FastAborts)
	res.Extra["fast_losses"] = float64(commit.FastLosses - commitBase.FastLosses)
	res.Extra["combines"] = float64(commit.Combines - commitBase.Combines)
	res.Extra["combined_ops"] = float64(commit.CombinedOps - commitBase.CombinedOps)
	res.Extra["locked_commits"] = float64(commit.LockedCommits - commitBase.LockedCommits)
	store.Sync()
	return res, nil
}
