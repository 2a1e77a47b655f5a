package workloads

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Concurrent throughput workload. N reader goroutines take lock-free
// snapshots of sharded maps and perform point lookups while M writer
// goroutines commit FASEs against their own shards. Every goroutine works
// through a forked Store handle, so its simulated time is its own
// critical path; the phase's elapsed simulated time is the maximum over
// all goroutines, and aggregate throughput is total operations divided by
// that maximum. Because snapshots never block on committing writers and
// shard commits serialize only per root, adding readers (or writers on
// distinct shards) adds throughput — the reader-scaling property the MOD
// commit protocol's immutable versions make possible.
//
// Simulated time only means something if the goroutines overlap the way
// their simulated clocks say they do, so the run is paced (pacer below,
// DESIGN.md §6). Left to the Go scheduler, with more goroutines than CPUs
// one of them is always descheduled — nearly always inside a snapshot or
// a FASE, which pin the reclamation epoch — for as long as a writer's
// whole simulated run. That writer's blocks are never recycled, every
// allocation is a cold PM line, and its critical path, the phase's
// elapsed time, more than doubles: one value or the other, by schedule.

// ConcurrentConfig parameterizes a concurrent run.
type ConcurrentConfig struct {
	// Readers and Writers are goroutine counts. Readers may be 0.
	Readers, Writers int
	// Shards is the number of independent map roots (writers round-robin
	// over their own shard subset; readers sample all shards).
	Shards int
	// ReaderOps is point lookups per reader; WriterOps is committed
	// updates (FASEs) per writer.
	ReaderOps, WriterOps int
	// GetsPerSnapshot is how many lookups a reader performs under one
	// snapshot before closing it (default 8).
	GetsPerSnapshot int
	// PreloadKeys is the number of keys preloaded into each shard.
	PreloadKeys int
	// Seed drives the deterministic per-goroutine operation streams.
	Seed uint64
	// ArenaBytes sizes the device (0 = automatic).
	ArenaBytes int64
}

func (c *ConcurrentConfig) defaults() {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Readers < 0 {
		c.Readers = 0
	}
	if c.Writers <= 0 {
		c.Writers = 1
	}
	if c.ReaderOps <= 0 {
		c.ReaderOps = 4000
	}
	if c.WriterOps <= 0 {
		c.WriterOps = 1000
	}
	if c.GetsPerSnapshot <= 0 {
		c.GetsPerSnapshot = 8
	}
	if c.PreloadKeys <= 0 {
		c.PreloadKeys = 256
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed
	}
	if c.ArenaBytes == 0 {
		need := int64(c.Writers)*int64(c.WriterOps)*1536 +
			int64(c.Shards)*int64(c.PreloadKeys)*512 + (64 << 20)
		c.ArenaBytes = need
	}
}

// paceWindowNs is how far ahead of the slowest running goroutine a
// goroutine may start its next operation: about one single-Set FASE, so
// writers still overlap in real time and a reader runs a dozen snapshots
// per commit, as its clock says it should.
const paceWindowNs = 2000

// pacer holds the simulated clock every goroutine of a run last
// announced, as Float64bits; +Inf once the goroutine is done. A goroutine
// that has not started yet reads as 0, so nobody runs ahead of it either.
type pacer []atomic.Uint64

// wait announces goroutine i's clock and yields until it is within the
// window. It is called between operations only — outside any snapshot or
// FASE — so a waiting goroutine holds nothing the others need.
func (p pacer) wait(i int, now float64) {
	p[i].Store(math.Float64bits(now))
	for {
		slowest := math.Inf(1)
		for j := range p {
			if c := math.Float64frombits(p[j].Load()); j != i && c < slowest {
				slowest = c
			}
		}
		if now <= slowest+paceWindowNs {
			return
		}
		runtime.Gosched()
	}
}

func (p pacer) done(i int) { p[i].Store(math.Float64bits(math.Inf(1))) }

func shardName(i int) string { return fmt.Sprintf("shard-%02d", i) }

// RunConcurrent executes the concurrent workload and returns its
// measurement. The MOD engine only: the PMDK baselines are single-
// threaded by construction (their undo/redo logs are per-heap).
//
// The row's Ops is lookups plus committed FASEs (Extra read_ops and
// write_ops); ElapsedNs is the maximum per-goroutine simulated time, the
// phase's wall clock; Extra busy_ns is the aggregate busy time across all
// goroutines.
func RunConcurrent(cfg ConcurrentConfig) (Row, error) {
	cfg.defaults()
	db, _, err := core.Open(pmem.DefaultConfig(cfg.ArenaBytes))
	if err != nil {
		return Row{}, err
	}
	defer db.Close()
	store := db.Store()
	dev := store.Device()

	// Preload every shard serially on the main handle.
	preloadRng := rng{state: cfg.Seed}
	for s := 0; s < cfg.Shards; s++ {
		m, err := store.Map(shardName(s))
		if err != nil {
			return Row{}, err
		}
		for k := 0; k < cfg.PreloadKeys; k++ {
			key := fmt.Sprintf("key-%06d", k)
			val := fmt.Sprintf("val-%016x", preloadRng.next())
			m.Set([]byte(key), []byte(val))
		}
	}
	store.Sync()
	statsBase := dev.Stats()
	busyBase := dev.Clock() // exclude preload from the measured phase

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		maxNs    float64 // slowest goroutine's simulated clock
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	pace := make(pacer, cfg.Writers+cfg.Readers) // writers first, then readers

	// Writers: writer w owns shards w, w+Writers, w+2*Writers, ... so
	// writers never contend on a root and commits proceed in parallel.
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer pace.done(w)
			st := store.Fork()
			var shards []*core.Map
			for s := w; s < cfg.Shards; s += cfg.Writers {
				m, err := st.Map(shardName(s))
				if err != nil {
					fail(err)
					return
				}
				shards = append(shards, m)
			}
			if len(shards) == 0 { // more writers than shards: share shard w%Shards
				m, err := st.Map(shardName(w % cfg.Shards))
				if err != nil {
					fail(err)
					return
				}
				shards = append(shards, m)
			}
			r := rng{state: cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(w+1))}
			for i := 0; i < cfg.WriterOps; i++ {
				pace.wait(w, st.Device().LocalNs())
				m := shards[int(r.intn(uint64(len(shards))))]
				key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys*2)))
				val := fmt.Sprintf("val-%016x", r.next())
				m.Set([]byte(key), []byte(val))
			}
			ns := st.Device().LocalNs()
			mu.Lock()
			maxNs = max(maxNs, ns)
			mu.Unlock()
		}(w)
	}

	// Readers: snapshot a shard, perform a batch of lookups, close.
	for rd := 0; rd < cfg.Readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			defer pace.done(cfg.Writers + rd)
			st := store.Fork()
			shards := make([]*core.Map, cfg.Shards)
			for s := 0; s < cfg.Shards; s++ {
				m, err := st.Map(shardName(s))
				if err != nil {
					fail(err)
					return
				}
				shards[s] = m
			}
			r := rng{state: cfg.Seed ^ (0xbf58476d1ce4e5b9 * uint64(rd+1))}
			done := 0
			for done < cfg.ReaderOps {
				pace.wait(cfg.Writers+rd, st.Device().LocalNs())
				m := shards[int(r.intn(uint64(cfg.Shards)))]
				snap := m.Snapshot()
				batch := cfg.GetsPerSnapshot
				if rem := cfg.ReaderOps - done; batch > rem {
					batch = rem
				}
				for g := 0; g < batch; g++ {
					key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys)))
					if _, ok := snap.Get([]byte(key)); !ok {
						snap.Close()
						fail(fmt.Errorf("workloads: reader %d: preloaded key %q missing from snapshot", rd, key))
						return
					}
				}
				snap.Close()
				done += batch
			}
			ns := st.Device().LocalNs()
			mu.Lock()
			maxNs = max(maxNs, ns)
			mu.Unlock()
		}(rd)
	}

	wg.Wait()
	if firstErr != nil {
		return Row{}, firstErr
	}
	// Before Sync: measured phase only.
	readOps, writeOps := cfg.Readers*cfg.ReaderOps, cfg.Writers*cfg.WriterOps
	res := NewRow(fmt.Sprintf("concurrent/r%d", cfg.Readers), readOps+writeOps,
		dev.Stats().Sub(statsBase), maxNs)
	res.Extra["read_ops"] = float64(readOps)
	res.Extra["write_ops"] = float64(writeOps)
	res.Extra["busy_ns"] = dev.Clock() - busyBase
	store.Sync()
	return res, nil
}
