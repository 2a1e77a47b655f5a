// Package workloads implements the benchmark suite of Table 2: map, set,
// stack, queue, vector, vec-swap, bfs, vacation, and memcached, each
// runnable on the MOD engine and on the PMDK-style STM baseline in v1.4
// and v1.5 modes. A run returns the simulated-time breakdown (other /
// flush / log), flush and fence counts, cache statistics, and allocator
// statistics that the harness turns into the paper's figures and tables.
package workloads

import (
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/apps"
	"github.com/mod-ds/mod/internal/cachesim"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/graph"
	"github.com/mod-ds/mod/internal/pmdkds"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/stm"
)

// Engine selects the persistence implementation under test.
type Engine int

// The three engines of Fig. 9.
const (
	EngineMOD Engine = iota
	EnginePMDK15
	EnginePMDK14
)

// String returns the engine label used in reports.
func (e Engine) String() string {
	switch e {
	case EngineMOD:
		return "mod"
	case EnginePMDK15:
		return "pmdk-v1.5"
	case EnginePMDK14:
		return "pmdk-v1.4"
	}
	return fmt.Sprintf("engine(%d)", int(e))
}

// Engines lists all engines in report order.
var Engines = []Engine{EnginePMDK14, EnginePMDK15, EngineMOD}

// Names lists the workloads in Table 2 order.
var Names = []string{"map", "set", "queue", "stack", "vector", "vec-swap", "bfs", "vacation", "memcached"}

// Config parameterizes a workload run.
type Config struct {
	// Ops is the number of measured iterations (Table 2 uses 1M; the
	// default harness scale is smaller — see the -full flag).
	Ops int
	// Seed drives the deterministic operation stream.
	Seed uint64
	// ArenaBytes sizes the simulated PM device (0 = automatic).
	ArenaBytes int64
}

// Result is one workload × engine measurement: its Row (key
// "workload/engine"; ElapsedNs is the simulated time, whose other_ns /
// flush_ns / log_ns split and the workload's own outputs, e.g. the bfs
// visited count, ride in Extra) plus the cache and allocator views the
// paper's figures read.
type Result struct {
	Row
	Workload string
	Engine   string

	Cache cachesim.Stats

	// Allocator view at the end of the measured region.
	LiveBytes uint64
	CumBytes  uint64
}

// FlushFrac returns the fraction of simulated time spent flushing.
func (r Result) FlushFrac() float64 { return r.Frac("flush_ns") }

// LogFrac returns the fraction of simulated time spent logging.
func (r Result) LogFrac() float64 { return r.Frac("log_ns") }

// env bundles the engine-specific machinery for one run.
type env struct {
	engine Engine
	dev    pmem.Backend
	heap   *alloc.Heap
	store  *core.Store // MOD only
	tx     *stm.TX     // PMDK only
}

// newEnv builds a fresh device and engine state.
func newEnv(engine Engine, arena int64) (*env, error) {
	cfg := pmem.DefaultConfig(arena)
	if engine == EngineMOD {
		db, _, err := core.Open(cfg)
		if err != nil {
			return nil, err
		}
		store := db.Store()
		return &env{engine: engine, dev: store.Device(), heap: store.Heap(), store: store}, nil
	}
	dev := pmem.New(cfg)
	e := &env{engine: engine, dev: dev}
	e.heap = alloc.Format(dev)
	mode := stm.ModeV15
	if engine == EnginePMDK14 {
		mode = stm.ModeV14
	}
	e.tx = stm.New(dev, e.heap, mode)
	return e, nil
}

// rng is a splitmix64 stream.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n uint64) uint64 { return r.next() % n }

// runner executes a workload's setup and measured phases.
type runner struct {
	setup func(*env, *rng) error
	run   func(*env, *rng, int, *Result) error
	arena func(ops int) int64
}

func defaultArena(ops int) int64 {
	a := int64(ops)*1536 + (64 << 20)
	if a < 64<<20 {
		a = 64 << 20
	}
	return a
}

// Run executes a named workload on an engine and returns its measurement.
func Run(name string, engine Engine, cfg Config) (Result, error) {
	r, ok := registry[name]
	if !ok {
		return Result{}, fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names)
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 10_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 0x5eed
	}
	arena := cfg.ArenaBytes
	if arena == 0 {
		if r.arena != nil {
			arena = r.arena(cfg.Ops)
		} else {
			arena = defaultArena(cfg.Ops)
		}
	}
	e, err := newEnv(engine, arena)
	if err != nil {
		return Result{}, err
	}
	rnd := &rng{state: cfg.Seed}
	if r.setup != nil {
		if err := r.setup(e, rnd); err != nil {
			return Result{}, err
		}
	}
	// The runner fills Extra and may renormalize Ops (bfs) before the
	// measured delta is known.
	res := Result{Workload: name, Engine: engine.String()}
	res.Row = Row{Key: name + "/" + res.Engine, Ops: cfg.Ops, Extra: map[string]float64{}}
	before := e.dev.Stats()
	if err := r.run(e, rnd, cfg.Ops, &res); err != nil {
		return Result{}, err
	}
	delta := e.dev.Stats().Sub(before)
	res.cost(delta, delta.TotalNs)
	res.Extra["other_ns"] = delta.CatNs[pmem.CatOther]
	res.Extra["flush_ns"] = delta.CatNs[pmem.CatFlush]
	res.Extra["log_ns"] = delta.CatNs[pmem.CatLog]
	res.Cache = delta.Cache
	hs := e.heap.Stats()
	res.LiveBytes = hs.LiveBytes
	res.CumBytes = hs.CumBytes
	return res, nil
}

// kv returns a map implementation for the engine (used by map, memcached).
func (e *env) kv(name string, keyspace int) (apps.KV, error) {
	if e.engine == EngineMOD {
		return e.store.Map(name)
	}
	return pmdkds.NewHashmap(e.tx, name, pow2(keyspace))
}

func pow2(n int) uint64 {
	p := uint64(1)
	for int(p) < n {
		p <<= 1
	}
	return p
}

var _ = graph.FlickrNodes // used by bfs.go
