package workloads

import (
	"fmt"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Selective-persistence workload (DESIGN.md §10, "Don't Persist All"). An
// updates-only hot path — map sets over a preloaded keyspace, or vector
// updates over preloaded slots — runs against either the selectively
// persisted flavor of the structure with the DRAM node cache on, or the
// normal fully persisted flavor with the cache off. Selective updates
// flush leaf bindings plus one compact record cell per op; interior
// navigation nodes stay volatile-clean until a checkpoint fold seals them,
// and are rebuilt from the record chain on recovery. That saves flushes
// only when a FASE batches updates: at small scale (BENCH_baseline.json,
// heap layout v18) 64 updates a FASE flush 5,836 lines against 8,518 on
// the map and 4,681 against 5,011 on the vector, and one update a FASE
// flushes more, 18,753 against 17,316 and 19,483 against 10,498.
//
// Each run optionally ends in a simulated crash + reopen so the rebuild
// cost (recovery ns, nodes rebuilt) is measured on the same images the
// hot path produced.
//
// Single-goroutine and deterministic, so cmd/benchdiff gates its rows.

// SelectiveConfig parameterizes one selective-persistence measurement.
type SelectiveConfig struct {
	// Structure selects the hot path: "map" (sets over preloaded keys)
	// or "vector" (updates over preloaded slots).
	Structure string
	// Selective picks the flavor under test: true opens the store
	// WithSelective, so the structures are selectively persisted and the
	// DRAM node cache is on ("on"); false opens a plain store ("off").
	Selective bool
	// OpsPerFASE is the number of updates per edit/batch.
	OpsPerFASE int
	// Ops is the total number of committed updates.
	Ops int
	// PreloadKeys sizes the map keyspace (updates hit existing keys).
	PreloadKeys int
	// VectorPreload is the vector length (updates hit existing slots).
	VectorPreload int
	// MeasureRecovery crashes the device after the run and reopens it,
	// filling the recovery row.
	MeasureRecovery bool
	// Seed drives the deterministic operation stream.
	Seed uint64
	// ArenaBytes sizes the device (0 = automatic).
	ArenaBytes int64
}

func (c *SelectiveConfig) defaults() {
	if c.Structure == "" {
		c.Structure = "map"
	}
	if c.OpsPerFASE <= 0 {
		c.OpsPerFASE = 1
	}
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.PreloadKeys <= 0 {
		c.PreloadKeys = 1024
	}
	if c.VectorPreload <= 0 {
		c.VectorPreload = 4096
	}
	if c.Seed == 0 {
		c.Seed = 0x5e1ec
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = int64(c.Ops)*2048 + int64(c.PreloadKeys)*512 +
			int64(c.VectorPreload)*64 + (64 << 20)
	}
}

// RunSelective executes the selective-persistence workload and returns
// its measurement (Extra: copies — node allocations: path copies +
// headers + bindings + records — and dram_reads, node lines served from the
// volatile cache). With MeasureRecovery it also returns the cost of
// reopening the crashed image under the same key in the recovery/
// namespace: Extra recovery_ns (simulated root scan, record replay and
// navigation rebuild) and rebuilt_nodes (zero for the normal flavor,
// which has nothing to rebuild).
func RunSelective(cfg SelectiveConfig) (run, recovery Row, err error) {
	cfg.defaults()
	if cfg.Structure != "map" && cfg.Structure != "vector" {
		return Row{}, Row{}, fmt.Errorf("workloads: unknown selective structure %q", cfg.Structure)
	}
	dcfg := pmem.DefaultConfig(cfg.ArenaBytes)
	dcfg.TrackDurable = cfg.MeasureRecovery
	var opts []core.Option
	if cfg.Selective {
		opts = append(opts, core.WithSelective(0))
	}
	db, _, err := core.Open(dcfg, opts...)
	if err != nil {
		return Row{}, Row{}, err
	}
	defer db.Close()
	store := db.Store()
	dev := store.Device()

	m, err := store.Map("sel-map")
	if err != nil {
		return Row{}, Row{}, err
	}
	v, err := store.Vector("sel-vec")
	if err != nil {
		return Row{}, Row{}, err
	}

	r := rng{state: cfg.Seed}
	if cfg.Structure == "map" {
		for k := 0; k < cfg.PreloadKeys; k++ {
			m.Set([]byte(fmt.Sprintf("key-%06d", k)), u64le(r.next()))
		}
	} else {
		for i := 0; i < cfg.VectorPreload; i++ {
			v.Push(r.next())
		}
	}
	store.Sync()
	statsBase := dev.Stats()
	allocBase := store.Heap().Stats()
	nsBase := dev.LocalNs()

	b := store.NewBatch()
	for i := 0; i < cfg.Ops; i++ {
		if cfg.Structure == "map" {
			key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys)))
			b.MapSet(m, []byte(key), u64le(r.next()))
		} else {
			b.VectorUpdate(v, r.intn(uint64(cfg.VectorPreload)), r.next())
		}
		if b.Len() >= cfg.OpsPerFASE {
			b.Commit()
		}
	}
	b.Commit()

	mode := "all"
	if cfg.Selective {
		mode = "sel"
	}
	point := fmt.Sprintf("%s/%s/b%d", cfg.Structure, mode, cfg.OpsPerFASE)
	d := dev.Stats().Sub(statsBase)
	run = NewRow("selective/"+point, cfg.Ops, d, dev.LocalNs()-nsBase)
	run.Extra["copies"] = float64(store.Heap().Stats().Allocs - allocBase.Allocs)
	run.Extra["dram_reads"] = float64(d.DRAMReads)
	store.Sync()

	if cfg.MeasureRecovery {
		img := dev.CrashImage(pmem.CrashEvictRandom, cfg.Seed)
		rcfg := pmem.DefaultConfig(cfg.ArenaBytes)
		db2, _, err := core.Open(rcfg, core.WithExistingImages([][]byte{img}))
		if err != nil {
			return Row{}, Row{}, fmt.Errorf("workloads: selective reopen: %w", err)
		}
		defer db2.Close()
		store2 := db2.Store()
		rs := store2.Device().Stats()
		recovery = Row{Key: "recovery/" + point, Ops: cfg.Ops, Extra: map[string]float64{
			"recovery_ns":   rs.RecoveryNs,
			"rebuilt_nodes": float64(rs.RebuiltNodes),
		}}
		// Sanity: the recovered structure must answer reads.
		if cfg.Structure == "map" {
			m2, err := store2.Map("sel-map")
			if err != nil {
				return Row{}, Row{}, err
			}
			if m2.Len() == 0 {
				return Row{}, Row{}, fmt.Errorf("workloads: selective recovery lost the map")
			}
		} else {
			v2, err := store2.Vector("sel-vec")
			if err != nil {
				return Row{}, Row{}, err
			}
			if int(v2.Len()) != cfg.VectorPreload {
				return Row{}, Row{}, fmt.Errorf("workloads: selective recovery lost vector slots: len %d != %d",
					v2.Len(), cfg.VectorPreload)
			}
		}
	}
	return run, recovery, nil
}

// u64le encodes a uint64 as its 8 little-endian bytes — the fixed-width
// leaf value the selective hot path writes.
func u64le(x uint64) []byte {
	b := make([]byte, 8)
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
	return b
}
