package workloads

import (
	"fmt"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// Transient (edit-context) workload. A fixed budget of updates — map sets
// on a preloaded trie interleaved with vector pushes — is committed
// through core.Batch at a swept ops-per-FASE. Every batch runs inside one
// edit context (DESIGN.md §8), so the first operation on a root copies
// its path and every subsequent operation mutates the edit-owned shadow
// in place: copies/op and flushes/op fall with the FASE size, which is
// the copy-elision claim BENCH.json tracks. ops-per-FASE = 1 is the
// baseline where every operation pays full shadow cost.
//
// Single-goroutine and deterministic, so cmd/benchdiff gates its rows.

// TransientConfig parameterizes one transient measurement.
type TransientConfig struct {
	// OpsPerFASE is the number of updates per edit/batch (1 = a full
	// shadow per operation, the unbatched baseline).
	OpsPerFASE int
	// Ops is the total number of committed updates.
	Ops int
	// PreloadKeys preloads the map and sizes the update keyspace (2x).
	PreloadKeys int
	// VectorPreload is the initial vector length.
	VectorPreload int
	// Seed drives the deterministic operation stream.
	Seed uint64
	// ArenaBytes sizes the device (0 = automatic).
	ArenaBytes int64
}

func (c *TransientConfig) defaults() {
	if c.OpsPerFASE <= 0 {
		c.OpsPerFASE = 1
	}
	if c.Ops <= 0 {
		c.Ops = 4000
	}
	if c.PreloadKeys <= 0 {
		c.PreloadKeys = 512
	}
	if c.VectorPreload <= 0 {
		c.VectorPreload = 1024
	}
	if c.Seed == 0 {
		c.Seed = 0xed17
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = int64(c.Ops)*2048 + int64(c.PreloadKeys)*512 +
			int64(c.VectorPreload)*64 + (64 << 20)
	}
}

// RunTransient executes the transient workload and returns its
// measurement. Extra: copies (node allocations: path copies + headers +
// bindings), copies_elided (in-place mutations that avoided a node copy),
// flushes_saved (clwbs avoided by flush-set deduplication).
func RunTransient(cfg TransientConfig) (Row, error) {
	cfg.defaults()
	db, _, err := core.Open(pmem.DefaultConfig(cfg.ArenaBytes))
	if err != nil {
		return Row{}, err
	}
	defer db.Close()
	store := db.Store()
	dev := store.Device()

	m, err := store.Map("transient-map")
	if err != nil {
		return Row{}, err
	}
	v, err := store.Vector("transient-vec")
	if err != nil {
		return Row{}, err
	}
	r := rng{state: cfg.Seed}
	for k := 0; k < cfg.PreloadKeys; k++ {
		m.Set([]byte(fmt.Sprintf("key-%06d", k)), []byte(fmt.Sprintf("val-%016x", r.next())))
	}
	for i := 0; i < cfg.VectorPreload; i++ {
		v.Push(r.next())
	}
	store.Sync()
	statsBase := dev.Stats()
	allocBase := store.Heap().Stats()
	nsBase := dev.LocalNs()

	b := store.NewBatch()
	for i := 0; i < cfg.Ops; i++ {
		if i&1 == 0 {
			key := fmt.Sprintf("key-%06d", r.intn(uint64(cfg.PreloadKeys*2)))
			val := fmt.Sprintf("val-%016x", r.next())
			b.MapSet(m, []byte(key), []byte(val))
		} else {
			b.VectorPush(v, r.next())
		}
		if b.Len() >= cfg.OpsPerFASE {
			b.Commit()
		}
	}
	b.Commit()

	d := dev.Stats().Sub(statsBase)
	res := NewRow(fmt.Sprintf("transient/b%d", cfg.OpsPerFASE), cfg.Ops, d, dev.LocalNs()-nsBase)
	res.Extra["copies"] = float64(store.Heap().Stats().Allocs - allocBase.Allocs)
	res.Extra["copies_elided"] = float64(d.CopiesElided)
	res.Extra["flushes_saved"] = float64(d.FlushesSaved)
	store.Sync()
	return res, nil
}
