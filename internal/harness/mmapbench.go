package harness

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
	"github.com/mod-ds/mod/internal/workloads"
)

// The mmap-backend sweep: the five recoverable structures driven
// through the identical core.Open front door, but over a file-backed
// mmapdev device instead of the simulator. These rows answer "does the
// deployable backend still move" — they run on the wall clock (real
// msync, real scheduling), so benchdiff tracks their presence and never
// gates their values, exactly like the server sweep. The fence and
// flush counts are the same fence discipline the simulator measures;
// comparing fences/op across the two backends is the honest check that
// the ordering model transfers.

// MmapWorkloads lists the structures the mmap sweep drives, in report
// order.
var MmapWorkloads = []string{"map", "set", "vector", "stack", "queue"}

// RunMmapBench runs ops operations of the named structure workload over
// a fresh file-backed store in dir (a temp dir when empty). It returns
// mmapdev.ErrUnsupported on platforms without the backend.
func RunMmapBench(workload string, ops int, dir string) (workloads.Row, error) {
	var res workloads.Row
	if dir == "" {
		d, err := os.MkdirTemp("", "modbench-mmap")
		if err != nil {
			return res, err
		}
		defer os.RemoveAll(d)
		dir = d
	}
	// Shadow updates allocate fresh nodes per FASE; size the arena to
	// the workload instead of modeling the allocator.
	size := int64(ops)*2048 + (32 << 20)
	dev, err := mmapdev.Create(filepath.Join(dir, workload+".pm"), size)
	if err != nil {
		return res, err
	}
	defer dev.Close()
	db, _, err := core.Open(pmem.Config{}, core.WithDevices(dev))
	if err != nil {
		return res, err
	}
	defer db.Close()

	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
	val := func(i int) []byte { return []byte(fmt.Sprintf("val-%08d", i)) }
	start := time.Now()
	before := dev.Stats()
	switch workload {
	case "map":
		m, err := db.Map("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			m.Set(key(i), val(i))
		}
	case "set":
		s, err := db.Set("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			s.Insert(key(i))
		}
	case "vector":
		v, err := db.Vector("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			v.Push(uint64(i))
		}
	case "stack":
		s, err := db.Stack("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			s.Push(uint64(i))
		}
	case "queue":
		q, err := db.Queue("bench")
		if err != nil {
			return res, err
		}
		for i := 0; i < ops; i++ {
			q.Enqueue(uint64(i))
		}
	default:
		return res, fmt.Errorf("mmap bench: unknown workload %q", workload)
	}
	db.Sync()
	return workloads.NewRow("mmap/"+workload, ops, dev.Stats().Sub(before),
		float64(time.Since(start).Nanoseconds())), nil
}

// mmapSweep renders the sweep as a table (experiment "mmap").
func mmapSweep(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:     "mmap",
		Title:  "mmap backend: the five structures over a file-backed mmapdev store",
		Note:   "Wall-clock time with real msync (nondeterministic); fences/op is the column to compare with the simulator's.",
		Header: []string{"workload", "ops", "elapsed-ms", "ops/s", "fences/op", "flushes/op"},
	}
	var rows []workloads.Row
	for _, workload := range MmapWorkloads {
		res, err := RunMmapBench(workload, scale.Ops, "")
		if err != nil {
			return nil, nil, fmt.Errorf("mmap %s: %w", workload, err)
		}
		rows = append(rows, res)
		t.AddRow(workload, fmt.Sprintf("%d", res.Ops), ms(res.ElapsedNs), f1(res.OpsPerSec()),
			f3(res.FencesPerOp()), f2(res.FlushesPerOp()))
	}
	return t, rows, nil
}
