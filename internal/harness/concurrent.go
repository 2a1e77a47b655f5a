package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// ConcurrentReaderCounts is the reader sweep of the scaling experiment.
var ConcurrentReaderCounts = []int{1, 2, 4, 8}

// ConcurrentBenchConfig derives the concurrent workload size from a
// Scale: roughly Ops/2 lookups per reader and Ops/8 commits per writer
// keeps the experiment comparable to the single-threaded workload sizes.
func ConcurrentBenchConfig(scale Scale, readers int) workloads.ConcurrentConfig {
	return workloads.ConcurrentConfig{
		Readers:     readers,
		Writers:     2,
		Shards:      4,
		ReaderOps:   scale.Ops / 2,
		WriterOps:   scale.Ops / 8,
		PreloadKeys: scale.Ops / 16,
		Seed:        0x5eed,
	}
}

// concurrent measures aggregate throughput as reader goroutines are added
// alongside a fixed writer pool. Simulated elapsed time is the maximum
// per-goroutine clock, so scaling shows up as total operations growing
// while elapsed time stays roughly flat: snapshots are lock-free and
// never wait on committing writers. There is no paper analogue — MOD's
// evaluation is single-threaded — but the experiment demonstrates the
// concurrency its immutable committed versions enable. Goroutine
// interleaving makes the rows nondeterministic: informational.
func concurrent(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "concurrent",
		Title: "reader scaling: snapshot lookups during concurrent commits (MOD engine)",
		Note:  "2 writers over 4 sharded maps; elapsed = max per-goroutine simulated time",
		Header: []string{"readers", "read-ops", "write-ops", "elapsed-ms", "reads/s", "ops/s",
			"speedup"},
	}
	var rows []workloads.Row
	for _, readers := range ConcurrentReaderCounts {
		res, err := workloads.RunConcurrent(ConcurrentBenchConfig(scale, readers))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, res)
		t.AddRow(
			fmt.Sprintf("%d", readers),
			f0(res.Extra["read_ops"]),
			f0(res.Extra["write_ops"]),
			ms(res.ElapsedNs),
			f1(res.Rate(res.Extra["read_ops"])),
			f1(res.OpsPerSec()),
			fmt.Sprintf("%.2fx", res.OpsPerSec()/rows[0].OpsPerSec()),
		)
	}
	return t, rows, nil
}
