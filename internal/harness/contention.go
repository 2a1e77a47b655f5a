package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/workloads"
)

// ContentionWriterCounts sweeps same-root writer counts: 1 is the
// uncontended cost, 8 is the acceptance point (two-tier path must beat
// the mutex baseline by at least 2x), 16 shows the combining regime.
var ContentionWriterCounts = []int{1, 2, 4, 8, 16}

// ContentionBenchConfig derives the contention workload size from a
// Scale. Ops are split per writer so total committed work stays roughly
// constant across the sweep.
func ContentionBenchConfig(scale Scale, writers int, mutexBaseline bool) workloads.ContentionConfig {
	per := scale.Ops / 16
	if per < 200 {
		per = 200
	}
	return workloads.ContentionConfig{
		Writers:       writers,
		OpsPerWriter:  per,
		Keyspace:      512,
		MutexBaseline: mutexBaseline,
		Seed:          0x5eed,
	}
}

// Contention measures same-root writer scaling: W goroutines updating
// one shared map root serialized on a workload-level mutex versus racing
// on the two-tier optimistic CAS / flat-combining commit path (DESIGN.md
// §12). The mutex baseline's elapsed time grows linearly with W (the
// workload's serialized-section watermark makes Go mutex waits cost
// simulated time), so its aggregate ops/sec stays flat; the two-tier
// path builds shadows in parallel and publishes with an 8-byte CAS, so
// ops/sec scales with W while fences/op stays at or below the W=1 level.
func Contention(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "contention",
		Title: "same-root writer scaling: mutex-serialized writers vs optimistic CAS + flat combining",
		Note:  "W writers on one shared map root; elapsed = max per-goroutine simulated time",
		Header: []string{"writers", "ops", "mutex-ops/s", "cas-ops/s", "speedup",
			"cas-fences/op", "wins", "aborts", "losses", "combines", "combined"},
	}
	for _, w := range ContentionWriterCounts {
		mres, err := workloads.RunContention(ContentionBenchConfig(scale, w, true))
		if err != nil {
			return nil, err
		}
		cres, err := workloads.RunContention(ContentionBenchConfig(scale, w, false))
		if err != nil {
			return nil, err
		}
		speedup := 0.0
		if mres.OpsPerSec > 0 {
			speedup = cres.OpsPerSec / mres.OpsPerSec
		}
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", cres.Ops),
			f1(mres.OpsPerSec),
			f1(cres.OpsPerSec),
			fmt.Sprintf("%.2fx", speedup),
			f3(cres.FencesPerOp),
			fmt.Sprintf("%d", cres.Commit.FastWins),
			fmt.Sprintf("%d", cres.Commit.FastAborts),
			fmt.Sprintf("%d", cres.Commit.FastLosses),
			fmt.Sprintf("%d", cres.Commit.Combines),
			fmt.Sprintf("%d", cres.Commit.CombinedOps),
		)
	}
	return t, nil
}
