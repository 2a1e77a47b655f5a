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

// contention measures same-root writer scaling: W goroutines updating
// one shared map root serialized on a workload-level mutex versus racing
// on the two-tier optimistic CAS / flat-combining commit path (DESIGN.md
// §12). The mutex baseline's elapsed time grows linearly with W (the
// workload's serialized-section watermark makes Go mutex waits cost
// simulated time), so its aggregate ops/sec stays flat; the two-tier
// path builds shadows in parallel and publishes with an 8-byte CAS, so
// ops/sec scales with W. The mutex rows' totals are deterministic and
// gate against the baseline within tolerance; the cas rows depend on
// which operations really interleave, so they are held to the absolute
// floors of contentionFloors instead.
func contention(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "contention",
		Title: "same-root writer scaling: mutex-serialized writers vs optimistic CAS + flat combining",
		Note:  "W writers on one shared map root; elapsed = max per-goroutine simulated time",
		Header: []string{"writers", "ops", "mutex-ops/s", "cas-ops/s", "speedup",
			"cas-fences/op", "wins", "aborts", "losses", "combines", "combined"},
	}
	var rows []workloads.Row
	for _, w := range ContentionWriterCounts {
		mres, err := workloads.RunContention(ContentionBenchConfig(scale, w, true))
		if err != nil {
			return nil, nil, err
		}
		mres.Gate = workloads.GateRatio
		cres, err := workloads.RunContention(ContentionBenchConfig(scale, w, false))
		if err != nil {
			return nil, nil, err
		}
		cres.Extra["writers"] = float64(w)
		cres.Extra["speedup"] = cres.OpsPerSec() / mres.OpsPerSec()
		rows = append(rows, mres, cres)
		t.AddRow(
			fmt.Sprintf("%d", w),
			fmt.Sprintf("%d", cres.Ops),
			f1(mres.OpsPerSec()),
			f1(cres.OpsPerSec()),
			fmt.Sprintf("%.2fx", cres.Extra["speedup"]),
			f3(cres.FencesPerOp()),
			f0(cres.Extra["fast_wins"]),
			f0(cres.Extra["fast_aborts"]),
			f0(cres.Extra["fast_losses"]),
			f0(cres.Extra["combines"]),
			f0(cres.Extra["combined_ops"]),
		)
	}
	return t, rows, nil
}

// contentionFloors returns what a cas row of the contention sweep
// violates, if anything. Its values depend on the schedule — whether two
// operations interleave in real time decides whether they conflict — so
// nothing is compared to a baseline; both regimes (no overlap at all,
// real overlap) satisfy:
//
//   - at W >= 8 the two-tier path beats the mutex baseline by >= 2x in
//     ops per simulated second;
//   - every fence belongs to exactly one publication or one CAS lost
//     after its fence: fences == wins + losses + combines + locked
//     commits. Scaling comes from parallel shadow builds and combining,
//     never from a skipped ordering point, and none is unaccounted.
func contentionFloors(r workloads.Row) []string {
	var broken []string
	if r.Extra["writers"] >= 8 && r.Extra["speedup"] < 2 {
		broken = append(broken, fmt.Sprintf("%s: speedup %.2fx below the 2x same-root scaling floor", r.Key, r.Extra["speedup"]))
	}
	publications := r.Extra["fast_wins"] + r.Extra["fast_losses"] + r.Extra["combines"] + r.Extra["locked_commits"]
	if float64(r.Fences) != publications {
		broken = append(broken, fmt.Sprintf("%s: %d fences for %.0f publications and post-fence losses (wins %.0f + losses %.0f + combines %.0f + locked %.0f)",
			r.Key, r.Fences, publications, r.Extra["fast_wins"], r.Extra["fast_losses"], r.Extra["combines"], r.Extra["locked_commits"]))
	}
	return broken
}
