package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// env is what one invocation passes to every workload it runs.
type env struct {
	seed    int64
	seconds float64 // timed work per workload
	trace   bool
	dir     string // scratch directory for store files, on a disk-backed filesystem
	outDir  string // where span files go
}

// Set-up and recovery are single events a run would otherwise have one
// noisy sample of. A run sets its store up at least setupMinReps times,
// until it has spent setupMinTime on it (at most setupMaxReps times), and
// reports the median; it reopens its crash image recoverReps times and
// reports the fastest, for the reason summarize keeps the quietest
// segments.
const (
	setupMinReps = 5
	setupMaxReps = 7
	setupMinTime = 2 * time.Second
	recoverReps  = 10
)

// repeatSetup runs setup as the constants above say, closing every
// instance but the last, and returns the last with the median set-up time
// in seconds.
func repeatSetup[T any](setup func() (T, error), closeFn func(T) error) (T, float64, error) {
	var (
		inst  T
		times []float64
		total time.Duration
	)
	for len(times) < setupMinReps || (total < setupMinTime && len(times) < setupMaxReps) {
		if len(times) > 0 {
			if err := closeFn(inst); err != nil {
				return inst, 0, err
			}
		}
		runtime.GC() // the previous instance's arenas
		t0 := time.Now()
		var err error
		if inst, err = setup(); err != nil {
			return inst, 0, err
		}
		d := time.Since(t0)
		total += d
		times = append(times, d.Seconds())
	}
	return inst, median(times), nil
}

// report is one workload's result.
type report struct {
	workload  string
	attempted int64 // timed operations plus every read-back comparison
	failed    int64
	values    map[string]float64
	samples   map[string]int // for timing metrics: latency samples behind the figure
	notes     []string
}

func newReport(workload string) *report {
	return &report{workload: workload, values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) setTiming(t timing) {
	r.set("ops_per_s", t.opsPerS)
	r.set("p50_us", t.p50us)
	r.set("p99_us", t.p99us)
	r.samples["ops_per_s"], r.samples["p50_us"], r.samples["p99_us"] = t.samples, t.samples, t.all
	r.note("timing: ops_per_s and p50_us over the quietest %d of %d segments (%d latency samples); p99_us over all %d samples (%d beyond it)",
		t.kept, t.segments, t.samples, t.all, t.all/100)
}

func (r *report) count(v verdict) {
	r.attempted += v.checked
	r.failed += v.failed
	if v.failed > 0 {
		r.note("FAILED read-back: %d of %d comparisons, %d torn MULTIs; first: %s", v.failed, v.checked, v.torn, v.first)
	}
}

// allocDelta is the allocator's activity over an interval.
type allocDelta struct{ allocs, frees, bytes uint64 }

func subAlloc(a, b alloc.Stats) allocDelta {
	return allocDelta{a.Allocs - b.Allocs, a.Frees - b.Frees, a.CumBytes - b.CumBytes}
}

// setCounts fills the per-operation device counts.
func (r *report) setCounts(dev pmem.Stats, ops int64) {
	n := float64(ops)
	r.set("fences_per_op", float64(dev.Fences)/n)
	r.set("flushes_per_op", float64(dev.Flushes)/n)
	r.set("pm_bytes_per_op", float64(dev.BytesWritten)/n)
}

// crashResult is the outcome of the end-of-run checks.
type crashResult struct {
	live, recovered verdict
	recoverMs       float64
	info            core.RecoveryInfo
}

// crashCheck reads the live store back against the model, then — before
// any Close or Sync — takes a crash image, reopens it through core.Open
// (reps times, keeping the fastest) and reads that back too.
func crashCheck(e *env, st *stack, mod *model, mkView func(*core.DB) (view, error), mmap, lastMayBeLost bool, reps int) (crashResult, error) {
	var res crashResult
	live, err := mkView(st.db)
	if err != nil {
		return res, err
	}
	res.live = mod.compare(live)
	img := st.crashImage(e.seed)
	var ms []float64
	for i := 0; i < reps; i++ {
		runtime.GC() // the previous image's arenas; keeps collection out of the timed reopen
		re, info, took, err := reopen(img, mmap, e.dir)
		if err != nil {
			return res, err
		}
		ms = append(ms, float64(took)/1e6)
		if i == 0 {
			res.info = info
			rv, err := mkView(re.db)
			if err != nil {
				re.close()
				return res, err
			}
			res.recovered = mod.compareRecovered(rv, lastMayBeLost)
		}
		if err := re.close(); err != nil {
			return res, err
		}
	}
	res.recoverMs = slices.Min(ms)
	return res, nil
}

// spaceAmp is bytes in live allocator blocks per byte of live user data.
func spaceAmp(st *stack, mod *model) float64 {
	return float64(st.db.Store().Heap().Stats().LiveBytes) / float64(mod.userBytes())
}

// runLib runs one library workload end to end.
func runLib(e *env, name string, spec libSpec) (*report, error) {
	if e.trace {
		return traceLib(e, name, spec)
	}
	rep := newReport(name)
	var gen generator
	inst, setupS, err := repeatSetup(
		func() (inst libInstance, err error) { inst, gen, err = spec.setup(e, nil); return },
		func(inst libInstance) error { return inst.stack().close() })
	if err != nil {
		return nil, err
	}
	defer inst.stack().close()
	rep.set("setup_s", setupS)

	segs, counts, failed := measureLib(inst, gen, spec, e.seconds, nil)
	for _, s := range segs {
		rep.attempted += int64(s.ops)
	}
	rep.failed += failed
	rep.setTiming(summarize(segs))
	rep.setCounts(counts.dev, counts.ops)
	if !spec.mmap {
		rep.set("sim_ns_per_op", counts.dev.TotalNs/float64(counts.ops))
	}
	rep.note("counts: over the first %d timed operations", counts.ops)
	rep.set("space_amp", spaceAmp(inst.stack(), inst.model()))

	chk, err := crashCheck(e, inst.stack(), inst.model(), inst.view, spec.mmap, true, recoverReps)
	if err != nil {
		return nil, err
	}
	rep.count(chk.live)
	rep.count(chk.recovered)
	rep.set("recover_ms", chk.recoverMs)
	return rep, nil
}

// goCounters snapshots the Go runtime's allocation and collection
// counters.
type goCounters struct {
	mallocs, bytes, pauseNs uint64
	cycles                  uint32
}

func readGo() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{m.Mallocs, m.TotalAlloc, m.PauseTotalNs, m.NumGC}
}

// peakRSSMB is the process's resident-set high-water mark, from
// /proc/self/status (0 where that does not exist).
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}
