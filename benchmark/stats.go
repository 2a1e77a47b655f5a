package main

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// segment is one timed slice of a workload: how many verified operations
// completed in it, how long it took on the wall clock, and every
// operation's latency in nanoseconds.
type segment struct {
	ops int
	dur time.Duration
	lat []int64
}

// percentile returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples
// at or below it. Zero for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle of vals (mean of the two middle values for an
// even count). vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := slices.Clone(vals)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quietFrac is the share of a run's segments its timing metrics are taken
// over: the quietest tenth, by median latency. This sandbox's neighbours
// halve the VM's speed for stretches of tens of milliseconds to seconds,
// several times a minute; a median over all segments then reports which
// of the two speeds happened to hold for more than half the run (measured
// on lib-map-write: medians of 8 s runs spread 29 % between their
// quartiles, the quietest tenth 7 %). A change to the program moves every
// segment, the quiet ones included, so nothing it does is hidden.
const quietFrac = 0.10

// timing summarizes a timed region: throughput and median latency over
// its quietest segments, pooled, and the 99th percentile over all of it.
type timing struct {
	opsPerS  float64
	p50us    float64
	p99us    float64
	segments int // segments in the run
	kept     int // segments opsPerS and p50us are taken over
	samples  int // latency samples in those
	all      int // latency samples in the run: p99us has all/100 beyond it
}

// summarize ranks segments by median latency, keeps the quietFrac quietest
// (at least one) and returns their pooled throughput and median latency.
// The 99th percentile is over every sample of the run: the tail is made of
// exactly the rare slow operations the quiet segments leave out. Segments
// with no completed operation are skipped (an open-loop window the run
// ended in).
func summarize(segs []segment) timing {
	type ranked struct {
		seg segment
		p50 int64
	}
	var (
		rs  []ranked
		all []int64
	)
	for _, s := range segs {
		if s.ops == 0 || s.dur <= 0 || len(s.lat) == 0 {
			continue
		}
		sorted := slices.Clone(s.lat)
		slices.Sort(sorted)
		rs = append(rs, ranked{s, percentile(sorted, 50)})
		all = append(all, s.lat...)
	}
	t := timing{segments: len(rs), all: len(all)}
	if len(rs) == 0 {
		return t
	}
	slices.Sort(all)
	t.p99us = float64(percentile(all, 99)) / 1e3
	slices.SortStableFunc(rs, func(a, b ranked) int { return cmp.Compare(a.p50, b.p50) })
	t.kept = max(1, int(math.Round(quietFrac*float64(len(rs)))))
	var (
		ops  int
		dur  time.Duration
		pool []int64
	)
	for _, r := range rs[:t.kept] {
		ops += r.seg.ops
		dur += r.seg.dur
		pool = append(pool, r.seg.lat...)
	}
	slices.Sort(pool)
	t.samples = len(pool)
	t.opsPerS = float64(ops) / dur.Seconds()
	t.p50us = float64(percentile(pool, 50)) / 1e3
	return t
}

// completion is one finished operation of a time-bounded workload: when
// it completed (offset from the start of the timed region) and its
// latency.
type completion struct {
	done time.Duration
	lat  int64
}

// bucket splits completions into n equal windows of the timed region by
// completion time, which is how the server workloads form their segments:
// a window's throughput is what actually finished inside it, so a growing
// backlog shows as a shortfall against the arrival rate.
func bucket(cs []completion, total time.Duration, n int) []segment {
	segs := make([]segment, n)
	win := total / time.Duration(n)
	for i := range segs {
		segs[i].dur = win
	}
	for _, c := range cs {
		i := int(c.done / win)
		if c.done < 0 || i >= n {
			continue // finished outside the timed region
		}
		segs[i].ops++
		segs[i].lat = append(segs[i].lat, c.lat)
	}
	return segs
}
