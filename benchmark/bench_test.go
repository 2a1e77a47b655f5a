package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// ---- arithmetic ----

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {99, 100}, {90, 90}, {91, 100}, {10, 10}, {1, 10}, {100, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// Throughput and median latency come from the quietest tenth of the
// segments, pooled: with most of a run disturbed they must still read the
// undisturbed speed. The 99th percentile is over the whole run. The counts
// must say how much data is behind each.
func TestSummarizeKeepsTheQuietestSegments(t *testing.T) {
	lat := func(n int, ns int64) []int64 {
		l := make([]int64, n)
		for i := range l {
			l[i] = ns
		}
		return l
	}
	segs := []segment{{ops: 0, dur: time.Second}} // empty: skipped
	for i := 0; i < 20; i++ {
		if i%10 == 3 { // two quiet segments among eighteen at half speed
			segs = append(segs, segment{ops: 1000, dur: time.Second, lat: lat(1000, 2000)})
		} else {
			segs = append(segs, segment{ops: 1000, dur: 2 * time.Second, lat: lat(1000, 4000)})
		}
	}
	got := summarize(segs)
	if got.opsPerS != 1000 || got.p50us != 2 || got.p99us != 4 {
		t.Errorf("summary %+v, want 1000 ops/s, p50 2 us, p99 4 us", got)
	}
	if got.segments != 20 || got.kept != 2 || got.samples != 2000 || got.all != 20000 {
		t.Errorf("counts %+v, want 20 segments, 2 kept, 2000 of 20000 samples", got)
	}
	if one := summarize(segs[:4]); one.kept != 1 {
		t.Errorf("kept %d of 3 segments, want at least 1", one.kept)
	}
}

func TestBucketByCompletionTime(t *testing.T) {
	cs := []completion{
		{done: 100 * time.Millisecond, lat: 1}, {done: 900 * time.Millisecond, lat: 2},
		{done: 1500 * time.Millisecond, lat: 3}, {done: 2500 * time.Millisecond, lat: 4}, // after the region
		{done: -time.Millisecond, lat: 5}, // before it
	}
	segs := bucket(cs, 2*time.Second, 2)
	if segs[0].ops != 2 || segs[1].ops != 1 || segs[0].dur != time.Second {
		t.Errorf("buckets %+v", segs)
	}
}

// ---- open-loop pacer ----

// fakeClock advances only when the pacer sleeps or yields.
type fakeClock struct {
	now            time.Time
	slept          time.Duration
	yields         int
	oversleep, hop time.Duration
}

func (f *fakeClock) pacer(start time.Time, rate float64) *pacer {
	p := newPacer(start, rate)
	p.now = func() time.Time { return f.now }
	p.sleep = func(d time.Duration) { f.slept += d; f.now = f.now.Add(d + f.oversleep) }
	p.yield = func() { f.yields++; f.now = f.now.Add(f.hop) }
	return p
}

func TestPacerSchedule(t *testing.T) {
	start := time.Unix(1000, 0)
	p := newPacer(start, 4000)
	if p.interval != 250*time.Microsecond {
		t.Fatalf("interval %v, want 250us", p.interval)
	}
	if got := p.due(4000); !got.Equal(start.Add(time.Second)) {
		t.Errorf("due(4000) = %v, want start+1s", got.Sub(start))
	}
}

func TestPacerSleepsThenSpinsAndReportsLateness(t *testing.T) {
	start := time.Unix(1000, 0)
	f := &fakeClock{now: start, oversleep: 300 * time.Microsecond, hop: 7 * time.Microsecond}
	p := f.pacer(start, 100) // 10 ms apart
	due := p.due(1)
	sent := p.wait(due)
	if f.slept != 8*time.Millisecond {
		t.Errorf("slept %v, want 8ms (to within the 2ms spin window)", f.slept)
	}
	if f.yields == 0 {
		t.Error("never yield-spun for the rest")
	}
	if late := sent.Sub(due); late < 0 || late >= f.hop {
		t.Errorf("lateness %v, want within one yield hop of 0", late)
	}
	// A due time already past (the previous request overran) neither
	// sleeps nor spins, and the lateness is the whole overrun.
	f2 := &fakeClock{now: start.Add(25 * time.Millisecond)}
	if sent := f2.pacer(start, 100).wait(start.Add(10 * time.Millisecond)); f2.slept != 0 || f2.yields != 0 || sent.Sub(start) != 25*time.Millisecond {
		t.Errorf("overrun: slept %v, yields %d, sent at +%v", f2.slept, f2.yields, sent.Sub(start))
	}
}

// ---- spans ----

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Op: 1, Name: "client.op", Start: 0, End: 100},
		{Op: 1, Name: "core.op", Parent: "client.op", Start: 10, End: 90},
		{Op: 1, Name: "pmem.read", Parent: "core.op", Start: 20, End: 30},
		{Op: 1, Name: "pmem.read", Parent: "core.op", Start: 25, End: 40},  // overlaps the first: union 20..40
		{Op: 1, Name: "pmem.fence", Parent: "core.op", Start: 80, End: 95}, // clipped to the parent's end
		{Op: 2, Name: "client.op", Start: 200, End: 210},                   // no children
		{Op: 2, Name: "pmem.read", Parent: "core.op", Start: 0, End: 5},    // another op's child: not op 1's
	}
	got := selfTimes(spans)
	want := map[string]int64{"client.op": 20 + 10, "core.op": 80 - 20 - 10, "pmem.read": 10 + 15 + 5, "pmem.fence": 15}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// ---- generator ----

func TestGeneratorsArePureFunctionsOfTheSeed(t *testing.T) {
	gens := map[string]func(seed int64) generator{
		"map-write": func(s int64) generator { return newMapWriteGen(s, 1000) },
		"map-read":  func(s int64) generator { return newMapReadGen(s, 1000) },
		"compose":   func(s int64) generator { return newComposeGen(s, 1000, 100, 10) },
		"srv-set":   func(s int64) generator { return newSrvSetGen(s, 1024, 1, 2) },
		"srv-mixed": func(s int64) generator { return newSrvMixedGen(s, 1024) },
	}
	for name, mk := range gens {
		a, b, c := take(mk(7), 2000), take(mk(7), 2000), take(mk(8), 2000)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed, different operations", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds, same operations", name)
		}
	}
	if !reflect.DeepEqual(preloadValues(7, 100), preloadValues(7, 100)) {
		t.Error("preload values differ under one seed")
	}
}

func TestWorkloadMixes(t *testing.T) {
	count := func(ops []op) map[opKind]int {
		n := make(map[opKind]int)
		for _, o := range ops {
			n[o.kind]++
		}
		return n
	}
	const n = 20000
	near := func(what string, got int, frac float64) {
		t.Helper()
		if want := frac * n; float64(got) < want*0.9 || float64(got) > want*1.1 {
			t.Errorf("%s: %d of %d, want about %.0f", what, got, n, want)
		}
	}
	w := count(take(newMapWriteGen(1, 1000), n))
	near("map-write deletes", w[opDelete], 0.10)
	near("map-write sets", w[opSet], 0.90)
	r := take(newMapReadGen(1, 1000), n)
	near("map-read sets", count(r)[opSet], 0.05)
	misses := 0
	for _, o := range r {
		if o.kind == opGet && o.key >= missBase {
			misses++
		}
	}
	near("map-read misses", misses, 0.095)
	c := count(take(newComposeGen(1, 1000, 100, 10), n))
	near("compose swaps", c[opVecSwap], 0.5)
	near("compose unrelated", c[opUnrelated], 0.3)
	near("compose batches", c[opBatch], 0.2)
	m := count(take(newSrvMixedGen(1, 1024), n))
	near("mixed gets", m[opGet], 0.9)
	near("mixed multis", m[opMulti], 0.1/8)
	// srv-set connections never share a key.
	for _, o := range take(newSrvSetGen(1, 1024, 1, 2), 1000) {
		if o.key%2 != 1 || o.key >= 1024 {
			t.Fatalf("connection 1 of 2 drew key %d", o.key)
		}
	}
}

// ---- model ----

func TestModelRevertsLastOperationWhole(t *testing.T) {
	m := newModel()
	m.vec = []uint64{1, 2, 3}
	m.queue = []uint64{7, 8}
	m.apply(op{kind: opSet, key: 1, val: []byte("a")})
	m.apply(op{kind: opBatch, sub: []op{
		{kind: opVecUpdate, idx: 0, u: 9}, {kind: opSet, key: 1, val: []byte("b")}, {kind: opSet, key: 2, val: []byte("c")},
		{kind: opEnqueue, u: 9}, {kind: opDequeue},
	}})
	m.revertLast()
	if !reflect.DeepEqual(m.vec, []uint64{1, 2, 3}) || !reflect.DeepEqual(m.queue, []uint64{7, 8}) ||
		string(m.kv[1]) != "a" || len(m.kv) != 1 {
		t.Errorf("after revert: vec %v queue %v kv %v", m.vec, m.queue, m.kv)
	}
}

// ---- backend decorator ----

func mapSets(t *testing.T, wrap func(pmem.Backend) pmem.Backend) (pmem.Stats, *stack) {
	t.Helper()
	e := &env{seed: 3, dir: t.TempDir()}
	x, err := setupLibMap(e, false, 200, wrap)
	if err != nil {
		t.Fatal(err)
	}
	ops := take(newMapWriteGen(3, 200), 1000)
	prepare(ops, x.mod)
	for i := range ops {
		if !x.exec(&ops[i], nil) {
			t.Fatalf("operation %d read back wrong", i)
		}
	}
	return x.st.db.Stats(), x.st
}

func TestDecoratorLeavesDeviceCountersAlone(t *testing.T) {
	plain, st := mapSets(t, nil)
	st.close()
	tr := newTracer()
	traced, st := mapSets(t, tr.wrap)
	defer st.close()
	if plain.Fences != traced.Fences || plain.Flushes != traced.Flushes || plain.BytesWritten != traced.BytesWritten {
		t.Errorf("undecorated fences/flushes/bytes %d/%d/%d, decorated %d/%d/%d",
			plain.Fences, plain.Flushes, plain.BytesWritten, traced.Fences, traced.Flushes, traced.BytesWritten)
	}
	if got := uint64(tr.main.calls[callFence].Load()); got != traced.Fences {
		t.Errorf("decorator saw %d fences, device counted %d", got, traced.Fences)
	}
	if tr.main.ns[callRead].Load() <= 0 || tr.main.busy() <= 0 {
		t.Error("decorator timed nothing")
	}
}

func TestDecoratorRewrapsFork(t *testing.T) {
	tr := newTracer()
	root := tr.wrap(pmem.New(pmem.DefaultConfig(1 << 20)))
	tr.forkGroup.Store(&tr.committer)
	f, ok := root.Fork().(*tracedBackend)
	if !ok {
		t.Fatalf("Fork returned %T, not the decorator", root.Fork())
	}
	f.WriteU64(64, 1)
	f.Sfence()
	if tr.committer.calls[callWrite].Load() != 1 || tr.committer.calls[callFence].Load() != 1 || tr.main.busy() != 0 {
		t.Error("a fork's calls did not land in the group current when it was made")
	}
	tr.forkGroup.Store(&tr.conn)
	if g, ok := f.Fork().(*tracedBackend); !ok || g.acc != &tr.conn {
		t.Error("a fork of a fork lost the decorator or its group")
	}
}

// ---- filesystem refusal ----

func TestMemoryFilesystemIsRefused(t *testing.T) {
	if fs, err := fsType("/dev/shm"); err != nil || fs != "tmpfs" {
		t.Skipf("/dev/shm is not a tmpfs here (%q, %v)", fs, err)
	}
	if err := refuseMemoryFS("/dev/shm", "tmpfs"); !errors.Is(err, errMemoryFS) {
		t.Errorf("refuseMemoryFS(tmpfs) = %v, want errMemoryFS", err)
	}
	if err := refuseMemoryFS("/somewhere", "ext4"); err != nil {
		t.Errorf("refuseMemoryFS(ext4) = %v, want nil", err)
	}
	if _, _, _, err := prepareEnv(1, 1, false, "/dev/shm/mod-benchmark-test", true); !errors.Is(err, errMemoryFS) {
		t.Errorf("prepareEnv on tmpfs = %v, want errMemoryFS", err)
	}
	os.Remove("/dev/shm/mod-benchmark-test")
}

// ---- the correctness check itself ----

// srvRun drives a small server workload by hand and runs the end-of-run
// checks.
func srvRun(t *testing.T, f fault) *report {
	t.Helper()
	e := &env{seed: 5, dir: t.TempDir()}
	spec := srvSpec{keys: 512, conns: 1, gen: func(seed int64, conn int) generator { return newSrvMixedGen(seed, 512) }}
	x, err := setupSrv(e, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer x.close()
	c := x.conns[0]
	for i := 0; i < 300; i++ {
		o := c.nextOp()
		c.issue(&o, time.Now())
	}
	c.fault = f
	multi := op{kind: opMulti, sub: []op{
		{kind: opSet, key: 1, val: []byte("m1")}, {kind: opSet, key: 2, val: []byte("m2")},
		{kind: opSet, key: 3, val: []byte("m3")}, {kind: opSet, key: 4, val: []byte("m4")}}}
	set := op{kind: opSet, key: 9, val: []byte("dropped?")}
	for _, o := range []*op{&multi, &set} {
		fillKeys(o)
		c.issue(o, time.Now())
	}
	rep := newReport("test")
	rep.attempted, rep.failed = c.attempted, c.failed
	chk, err := crashCheck(e, x.st, x.merged(), srvView, false, false, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep.count(chk.live)
	rep.count(chk.recovered)
	if f == faultTornMulti && chk.recovered.torn != 1 {
		t.Errorf("torn MULTIs found: %d, want 1", chk.recovered.torn)
	}
	return rep
}

func TestCheckPassesAnHonestServer(t *testing.T) {
	rep := srvRun(t, faultNone)
	if rep.failed != 0 || exitCode([]resultRow{row(rep, false)}) != 0 {
		t.Errorf("honest run: failed %d of %d: %v", rep.failed, rep.attempted, rep.notes)
	}
}

func TestCheckCatchesDroppedAcknowledgedWrite(t *testing.T) {
	rep := srvRun(t, faultDropAck)
	r := row(rep, false)
	if rep.failed == 0 || r.Extra["fail_frac"].Value <= 0 || exitCode([]resultRow{r}) == 0 {
		t.Errorf("a dropped acknowledged write went unnoticed: failed %d, fail_frac %v", rep.failed, r.Extra["fail_frac"].Value)
	}
}

func TestCheckCatchesTornMulti(t *testing.T) {
	rep := srvRun(t, faultTornMulti)
	r := row(rep, false)
	if rep.failed == 0 || r.Extra["fail_frac"].Value <= 0 || exitCode([]resultRow{r}) == 0 {
		t.Errorf("a torn MULTI went unnoticed: failed %d, fail_frac %v", rep.failed, r.Extra["fail_frac"].Value)
	}
}

// A library store that lacks exactly its final FASE passes the crash
// read-back (see model.undo); one that lacks an earlier write does not.
func TestLibraryCrashCheck(t *testing.T) {
	e := &env{seed: 11, dir: t.TempDir()}
	x, err := setupLibMap(e, false, 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer x.st.close()
	ops := take(newMapWriteGen(11, 300), 400)
	prepare(ops, x.mod)
	for i := range ops {
		x.exec(&ops[i], nil)
	}
	chk, err := crashCheck(e, x.st, x.mod, x.view, false, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if chk.live.failed != 0 || chk.recovered.failed != 0 {
		t.Errorf("clean run failed its read-back: live %+v recovered %+v", chk.live, chk.recovered)
	}
	if !chk.info.Recovered || chk.recoverMs <= 0 {
		t.Errorf("no recovery was timed: %+v, %v ms", chk.info, chk.recoverMs)
	}
	x.mod.kv[0] = []byte("never written")
	if v := x.mod.compareRecovered(mustView(t, x, x.st.db), true); v.failed == 0 {
		t.Error("a write the store never saw passed the read-back")
	}
}

func mustView(t *testing.T, x libInstance, db *core.DB) view {
	t.Helper()
	v, err := x.view(db)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// ---- the contract ----

// BENCHMARK.json must name exactly the workloads and metrics this program
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	var c struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &c); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(c.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", c.Command, c.Paths)
	}
	var gated []workloadDef
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(c.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated here", len(c.Workloads), len(gated))
	}
	for i, w := range gated {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, spec has %q (or their reasons differ)", i, c.Workloads[i].Name, w.name)
		}
	}
	var e2e, layer []metricDef
	for _, m := range c.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range c.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end differs from the spec:\n json %v\n spec %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layer, perLayer) {
		t.Errorf("per_layer differs from the spec:\n json %v\n spec %v", layer, perLayer)
	}
}

func TestCompareFlagsDifferencesBeyondTheBound(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		buf, _ := json.Marshal(v)
		p := dir + "/" + name
		if err := os.WriteFile(p, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	file := func(p50 float64) resultFile {
		r := resultRow{Workload: "w"}
		r.Correct, r.Attempted = true, 1
		r.Metrics = map[string]metricOut{"p50_us": {Value: p50, Unit: "us"}}
		return resultFile{Workloads: []resultRow{r}}
	}
	c := write("contract.json", map[string]any{
		"workloads":  []map[string]any{{"name": "w"}},
		"end_to_end": []map[string]any{{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}}})
	ungated := write("ungated.json", map[string]any{
		"workloads":  []map[string]any{{"name": "another"}},
		"end_to_end": []map[string]any{{"name": "p50_us", "unit": "us", "better": "lower", "bound": 0.1}}})
	a, near, far := write("a.json", file(100)), write("near.json", file(108)), write("far.json", file(112))
	null, _ := os.Open(os.DevNull)
	defer null.Close()
	if code := compareFiles(null, a, near, c); code != 0 {
		t.Errorf("8 %% apart under a 10 %% bound: exit %d, want 0", code)
	}
	if code := compareFiles(null, a, far, c); code != 1 {
		t.Errorf("12 %% apart under a 10 %% bound: exit %d, want 1", code)
	}
	if code := compareFiles(null, a, far, ungated); code != 0 {
		t.Errorf("a workload the contract does not list decided the exit code: %d", code)
	}
}
