package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/pmem"
)

// Tracing is done from outside the program: a decorator around the
// pmem.Backend the store is opened on, a server.Middleware around the
// command handler, a net.Conn wrapper around the pipe listener's
// connections, and timestamps around the benchmark's own calls into
// core. Nothing inside the repo's packages is touched, and the
// end-to-end metrics never come from a traced run.

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent names the span that caused this one ("" for the root).
// Times are nanoseconds since the tracer was created.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// selfTimes returns, per span name, the summed self time of spans: a
// span's duration minus the part of it its child spans cover. Children
// are matched by (Op, Parent name) and may overlap one another.
func selfTimes(spans []span) map[string]int64 {
	type key struct {
		op   int64
		name string
	}
	children := make(map[key][]span)
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Op, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[key{s.Op, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, end := int64(0), s.Start
		for _, c := range kids {
			lo, hi := max(c.Start, end), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// callKind classes backend calls for the per-op accumulators.
type callKind int

const (
	callRead callKind = iota
	callWrite
	callFlush
	callFence
	callCas
	numCallKinds
)

var callNames = [numCallKinds]string{"pmem.read", "pmem.write", "pmem.flush", "pmem.fence", "pmem.cas"}

// callAcc accumulates backend calls by kind: how many, and how long the
// caller was inside them on the host clock.
type callAcc struct {
	calls, ns [numCallKinds]atomic.Int64
}

// reset zeroes the accumulator, so that what follows a store's set-up is
// counted from nothing.
func (a *callAcc) reset() {
	for k := range a.calls {
		a.calls[k].Store(0)
		a.ns[k].Store(0)
	}
}

func (a *callAcc) busy() int64 {
	var n int64
	for k := range a.ns {
		n += a.ns[k].Load()
	}
	return n
}

// tracer owns a traced run's spans and backend accumulators. Backend
// handles are grouped by who uses them: the handle core.Open is given is
// "main" (everything on the single-goroutine workloads), and each Fork
// joins whatever group is current when it is made — the benchmark sets
// "committer" around core.Open(WithCommitter) and "conn" once the server
// is accepting, which is how the committer's backend work, which has no
// request as its parent, is told apart from the connections'.
type tracer struct {
	t0        time.Time
	main      callAcc
	committer callAcc
	conn      callAcc
	forkGroup atomic.Pointer[callAcc]

	// sampled is the operation whose backend calls are kept as full
	// spans (0: none). Only "main" handles record call spans.
	sampled atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.forkGroup.Store(&t.main)
	return t
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap decorates dev as the "main" handle.
func (t *tracer) wrap(dev pmem.Backend) pmem.Backend {
	return &tracedBackend{Backend: dev, tr: t, acc: &t.main}
}

// tracedBackend counts and times the data-path and ordering calls of the
// backend it embeds; everything else passes through. It adds no backend
// call of its own, so the device's fence, flush and byte counters are
// those of an undecorated run.
type tracedBackend struct {
	pmem.Backend
	tr  *tracer
	acc *callAcc
}

func (b *tracedBackend) done(k callKind, start time.Time) {
	end := time.Now()
	b.acc.calls[k].Add(1)
	b.acc.ns[k].Add(int64(end.Sub(start)))
	if b.acc != &b.tr.main {
		return
	}
	if op := b.tr.sampled.Load(); op != 0 {
		b.tr.add(span{Op: op, Name: callNames[k], Parent: "core.op", Start: b.tr.since(start), End: b.tr.since(end)})
	}
}

func (b *tracedBackend) Fork() pmem.Backend {
	return &tracedBackend{Backend: b.Backend.Fork(), tr: b.tr, acc: b.tr.forkGroup.Load()}
}

func (b *tracedBackend) Read(addr pmem.Addr, p []byte) {
	t := time.Now()
	b.Backend.Read(addr, p)
	b.done(callRead, t)
}

func (b *tracedBackend) ReadU64(addr pmem.Addr) uint64 {
	t := time.Now()
	v := b.Backend.ReadU64(addr)
	b.done(callRead, t)
	return v
}

func (b *tracedBackend) ReadU32(addr pmem.Addr) uint32 {
	t := time.Now()
	v := b.Backend.ReadU32(addr)
	b.done(callRead, t)
	return v
}

func (b *tracedBackend) ReadAddr(addr pmem.Addr) pmem.Addr {
	t := time.Now()
	v := b.Backend.ReadAddr(addr)
	b.done(callRead, t)
	return v
}

func (b *tracedBackend) ReadDRAM(addr pmem.Addr, n int) {
	t := time.Now()
	b.Backend.ReadDRAM(addr, n)
	b.done(callRead, t)
}

func (b *tracedBackend) Write(addr pmem.Addr, p []byte) {
	t := time.Now()
	b.Backend.Write(addr, p)
	b.done(callWrite, t)
}

func (b *tracedBackend) Zero(addr pmem.Addr, n int) {
	t := time.Now()
	b.Backend.Zero(addr, n)
	b.done(callWrite, t)
}

func (b *tracedBackend) WriteU64(addr pmem.Addr, v uint64) {
	t := time.Now()
	b.Backend.WriteU64(addr, v)
	b.done(callWrite, t)
}

func (b *tracedBackend) WriteU32(addr pmem.Addr, v uint32) {
	t := time.Now()
	b.Backend.WriteU32(addr, v)
	b.done(callWrite, t)
}

func (b *tracedBackend) WriteAddr(addr pmem.Addr, v pmem.Addr) {
	t := time.Now()
	b.Backend.WriteAddr(addr, v)
	b.done(callWrite, t)
}

func (b *tracedBackend) CasAddr(addr, old, v pmem.Addr) bool {
	t := time.Now()
	ok := b.Backend.CasAddr(addr, old, v)
	b.done(callCas, t)
	return ok
}

func (b *tracedBackend) Clwb(addr pmem.Addr) {
	t := time.Now()
	b.Backend.Clwb(addr)
	b.done(callFlush, t)
}

func (b *tracedBackend) FlushRange(addr pmem.Addr, n int) {
	t := time.Now()
	b.Backend.FlushRange(addr, n)
	b.done(callFlush, t)
}

func (b *tracedBackend) Sfence() {
	t := time.Now()
	b.Backend.Sfence()
	b.done(callFence, t)
}

// opTrace times the benchmark's calls into core on one goroutine. A nil
// *opTrace is an untraced run: every method is then a no-op, so the
// workload code is the same in both modes.
type opTrace struct {
	tr     *tracer
	fences func() uint64 // the device's fence sequence

	op      int64 // current operation, numbered from 1
	start   time.Time
	busy0   int64
	fence0  uint64
	opNs    int64 // summed core.op spans
	childNs int64 // summed backend time inside them

	// fencesBy sums fences and operations per operation kind (the commit
	// shapes of lib-compose).
	fencesBy, opsBy [opMulti + 1]int64
}

const sampleEvery = 64 // one operation in this many keeps its full spans

// enter marks the start of a call into core for the next operation.
func (t *opTrace) enter() {
	if t == nil {
		return
	}
	t.op++
	if t.op%sampleEvery == 1 {
		t.tr.sampled.Store(t.op)
	}
	t.busy0 = t.tr.main.busy()
	t.fence0 = t.fences()
	t.start = time.Now()
}

// leave marks the return of the call entered last.
func (t *opTrace) leave(kind opKind) {
	if t == nil {
		return
	}
	end := time.Now()
	t.opNs += int64(end.Sub(t.start))
	t.childNs += t.tr.main.busy() - t.busy0
	t.fencesBy[kind] += int64(t.fences() - t.fence0)
	t.opsBy[kind]++
	if t.tr.sampled.Load() == t.op {
		t.tr.sampled.Store(0)
		t.tr.add(span{Op: t.op, Name: "core.op", Parent: "client.op", Start: t.tr.since(t.start), End: t.tr.since(end)})
	}
}

// clientOp records the root span of operation t.op when it is sampled.
func (t *opTrace) clientOp(start, end time.Time) {
	if t == nil || t.op%sampleEvery != 1 {
		return
	}
	t.tr.add(span{Op: t.op, Name: "client.op", Start: t.tr.since(start), End: t.tr.since(end)})
}

// writeSpans writes the kept spans and their self-time table to
// dir/trace-<workload>.json.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	doc := struct {
		Workload string           `json:"workload"`
		SampleOf int              `json:"one_operation_in"`
		SelfNs   map[string]int64 `json:"self_time_ns"`
		Spans    []span           `json:"spans"`
	}{workload, sampleEvery, selfTimes(spans), spans}
	buf, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, buf, 0o644)
}
