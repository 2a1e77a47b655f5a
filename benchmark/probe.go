package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/server"
)

// Probes measure the layers that cannot be interposed in a running
// workload — funcds and alloc sit behind concrete types — by calling
// their public functions directly, with structures the size of the
// workload's and the same key, value and node sizes. A probe's figure is
// a layer's own host time: the time inside the backend, taken by the
// same decorator the traced run uses, is subtracted.

const probeOps = 2000 // operations timed per probe figure

// probeShape says which probes a workload's layers call for, and at what
// structure sizes.
type probeShape struct {
	mapKeys int  // funcds map and alloc probes at this map size (0: skip)
	compose bool // also vector, queue and stack probes at the lib-compose sizes
	server  bool // also the RESP parse and the CommitAsync/Wait probes
}

// probeHeap is a fresh allocator heap over a decorated simulator device.
type probeHeap struct {
	h   *alloc.Heap
	acc *callAcc
	rng *rand.Rand
}

func newProbeHeap(seed int64) *probeHeap {
	tr := newTracer()
	h := alloc.Format(tr.wrap(pmem.New(pmem.DefaultConfig(simArena))))
	funcds.RegisterWalkers(h)
	return &probeHeap{h: h, acc: &tr.main, rng: newRNG(seed, "probe")}
}

// self runs f and returns the host nanoseconds it took outside the
// backend.
func (p *probeHeap) self(f func()) int64 {
	b0 := p.acc.busy()
	t0 := time.Now()
	f()
	d := int64(time.Since(t0))
	return d - (p.acc.busy() - b0)
}

// fase runs build inside an edit context and commits its result the way
// core does: seal, fence, release the version it replaced.
func (p *probeHeap) fase(old pmem.Addr, build func(ed *alloc.Edit) pmem.Addr) pmem.Addr {
	ed := p.h.BeginEdit()
	next := build(ed)
	ed.Seal()
	p.h.Fence()
	if next != old {
		p.h.Release(old)
	}
	return next
}

func usPerOp(ns int64, ops int) float64 { return float64(ns) / float64(ops) / 1e3 }

// probeMap times funcds.Map Set, Get and Delete on a map of n keys.
func (p *probeHeap) probeMap(rep *report, n int) {
	cur := funcds.NewMap(p.h).Addr()
	for i := 0; i < n; i += preloadBatch {
		cur = p.fase(cur, func(ed *alloc.Edit) pmem.Addr {
			m := funcds.MapAt(p.h, cur).WithEdit(ed)
			for k := i; k < min(i+preloadBatch, n); k++ {
				m, _ = m.Set(keyBytes(k), randValue(p.rng))
			}
			return m.Addr()
		})
	}
	var setNs, getNs, delNs int64
	allocs0 := p.h.Stats().Allocs
	for i := 0; i < probeOps; i++ {
		k, v := keyBytes(p.rng.Intn(n)), randValue(p.rng)
		cur = p.fase(cur, func(ed *alloc.Edit) (next pmem.Addr) {
			setNs += p.self(func() {
				m, _ := funcds.MapAt(p.h, cur).WithEdit(ed).Set(k, v)
				next = m.Addr()
			})
			return next
		})
	}
	rep.set("funcds.map_set_self_us", usPerOp(setNs, probeOps))
	rep.set("funcds.map_set_nodes", float64(p.h.Stats().Allocs-allocs0)/probeOps)
	reads0 := p.acc.calls[callRead].Load()
	m := funcds.MapAt(p.h, cur)
	for i := 0; i < probeOps; i++ {
		k := keyBytes(p.rng.Intn(n))
		getNs += p.self(func() { m.Get(k) })
	}
	rep.set("funcds.map_get_self_us", usPerOp(getNs, probeOps))
	rep.set("funcds.map_get_reads", float64(p.acc.calls[callRead].Load()-reads0)/probeOps)
	for i := 0; i < probeOps; i++ {
		k := keyBytes(i * (n / probeOps))
		cur = p.fase(cur, func(ed *alloc.Edit) (next pmem.Addr) {
			delNs += p.self(func() {
				m, _ := funcds.MapAt(p.h, cur).WithEdit(ed).Delete(k)
				next = m.Addr()
			})
			return next
		})
	}
	rep.set("funcds.map_delete_self_us", usPerOp(delNs, probeOps))
}

// probeSeqs times funcds.Vector Update, Push and Get and Queue and Stack
// push+pop pairs at the lib-compose sizes.
func (p *probeHeap) probeSeqs(rep *report) {
	cur := funcds.NewVector(p.h).Addr()
	for i := 0; i < composeVecLen; i += preloadBatch {
		cur = p.fase(cur, func(ed *alloc.Edit) pmem.Addr {
			v := funcds.VectorAt(p.h, cur).WithEdit(ed)
			for k := 0; k < preloadBatch; k++ {
				v = v.Push(p.rng.Uint64())
			}
			return v.Addr()
		})
	}
	var updNs, pushNs, getNs int64
	allocs0 := p.h.Stats().Allocs
	for i := 0; i < probeOps; i++ {
		idx, val := uint64(p.rng.Intn(composeVecLen)), p.rng.Uint64()
		cur = p.fase(cur, func(ed *alloc.Edit) (next pmem.Addr) {
			updNs += p.self(func() { next = funcds.VectorAt(p.h, cur).WithEdit(ed).Update(idx, val).Addr() })
			return next
		})
	}
	rep.set("funcds.vector_update_self_us", usPerOp(updNs, probeOps))
	rep.set("funcds.vector_update_nodes", float64(p.h.Stats().Allocs-allocs0)/probeOps)
	for i := 0; i < probeOps; i++ {
		val := p.rng.Uint64()
		cur = p.fase(cur, func(ed *alloc.Edit) (next pmem.Addr) {
			pushNs += p.self(func() { next = funcds.VectorAt(p.h, cur).WithEdit(ed).Push(val).Addr() })
			return next
		})
	}
	rep.set("funcds.vector_push_self_us", usPerOp(pushNs, probeOps))
	vec := funcds.VectorAt(p.h, cur)
	for i := 0; i < probeOps; i++ {
		idx := uint64(p.rng.Intn(composeVecLen))
		getNs += p.self(func() { vec.Get(idx) })
	}
	rep.set("funcds.vector_get_self_us", usPerOp(getNs, probeOps))

	var qNs, sNs int64
	q := funcds.NewQueue(p.h).Addr()
	s := funcds.NewStack(p.h).Addr()
	for i := 0; i < composeQueueLen; i += preloadBatch {
		q = p.fase(q, func(ed *alloc.Edit) pmem.Addr {
			v := funcds.QueueAt(p.h, q).WithEdit(ed)
			for k := 0; k < preloadBatch; k++ {
				v = v.Push(uint64(k))
			}
			return v.Addr()
		})
		s = p.fase(s, func(ed *alloc.Edit) pmem.Addr {
			v := funcds.StackAt(p.h, s).WithEdit(ed)
			for k := 0; k < preloadBatch; k++ {
				v = v.Push(uint64(k))
			}
			return v.Addr()
		})
	}
	for i := 0; i < probeOps; i++ {
		q = p.fase(q, func(ed *alloc.Edit) (next pmem.Addr) {
			qNs += p.self(func() {
				v, _, _ := funcds.QueueAt(p.h, q).WithEdit(ed).Push(uint64(i)).Pop()
				next = v.Addr()
			})
			return next
		})
		s = p.fase(s, func(ed *alloc.Edit) (next pmem.Addr) {
			sNs += p.self(func() {
				v, _, _ := funcds.StackAt(p.h, s).WithEdit(ed).Push(uint64(i)).Pop()
				next = v.Addr()
			})
			return next
		})
	}
	rep.set("funcds.queue_enq_deq_self_us", usPerOp(qNs, probeOps))
	rep.set("funcds.stack_push_pop_self_us", usPerOp(sNs, probeOps))
}

// probeAlloc times the allocator's own calls at the map workload's block
// sizes: a 64-byte value blob and a 2-entry map node.
func (p *probeHeap) probeAlloc(rep *report) {
	var allocNs, sealNs, releaseNs, fenceNs int64
	for i := 0; i < probeOps; i++ {
		t0 := time.Now()
		ed := p.h.BeginEdit()
		a := ed.Alloc(8+valueSize, funcds.TagBlob)
		b := ed.Alloc(8+2*24, funcds.TagBlob)
		t1 := time.Now()
		ed.Seal()
		t2 := time.Now()
		p.h.Fence()
		t3 := time.Now()
		p.h.Release(a)
		p.h.Release(b)
		t4 := time.Now()
		p.h.Fence() // reclaims the two retired blocks
		t5 := time.Now()
		allocNs += int64(t1.Sub(t0))
		sealNs += int64(t2.Sub(t1))
		releaseNs += int64(t4.Sub(t3))
		fenceNs += int64(t5.Sub(t4))
	}
	rep.set("alloc.alloc_ns", float64(allocNs)/(2*probeOps))
	rep.set("alloc.seal_ns", float64(sealNs)/probeOps)
	rep.set("alloc.release_ns", float64(releaseNs)/(2*probeOps))
	rep.set("alloc.fence_reclaim_ns", float64(fenceNs)/probeOps)
}

// respCommand serializes one RESP request.
func respCommand(args ...[]byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.Bytes()
}

// probeParse times server.ReadCommand on canned GET and SET requests of
// the workload's key and value sizes.
func probeParse(rep *report, seed int64) {
	reqs := [][]byte{
		respCommand(verbGet, keyBytes(1)),
		respCommand(verbSet, keyBytes(1), randValue(newRNG(seed, "probe"))),
	}
	const n = 20 * probeOps
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	g0 := readGo()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		rd.Reset(reqs[i%2])
		br.Reset(rd)
		if _, err := server.ReadCommand(br); err != nil {
			panic(err) // canned input: a parse error is a bug in the probe
		}
	}
	d := time.Since(t0)
	rep.set("server.parse_probe_ns", float64(d)/n)
	rep.set("server.parse_probe_allocs", float64(readGo().mallocs-g0.mallocs)/n)
}

// probeTicket times Batch().MapSet; CommitAsync(); Wait() from one
// goroutine on a store shaped like srv-set's: what one durable SET costs
// below the server.
func probeTicket(rep *report, e *env) error {
	st, maps, _, err := openSrvStore(e, srvKeys, nil)
	if err != nil {
		return err
	}
	defer st.close()
	rng := newRNG(e.seed, "probe")
	submit, wait := make([]int64, probeOps), make([]int64, probeOps)
	for i := range submit {
		kb := keyBytes(rng.Intn(srvKeys))
		b := st.db.Batch()
		b.MapSet(maps[server.RootIndex(kb, srvRoots)], kb, randValue(rng))
		t0 := time.Now()
		t := b.CommitAsync()
		t1 := time.Now()
		t.Wait()
		t2 := time.Now()
		if err := t.Err(); err != nil {
			return fmt.Errorf("ticket probe: %w", err)
		}
		submit[i], wait[i] = int64(t1.Sub(t0)), int64(t2.Sub(t1))
	}
	for _, s := range [][]int64{submit, wait} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	rep.set("core.commit_async_us", float64(percentile(submit, 50))/1e3)
	rep.set("core.ticket_wait_us", float64(percentile(wait, 50))/1e3)
	return nil
}

// runProbes runs the probes shape calls for and records their figures.
func runProbes(rep *report, e *env, shape probeShape) error {
	if shape.mapKeys > 0 {
		p := newProbeHeap(e.seed)
		p.probeMap(rep, shape.mapKeys)
		p.probeAlloc(rep)
	}
	if shape.compose {
		runtime.GC() // drop the map probe's arena before building another
		newProbeHeap(e.seed).probeSeqs(rep)
	}
	if shape.server {
		probeParse(rep, e.seed)
		return probeTicket(rep, e)
	}
	return nil
}
