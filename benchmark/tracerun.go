package main

import (
	"fmt"
	"sort"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// A traced invocation spends half its seconds on an untraced pass and
// half on a traced one over a second, decorated store, so that the cost
// of tracing is itself a reported number; then it runs the layer probes.

// layerCounts are counter deltas over a whole traced region.
type layerCounts struct {
	ops    int64
	sim    bool // the backend has a simulated clock
	dev    pmem.Stats
	alloc  allocDelta
	commit core.CommitStats
	gc     goCounters
	heap   alloc.Stats // at the end of the region
}

// setLayerCounts fills the per-layer metrics that come from the program's
// own counters.
func (r *report) setLayerCounts(c layerCounts) {
	n := float64(c.ops)
	per := func(v uint64) float64 { return float64(v) / n }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	r.set("core.ops_per_batch", ratio(c.dev.BatchedOps, c.dev.Batches))
	r.set("core.batches_per_op", per(c.dev.Batches))
	r.set("core.fast_wins_per_op", per(c.commit.FastWins))
	r.set("core.fast_aborts_per_op", per(c.commit.FastAborts))
	r.set("core.fast_losses_per_op", per(c.commit.FastLosses))
	r.set("core.combines_per_op", per(c.commit.Combines))
	r.set("core.combined_ops_per_op", per(c.commit.CombinedOps))
	r.set("core.locked_commits_per_op", per(c.commit.LockedCommits))
	r.set("funcds.copies_elided_per_op", per(c.dev.CopiesElided))
	r.set("alloc.allocs_per_op", per(c.alloc.allocs))
	r.set("alloc.frees_per_op", per(c.alloc.frees))
	r.set("alloc.bytes_per_op", per(c.alloc.bytes))
	r.set("alloc.live_bytes", float64(c.heap.LiveBytes))
	r.set("alloc.heap_used_bytes", float64(c.heap.HeapUsed))
	r.set("alloc.high_water_bytes", float64(c.heap.HighWater))
	r.set("alloc.quarantine_end", float64(c.heap.Quarantine))
	r.set("pmem.flushed_per_fence", ratio(c.dev.FlushedPerFence, c.dev.Fences))
	r.set("pmem.flushes_saved_per_op", per(c.dev.FlushesSaved))
	r.set("pmem.dram_reads_per_op", per(c.dev.DRAMReads))
	if c.sim { // on mmap these fields hold wall-clock time, which is not this metric
		r.set("pmem.sim_ns_per_op", c.dev.TotalNs/n)
		r.set("pmem.sim_flush_ns_per_op", c.dev.CatNs[pmem.CatFlush]/n)
		r.set("pmem.sim_other_ns_per_op", c.dev.CatNs[pmem.CatOther]/n)
	}
	r.set("cachesim.l1_miss_ratio", c.dev.Cache.MissRatio())
	r.set("cachesim.l2_hits_per_op", per(c.dev.CacheLevels.L2Hits))
	r.set("cachesim.l3_hits_per_op", per(c.dev.CacheLevels.L3Hits))
	r.set("cachesim.mem_accesses_per_op", per(c.dev.CacheLevels.MemAccesses))
	r.set("go.allocs_per_op", per(c.gc.mallocs))
	r.set("go.bytes_per_op", per(c.gc.bytes))
	r.set("go.gc_pause_ms", float64(c.gc.pauseNs)/1e6)
	r.set("go.gc_cycles", float64(c.gc.cycles))
	r.set("go.peak_rss_mb", peakRSSMB())
}

func subGo(a, b goCounters) goCounters {
	return goCounters{a.mallocs - b.mallocs, a.bytes - b.bytes, a.pauseNs - b.pauseNs, a.cycles - b.cycles}
}

// setBackend fills the pmem decorator metrics from the accumulators of
// every handle group, per operation.
func (r *report) setBackend(ops int64, opNs int64, accs ...*callAcc) {
	var calls, ns [numCallKinds]int64
	var busy int64
	for _, a := range accs {
		for k := range calls {
			calls[k] += a.calls[k].Load()
			ns[k] += a.ns[k].Load()
		}
		busy += a.busy()
	}
	n := float64(ops)
	r.set("pmem.flush_calls_per_op", float64(calls[callFlush])/n)
	r.set("pmem.flush_us_per_op", float64(ns[callFlush])/n/1e3)
	r.set("pmem.fence_calls_per_op", float64(calls[callFence])/n)
	r.set("pmem.fence_us_per_op", float64(ns[callFence])/n/1e3)
	if calls[callFence] > 0 {
		r.set("pmem.fence_us", float64(ns[callFence])/float64(calls[callFence])/1e3)
	}
	r.set("pmem.read_calls_per_op", float64(calls[callRead])/n)
	r.set("pmem.read_us_per_op", float64(ns[callRead])/n/1e3)
	r.set("pmem.write_calls_per_op", float64(calls[callWrite])/n)
	r.set("pmem.write_us_per_op", float64(ns[callWrite])/n/1e3)
	r.set("pmem.cas_calls_per_op", float64(calls[callCas])/n)
	if opNs > 0 {
		r.set("pmem.busy_frac", float64(busy)/float64(opNs))
	}
}

// traceLib is runLib in trace mode.
func traceLib(e *env, name string, spec libSpec) (*report, error) {
	rep := newReport(name)
	half := e.seconds / 2

	base, gen, err := spec.setup(e, nil)
	if err != nil {
		return nil, err
	}
	baseSegs, baseCounts, failed := measureLib(base, gen, spec, half, nil)
	rep.failed += failed
	untraced := summarize(baseSegs)
	if err := base.stack().close(); err != nil {
		return nil, err
	}

	tr := newTracer()
	inst, gen, err := spec.setup(e, tr.wrap)
	if err != nil {
		return nil, err
	}
	defer inst.stack().close()
	store := inst.stack().db.Store()
	ot := &opTrace{tr: tr, fences: store.Device().FenceSeq}
	tr.main.reset() // the preload's backend calls are not the timed operations'
	dev0, alloc0, commit0, gc0 := store.Stats(), store.Heap().Stats(), store.CommitStats(), readGo()
	segs, counts, failed := measureLib(inst, gen, spec, half, ot)
	lc := layerCounts{
		sim:    !spec.mmap,
		dev:    store.Stats().Sub(dev0),
		alloc:  subAlloc(store.Heap().Stats(), alloc0),
		commit: subCommit(store.CommitStats(), commit0),
		gc:     subGo(readGo(), gc0),
		heap:   store.Heap().Stats(),
	}
	rep.failed += failed
	var clientNs int64
	for _, s := range segs {
		lc.ops += int64(s.ops)
		for _, l := range s.lat {
			clientNs += l
		}
	}
	rep.attempted += lc.ops
	for _, s := range baseSegs {
		rep.attempted += int64(s.ops)
	}
	traced := summarize(segs)

	rep.setLayerCounts(lc)
	rep.setBackend(lc.ops, ot.opNs, &tr.main)
	rep.set("core.op_us", usPerOp(ot.opNs, int(lc.ops)))
	rep.set("core.self_us", usPerOp(ot.opNs-ot.childNs, int(lc.ops)))
	for kind, metric := range map[opKind]string{opVecSwap: "core.fences_single", opUnrelated: "core.fences_unrelated", opBatch: "core.fences_batch"} {
		if n := ot.opsBy[kind]; n > 0 {
			rep.set(metric, float64(ot.fencesBy[kind])/float64(n))
		}
	}
	rep.set("p99_us", untraced.p99us)
	rep.set("bench.trace_overhead_frac", 1-traced.opsPerS/untraced.opsPerS)
	rep.set("bench.reconcile_frac", float64(ot.opNs)/float64(clientNs))
	same := counts.dev.Fences == baseCounts.dev.Fences && counts.dev.Flushes == baseCounts.dev.Flushes &&
		counts.dev.BytesWritten == baseCounts.dev.BytesWritten
	rep.note("traced vs untraced over the first %d operations: fences %d/%d, flushes %d/%d, bytes %d/%d (identical: %v)",
		counts.ops, counts.dev.Fences, baseCounts.dev.Fences, counts.dev.Flushes, baseCounts.dev.Flushes,
		counts.dev.BytesWritten, baseCounts.dev.BytesWritten, same)
	if !same {
		rep.failed++
		rep.note("FAILED: the backend decorator changed the device's counters")
	}
	rep.note("untraced %.0f ops/s p50 %.2f us; traced %.0f ops/s p50 %.2f us", untraced.opsPerS, untraced.p50us, traced.opsPerS, traced.p50us)

	chk, err := crashCheck(e, inst.stack(), inst.model(), inst.view, spec.mmap, true, 1)
	if err != nil {
		return nil, err
	}
	rep.count(chk.live)
	rep.count(chk.recovered)
	rep.set("alloc.recover_live_blocks", float64(chk.info.Stats.LiveBlocks))
	rep.set("alloc.recover_leaked_bytes", float64(chk.info.Stats.LeakedBytes))

	if err := runProbes(rep, e, spec.probes); err != nil {
		return nil, err
	}
	path, err := tr.writeSpans(e.outDir, name)
	if err != nil {
		return nil, err
	}
	rep.note("spans: %s", path)
	return rep, nil
}

// traceSrv is runSrv in trace mode.
func traceSrv(e *env, name string, spec srvSpec) (*report, error) {
	rep := newReport(name)
	half := e.seconds / 2

	base, err := setupSrv(e, spec, nil)
	if err != nil {
		return nil, err
	}
	baseSegs, _ := measureSrv(base, spec, half)
	untraced := summarize(baseSegs)
	for _, c := range base.conns {
		rep.attempted += c.attempted
		rep.failed += c.failed
	}
	if err := base.close(); err != nil {
		return nil, err
	}

	st := newSrvTrace()
	x, err := setupSrv(e, spec, st)
	if err != nil {
		return nil, err
	}
	defer x.close()
	store := x.st.db.Store()
	groups := []*callAcc{&st.tr.main, &st.tr.committer, &st.tr.conn}
	for _, g := range groups {
		g.reset() // the preload's backend calls are not the timed operations'
	}
	gc0 := readGo()
	segs, counts := measureSrv(x, spec, half)
	lc := layerCounts{ops: counts.ops, sim: true, dev: counts.dev, alloc: counts.alloc, commit: counts.commit,
		gc: subGo(readGo(), gc0), heap: store.Heap().Stats()}
	traced := summarize(segs)

	// finishSrv fills end-to-end names too; a traced report keeps only
	// the per-layer ones, which emit selects.
	chk, err := finishSrv(e, rep, x, segs, counts, 1)
	if err != nil {
		return nil, err
	}
	rep.set("alloc.recover_live_blocks", float64(chk.info.Stats.LiveBlocks))
	rep.set("alloc.recover_leaked_bytes", float64(chk.info.Stats.LeakedBytes))
	if err := x.close(); err != nil { // server goroutines done: their records are ours to read
		return nil, err
	}

	rep.setLayerCounts(lc)
	rep.set("p99_us", untraced.p99us) // finishSrv set the traced half's
	rep.set("server.error_replies", float64(rep.failed))
	rep.set("core.committer_us", usPerOp(st.tr.committer.busy(), int(lc.ops)))
	rep.set("bench.trace_overhead_frac", 1-traced.opsPerS/untraced.opsPerS)
	rep.note("untraced %.0f ops/s p50 %.2f us p99 %.2f us; traced %.0f ops/s p50 %.2f us p99 %.2f us",
		untraced.opsPerS, untraced.p50us, untraced.p99us, traced.opsPerS, traced.p50us, traced.p99us)
	clientNs, err := st.attribute(rep, x.conns)
	if err != nil {
		return nil, err
	}
	rep.setBackend(lc.ops, clientNs, groups...)

	var late []int64
	for _, c := range x.conns {
		for _, r := range c.recs {
			if r.timed && spec.rate > 0 {
				late = append(late, r.genLate)
			}
		}
	}
	sort.Slice(late, func(i, j int) bool { return late[i] < late[j] })
	rep.set("bench.gen_late_p50_us", float64(percentile(late, 50))/1e3)
	rep.set("bench.gen_late_p99_us", float64(percentile(late, 99))/1e3)

	if err := runProbes(rep, e, spec.probes); err != nil {
		return nil, err
	}
	path, err := st.tr.writeSpans(e.outDir, name)
	if err != nil {
		return nil, err
	}
	rep.note("spans: %s", path)
	return rep, nil
}

// attribute lines each client operation up with the server-side records
// of the commands it was sent as — both are in send order per connection,
// the client's first command being the binding PING — and fills the
// server.* metrics as means over the timed operations. It returns the
// summed client latency of those operations, generator lateness excluded.
func (st *srvTrace) attribute(rep *report, conns []*srvConn) (clientNs int64, err error) {
	var (
		ops                  int64
		parse, reply, served int64
		handle, handled      = map[string]int64{}, map[string]int64{}
		sampled              int64
	)
	for i, c := range conns {
		cmds := st.conns[i].cmds[1:] // [0] is the PING
		for _, r := range c.recs {
			if len(cmds) < r.cmds {
				return 0, fmt.Errorf("trace: connection %d: server saw fewer commands than the client sent", i)
			}
			mine := cmds[:r.cmds]
			cmds = cmds[r.cmds:]
			if !r.timed {
				continue
			}
			ops++
			clientNs += r.lat - r.late
			keep := ops%sampleEvery == 1
			if keep {
				sampled = ops
				st.tr.add(span{Op: sampled, Name: "client.op", Start: st.tr.since(r.sent), End: st.tr.since(r.sent) + r.lat - r.late})
			}
			for _, cr := range mine {
				parse += cr.parse
				reply += cr.reply
				served += cr.parse + cr.handle + cr.reply
				verb := cr.verb
				if r.kind == opMulti && verb == "SET" {
					verb = "QUEUED"
				}
				handle[verb] += cr.handle
				handled[verb]++
				if keep {
					at := st.tr.since(cr.free)
					for _, part := range []struct {
						name string
						ns   int64
					}{{"server.parse", cr.parse}, {"server.handle", cr.handle}, {"server.reply", cr.reply}} {
						st.tr.add(span{Op: sampled, Name: part.name, Parent: "client.op", Start: at, End: at + part.ns})
						at += part.ns
					}
				}
			}
		}
	}
	if ops == 0 {
		return 0, fmt.Errorf("trace: no timed operation")
	}
	rep.set("server.parse_us", usPerOp(parse, int(ops)))
	rep.set("server.reply_us", usPerOp(reply, int(ops)))
	rep.set("server.transport_us", usPerOp(clientNs-served, int(ops)))
	for verb, metric := range map[string]string{"GET": "server.handle_get_us", "SET": "server.handle_set_us", "EXEC": "server.handle_exec_us"} {
		if n := handled[verb]; n > 0 {
			rep.set(metric, usPerOp(handle[verb], int(n)))
		}
	}
	rep.set("bench.reconcile_frac", float64(served)/float64(clientNs))
	return clientNs, nil
}
