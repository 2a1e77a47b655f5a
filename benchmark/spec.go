package main

// The benchmark's vocabulary: its workloads, its end-to-end metrics and
// its per-layer metrics. BENCHMARK.json at the repository root lists the
// same names (TestBenchmarkJSONMatchesSpec holds the two together) and
// fixes the bound of each end-to-end metric.

// workloadDef is one workload: its name, why it exists, and its shape —
// a library workload or a server one.
type workloadDef struct {
	name string
	why  string
	// gated workloads are the contract's: BENCHMARK.json lists them and a
	// later change is judged on them. An ungated one runs and is checked
	// like the rest, but its timings are known not to repeat here.
	gated bool
	lib   *libSpec
	srv   *srvSpec
}

func (w *workloadDef) run(e *env) (*report, error) {
	if w.lib != nil {
		return runLib(e, w.name, *w.lib)
	}
	return runSrv(e, w.name, *w.srv)
}

const (
	libMapPreload  = 50_000 // ~9 MB of nodes: past the modelled 1 MB L2, inside the 33 MB L3
	mmapMapPreload = 5_000
)

// srvProbes: each of the server's roots holds an eighth of the keys.
var srvProbes = probeShape{mapKeys: srvKeys / srvRoots, server: true}

func mapWrite(seed int64, preload int) generator { return newMapWriteGen(seed, preload) }
func mapRead(seed int64, preload int) generator  { return newMapReadGen(seed, preload) }

var workloads = []workloadDef{
	{
		name: "lib-map-write", gated: true,
		why: "one Map.Set/Delete FASE per op on the simulator: path copy, node allocs, flushes, one fence, so funcds, alloc and pmem do the work and server and commit contention none",
		lib: libMapSpec(false, libMapPreload, 500, 40, mapWrite),
	},
	{
		name: "lib-map-read", gated: true,
		why: "95 % Zipf Map.Get on the same store: traversal and reads with no alloc, flush or fence, so a write-path gain that taxes lookups shows as a loss here",
		lib: libMapSpec(false, libMapPreload, 5_000, 40, mapRead),
	},
	{
		name: "lib-compose", gated: true,
		why: "Composition and Batch FASEs over a vector, a map and a queue: core's commit tiers (single swap, pointer transaction, batch record) and alloc.Edit transients per fence",
		lib: &libSpec{setup: setupLibCompose, segOps: 250, countSegs: 80,
			probes: probeShape{mapKeys: composeMapKeys, compose: true}},
	},
	{
		name: "lib-map-mmap",
		why:  "the lib-map-write calls over an mmap'd file: nearly all of each op is msync inside Sfence, so fence-cost work shows here and funcds/alloc work does not",
		lib:  libMapSpec(true, mmapMapPreload, 100, 40, mapWrite),
	},
	{
		name: "srv-set", gated: true,
		why: "two closed-loop RESP connections, 100 % SET: every +OK waits on a durability ticket, so core's committer, ticket and linger path sets the latency",
		srv: &srvSpec{keys: srvKeys, conns: 2, probes: srvProbes,
			gen: func(seed int64, conn int) generator { return newSrvSetGen(seed, srvKeys, conn, 2) }},
	},
	{
		name: "srv-mixed-open", gated: true,
		why: "one open-loop connection at a fixed 4000 ops/s, 90 % GET: server parse/dispatch/reply and funcds lookup set the median, the durable-write path the tail, at equal load on every commit",
		srv: &srvSpec{keys: srvKeys, conns: 1, rate: 4000, probes: srvProbes,
			gen: func(seed int64, conn int) generator { return newSrvMixedGen(seed, srvKeys) }},
	},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef names one metric. better is "lower" or "higher".
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},               // open/format + preload (+ server start), median of several set-ups
	{"ops_per_s", "1/s", "higher"},          // verified operations per wall-clock second, quietest segments
	{"p50_us", "us", "lower"},               // per-operation latency median, quietest segments
	{"fences_per_op", "count/op", "lower"},  // Stats.Fences per operation: the paper's ordering points
	{"flushes_per_op", "count/op", "lower"}, // Stats.Flushes per operation
	{"pm_bytes_per_op", "B/op", "lower"},    // Stats.BytesWritten per operation: write amplification
	{"recover_ms", "ms", "lower"},           // wall time of core.Open on the crash image, fastest of several
	{"space_amp", "ratio", "lower"},         // allocator LiveBytes per byte of live user data
}

// perLayer are the metrics of single layers, from a traced run and from
// probes. Every workload reports every one; a metric whose layer the
// workload does not enter reads 0.
var perLayer = []metricDef{
	// The tail of the end-to-end latency, from the untraced half of the
	// traced run. It is not an end-to-end metric of the contract because it
	// does not repeat in this sandbox: one seed, lib-map-write, ten runs:
	// 77 to 103 us while p50 moved 8 %.
	{"p99_us", "us", "lower"},
	// server: middleware + conn wrapper in the real workload; ReadCommand probe.
	{"server.parse_us", "us", "lower"},
	{"server.handle_get_us", "us", "lower"},
	{"server.handle_set_us", "us", "lower"},
	{"server.handle_exec_us", "us", "lower"},
	{"server.reply_us", "us", "lower"},
	{"server.transport_us", "us", "lower"},
	{"server.error_replies", "count", "lower"},
	{"server.parse_probe_ns", "ns", "lower"},
	{"server.parse_probe_allocs", "count", "lower"},
	// core: timing of the calls into it, its counters, a CommitAsync/Wait probe.
	{"core.op_us", "us", "lower"},
	{"core.self_us", "us", "lower"},
	{"core.committer_us", "us", "lower"},
	{"core.commit_async_us", "us", "lower"},
	{"core.ticket_wait_us", "us", "lower"},
	{"core.ops_per_batch", "count", "higher"},
	{"core.batches_per_op", "count/op", "lower"},
	{"core.fast_wins_per_op", "count/op", "higher"},
	{"core.fast_aborts_per_op", "count/op", "lower"},
	{"core.fast_losses_per_op", "count/op", "lower"},
	{"core.combines_per_op", "count/op", "lower"},
	{"core.combined_ops_per_op", "count/op", "lower"},
	{"core.locked_commits_per_op", "count/op", "lower"},
	{"core.fences_single", "count", "lower"},
	{"core.fences_unrelated", "count", "lower"},
	{"core.fences_batch", "count", "lower"},
	// funcds: direct calls on an alloc.Heap over the decorated backend.
	{"funcds.map_set_self_us", "us", "lower"},
	{"funcds.map_get_self_us", "us", "lower"},
	{"funcds.map_delete_self_us", "us", "lower"},
	{"funcds.vector_update_self_us", "us", "lower"},
	{"funcds.vector_push_self_us", "us", "lower"},
	{"funcds.vector_get_self_us", "us", "lower"},
	{"funcds.queue_enq_deq_self_us", "us", "lower"},
	{"funcds.stack_push_pop_self_us", "us", "lower"},
	{"funcds.map_set_nodes", "count", "lower"},
	{"funcds.map_get_reads", "count", "lower"},
	{"funcds.vector_update_nodes", "count", "lower"},
	{"funcds.copies_elided_per_op", "count/op", "higher"},
	// alloc: direct BeginEdit/Alloc/Seal/Release/Fence probe; heap counters.
	{"alloc.alloc_ns", "ns", "lower"},
	{"alloc.seal_ns", "ns", "lower"},
	{"alloc.release_ns", "ns", "lower"},
	{"alloc.fence_reclaim_ns", "ns", "lower"},
	{"alloc.allocs_per_op", "count/op", "lower"},
	{"alloc.frees_per_op", "count/op", "lower"},
	{"alloc.bytes_per_op", "B/op", "lower"},
	{"alloc.live_bytes", "B", "lower"},
	{"alloc.heap_used_bytes", "B", "lower"},
	{"alloc.high_water_bytes", "B", "lower"},
	{"alloc.quarantine_end", "count", "lower"},
	{"alloc.recover_live_blocks", "count", "lower"},
	{"alloc.recover_leaked_bytes", "B", "lower"},
	// pmem (simulator and mmapdev): the backend decorator and Stats.
	{"pmem.flush_calls_per_op", "count/op", "lower"},
	{"pmem.flush_us_per_op", "us", "lower"},
	{"pmem.fence_calls_per_op", "count/op", "lower"},
	{"pmem.fence_us_per_op", "us", "lower"},
	{"pmem.fence_us", "us", "lower"},
	{"pmem.read_calls_per_op", "count/op", "lower"},
	{"pmem.read_us_per_op", "us", "lower"},
	{"pmem.write_calls_per_op", "count/op", "lower"},
	{"pmem.write_us_per_op", "us", "lower"},
	{"pmem.cas_calls_per_op", "count/op", "lower"},
	{"pmem.busy_frac", "ratio", "lower"},
	{"pmem.flushed_per_fence", "count", "higher"},
	{"pmem.flushes_saved_per_op", "count/op", "higher"},
	{"pmem.dram_reads_per_op", "count/op", "higher"},
	{"pmem.sim_ns_per_op", "sim_ns/op", "lower"},
	{"pmem.sim_flush_ns_per_op", "sim_ns/op", "lower"},
	{"pmem.sim_other_ns_per_op", "sim_ns/op", "lower"},
	// cachesim: Stats.Cache and Stats.CacheLevels.
	{"cachesim.l1_miss_ratio", "ratio", "lower"},
	{"cachesim.l2_hits_per_op", "count/op", "lower"},
	{"cachesim.l3_hits_per_op", "count/op", "lower"},
	{"cachesim.mem_accesses_per_op", "count/op", "lower"},
	// go runtime: MemStats deltas over the traced region.
	{"go.allocs_per_op", "count/op", "lower"},
	{"go.bytes_per_op", "B/op", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.peak_rss_mb", "MB", "lower"},
	// bench: validity of the numbers above, not the program.
	{"bench.gen_late_p50_us", "us", "lower"},
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.reconcile_frac", "ratio", "higher"},
}

// extras are printed and written to -out beside the end-to-end metrics but
// are not part of the contract in BENCHMARK.json: fail_frac is 0 on every
// good run (the contract's attempted/failed/correct carry it), and
// sim_ns_per_op is simulated time, which mmap does not have.
var extras = []metricDef{
	{"p99_us", "us", "lower"},
	{"fail_frac", "ratio", "lower"},
	{"sim_ns_per_op", "sim_ns/op", "lower"},
}
