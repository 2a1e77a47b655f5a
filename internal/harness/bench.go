// Machine-readable performance reporting (BENCH.json) and the regression
// comparison behind cmd/benchdiff. The schema lives here, beside the
// experiments that produce the numbers, so cmd/modbench, cmd/benchdiff,
// and the report-path unit tests all share one definition.
package harness

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/mod-ds/mod/internal/workloads"
)

// BenchSchema is the current BENCH.json schema version. Version 2 added
// the group-commit sweep; version 3 added the transient (edit-context)
// sweep and the flushes/op and copies/op gate columns; version 4 added
// the sharded sweep (shards × writers, per-op and cross-shard rows);
// version 5 added the selective-persistence sweep and the recovery-time
// rows; version 6 added the server sweep (durability-acked ops over
// concurrent connections, presence-tracked but not value-gated);
// version 7 added the contention sweep (same-root writers under the
// mutex-serialized baseline vs the two-tier CAS/flat-combining path);
// version 8 added the mmap-backend sweep (wall-clock rows over a
// file-backed mmapdev store, presence-tracked like the server sweep,
// never value-gated).
const BenchSchema = 8

// BenchWorkload is one workload × engine measurement: the Table 2 suite
// run single-threaded, so every field is deterministic for a given
// binary and scale.
type BenchWorkload struct {
	Workload  string  `json:"workload"`
	Engine    string  `json:"engine"`
	Ops       int     `json:"ops"`
	SimNs     float64 `json:"sim_ns"`
	OpsPerSec float64 `json:"ops_per_sec"` // per simulated second
	Fences    uint64  `json:"fences"`
	Flushes   uint64  `json:"flushes"`
}

// FencesPerOp returns the row's average fences per operation.
func (w BenchWorkload) FencesPerOp() float64 { return float64(w.Fences) / float64(w.Ops) }

// FlushesPerOp returns the row's average flushes per operation.
func (w BenchWorkload) FlushesPerOp() float64 { return float64(w.Flushes) / float64(w.Ops) }

// BenchConcurrent is one point of the reader-scaling sweep. Goroutine
// interleaving makes these rows nondeterministic, so benchdiff treats
// them as informational.
type BenchConcurrent struct {
	Readers      int     `json:"readers"`
	Writers      int     `json:"writers"`
	ReadOps      int     `json:"read_ops"`
	WriteOps     int     `json:"write_ops"`
	ElapsedNs    float64 `json:"elapsed_ns"`
	BusyNs       float64 `json:"busy_ns"`
	ReadsPerSec  float64 `json:"reads_per_sec"`
	WritesPerSec float64 `json:"writes_per_sec"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// BenchGroupCommit is one point of the group-commit sweep (synchronous
// mode: single-goroutine, deterministic, gated by benchdiff).
type BenchGroupCommit struct {
	BatchSize    int     `json:"batch_size"`
	Shards       int     `json:"shards"`
	Ops          int     `json:"ops"`
	Batches      uint64  `json:"batches"`
	Fences       uint64  `json:"fences"`
	Flushes      uint64  `json:"flushes"`
	FencesPerOp  float64 `json:"fences_per_op"`
	FlushesPerOp float64 `json:"flushes_per_op"`
	ElapsedNs    float64 `json:"elapsed_ns"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// BenchTransient is one point of the transient (edit-context) sweep:
// single-goroutine, deterministic, gated by benchdiff on ops/sec,
// flushes/op, and copies/op.
type BenchTransient struct {
	OpsPerFASE   int     `json:"ops_per_fase"`
	Ops          int     `json:"ops"`
	Fences       uint64  `json:"fences"`
	Flushes      uint64  `json:"flushes"`
	FlushesSaved uint64  `json:"flushes_saved"`
	Copies       uint64  `json:"copies"`
	CopiesElided uint64  `json:"copies_elided"`
	FencesPerOp  float64 `json:"fences_per_op"`
	FlushesPerOp float64 `json:"flushes_per_op"`
	CopiesPerOp  float64 `json:"copies_per_op"`
	ElapsedNs    float64 `json:"elapsed_ns"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// BenchSharded is one point of the sharded sweep (deterministic: the
// writers run sequentially and elapsed is the busiest shard region's
// busy time, the run's critical path — see workloads.RunSharded).
// Gated by benchdiff on ops/sec, fences/op, and flushes/op.
type BenchSharded struct {
	Shards       int     `json:"shards"`
	Writers      int     `json:"writers"`
	BatchSize    int     `json:"batch_size"`
	CrossShard   bool    `json:"cross_shard"`
	Ops          int     `json:"ops"`
	Fences       uint64  `json:"fences"`
	Flushes      uint64  `json:"flushes"`
	FencesPerOp  float64 `json:"fences_per_op"`
	FlushesPerOp float64 `json:"flushes_per_op"`
	ElapsedNs    float64 `json:"elapsed_ns"`
	BusyNs       float64 `json:"busy_ns"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// BenchSelective is one point of the selective-persistence sweep
// (DESIGN.md §10): an updates-only hot path against the selectively
// persisted flavor with the DRAM node cache on (selective=true) or the
// normal flavor with no cache (selective=false). Single-goroutine,
// deterministic, gated by benchdiff on ops/sec, flushes/op, and
// copies/op.
type BenchSelective struct {
	Structure    string  `json:"structure"`
	Selective    bool    `json:"selective"`
	OpsPerFASE   int     `json:"ops_per_fase"`
	Ops          int     `json:"ops"`
	Fences       uint64  `json:"fences"`
	Flushes      uint64  `json:"flushes"`
	Copies       uint64  `json:"copies"`
	DRAMReads    uint64  `json:"dram_reads"`
	FencesPerOp  float64 `json:"fences_per_op"`
	FlushesPerOp float64 `json:"flushes_per_op"`
	CopiesPerOp  float64 `json:"copies_per_op"`
	ElapsedNs    float64 `json:"elapsed_ns"`
	OpsPerSec    float64 `json:"ops_per_sec"`
}

// BenchRecovery is the recovery cost of reopening the crash image a
// selective-sweep run left behind: simulated reopen time (root scan,
// record replay, navigation rebuild) and the number of navigation nodes
// rebuilt. Deterministic; gated by benchdiff on recovery_ns.
type BenchRecovery struct {
	Structure    string  `json:"structure"`
	Selective    bool    `json:"selective"`
	OpsPerFASE   int     `json:"ops_per_fase"`
	Ops          int     `json:"ops"`
	RecoveryNs   float64 `json:"recovery_ns"`
	RebuiltNodes uint64  `json:"rebuilt_nodes"`
}

// BenchServer is one point of the server sweep: an in-process modserver
// under a closed-loop all-write load, every +OK gated on a durability
// ticket. These rows run on the wall clock (real goroutines, real
// scheduling), so — like the concurrent sweep — their values are
// nondeterministic: benchdiff tracks their presence but does not gate
// latency, throughput, or fences/op. The shape to read off the report
// is fences/op falling as clients rise (cross-client batch
// amplification through the group committer).
type BenchServer struct {
	Clients     int     `json:"clients"`
	Ops         int     `json:"ops"`
	Errors      int     `json:"errors"`
	ElapsedNs   float64 `json:"elapsed_ns"` // wall-clock, unlike the simulated sweeps
	P50Ns       float64 `json:"p50_ns"`
	P99Ns       float64 `json:"p99_ns"`
	P999Ns      float64 `json:"p999_ns"`
	OpsPerSec   float64 `json:"ops_per_sec"` // per wall-clock second
	Fences      uint64  `json:"fences"`
	FencesPerOp float64 `json:"fences_per_op"`
}

// BenchMmap is one structure of the mmap-backend sweep: the identical
// core.Open-built stack over a file-backed mmapdev device. Elapsed time
// is wall-clock (real msync), so — like the server sweep — benchdiff
// tracks these rows' presence but never gates their values. The fence
// and flush counts come from the same fence discipline the simulator
// measures, making fences/op the portable column to eyeball across
// backends.
type BenchMmap struct {
	Workload    string  `json:"workload"`
	Ops         int     `json:"ops"`
	ElapsedNs   float64 `json:"elapsed_ns"`  // wall-clock, unlike the simulated sweeps
	OpsPerSec   float64 `json:"ops_per_sec"` // per wall-clock second
	Fences      uint64  `json:"fences"`
	Flushes     uint64  `json:"flushes"`
	FencesPerOp float64 `json:"fences_per_op"`
}

// BenchContention is one writer count of the same-root contention sweep,
// carrying both commit modes (DESIGN.md §12). The mutex columns are
// deterministic (the baseline serializes, so real scheduling cannot
// change its simulated critical path) and benchdiff gates them against
// the baseline report. The cas columns depend on how the Go scheduler
// actually interleaves the writers — CAS losses and combining rounds
// only happen when goroutines really overlap — so benchdiff gates them
// with absolute floors instead of baseline ratios: speedup at W>=8 must
// stay at or above 2x, and cas fences/op must not exceed the W=1 level
// beyond tolerance.
type BenchContention struct {
	Writers          int     `json:"writers"`
	Ops              int     `json:"ops"`
	MutexElapsedNs   float64 `json:"mutex_elapsed_ns"`
	MutexOpsPerSec   float64 `json:"mutex_ops_per_sec"`
	MutexFencesPerOp float64 `json:"mutex_fences_per_op"`
	CasElapsedNs     float64 `json:"cas_elapsed_ns"`
	CasOpsPerSec     float64 `json:"cas_ops_per_sec"`
	CasFencesPerOp   float64 `json:"cas_fences_per_op"`
	Speedup          float64 `json:"speedup"` // cas ops/sec over mutex ops/sec
	FastWins         uint64  `json:"fast_wins"`
	FastAborts       uint64  `json:"fast_aborts"`
	FastLosses       uint64  `json:"fast_losses"`
	Combines         uint64  `json:"combines"`
	CombinedOps      uint64  `json:"combined_ops"`
}

// BenchDoc is the BENCH.json document.
type BenchDoc struct {
	Schema      int                `json:"schema"`
	Scale       string             `json:"scale"`
	Ops         int                `json:"ops"`
	Workloads   []BenchWorkload    `json:"workloads"`
	Concurrent  []BenchConcurrent  `json:"concurrent"`
	GroupCommit []BenchGroupCommit `json:"groupcommit"`
	Transient   []BenchTransient   `json:"transient"`
	Sharded     []BenchSharded     `json:"sharded,omitempty"`
	Selective   []BenchSelective   `json:"selective,omitempty"`
	Recovery    []BenchRecovery    `json:"recovery,omitempty"`
	Server      []BenchServer      `json:"server,omitempty"`
	Contention  []BenchContention  `json:"contention,omitempty"`
	Mmap        []BenchMmap        `json:"mmap,omitempty"`
}

// BenchBackend selects the extra backend sweep BuildBenchDoc appends to
// the simulator report: "sim" (none, the default) or "mmap" (the
// wall-clock mmapdev sweep; building the doc then fails on platforms
// without the backend). cmd/modbench sets it from -backend.
var BenchBackend = "sim"

// BuildBenchDoc runs the Table 2 workload suite on every engine, the
// concurrent reader-scaling sweep, the transient (edit-context) sweep,
// and the group-commit batch-size sweep at the given scale, and returns
// the report.
func BuildBenchDoc(scaleName string, scale Scale) (*BenchDoc, error) {
	workloads.SetVectorPreload(scale.VectorPreload)
	doc := &BenchDoc{Schema: BenchSchema, Scale: scaleName, Ops: scale.Ops}
	for _, name := range workloads.Names {
		for _, engine := range workloads.Engines {
			res, err := workloads.Run(name, engine, workloads.Config{Ops: scale.Ops})
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s: %w", name, engine, err)
			}
			doc.Workloads = append(doc.Workloads, BenchWorkload{
				Workload:  name,
				Engine:    res.Engine,
				Ops:       res.Ops,
				SimNs:     res.SimNs,
				OpsPerSec: float64(res.Ops) / (res.SimNs / 1e9),
				Fences:    res.Fences,
				Flushes:   res.Flushes,
			})
		}
	}
	for _, readers := range ConcurrentReaderCounts {
		res, err := workloads.RunConcurrent(ConcurrentBenchConfig(scale, readers))
		if err != nil {
			return nil, fmt.Errorf("bench concurrent r=%d: %w", readers, err)
		}
		doc.Concurrent = append(doc.Concurrent, BenchConcurrent{
			Readers:      res.Readers,
			Writers:      res.Writers,
			ReadOps:      res.ReadOps,
			WriteOps:     res.WriteOps,
			ElapsedNs:    res.ElapsedNs,
			BusyNs:       res.BusyNs,
			ReadsPerSec:  res.ReadsPerSec,
			WritesPerSec: res.WritesPerSec,
			OpsPerSec:    res.OpsPerSec,
		})
	}
	for _, b := range TransientOpsPerFASE {
		res, err := workloads.RunTransient(TransientBenchConfig(scale, b))
		if err != nil {
			return nil, fmt.Errorf("bench transient b=%d: %w", b, err)
		}
		doc.Transient = append(doc.Transient, BenchTransient{
			OpsPerFASE:   res.OpsPerFASE,
			Ops:          res.Ops,
			Fences:       res.Fences,
			Flushes:      res.Flushes,
			FlushesSaved: res.FlushesSaved,
			Copies:       res.Copies,
			CopiesElided: res.CopiesElided,
			FencesPerOp:  res.FencesPerOp,
			FlushesPerOp: res.FlushesPerOp,
			CopiesPerOp:  res.CopiesPerOp,
			ElapsedNs:    res.ElapsedNs,
			OpsPerSec:    res.OpsPerSec,
		})
	}
	for _, structure := range SelectiveStructures {
		for _, sel := range []bool{false, true} {
			for _, b := range SelectiveOpsPerFASE {
				res, err := workloads.RunSelective(SelectiveBenchConfig(scale, structure, sel, b))
				if err != nil {
					return nil, fmt.Errorf("bench selective %s sel=%v b=%d: %w", structure, sel, b, err)
				}
				doc.Selective = append(doc.Selective, BenchSelective{
					Structure:    res.Structure,
					Selective:    res.Selective,
					OpsPerFASE:   res.OpsPerFASE,
					Ops:          res.Ops,
					Fences:       res.Fences,
					Flushes:      res.Flushes,
					Copies:       res.Copies,
					DRAMReads:    res.DRAMReads,
					FencesPerOp:  res.FencesPerOp,
					FlushesPerOp: res.FlushesPerOp,
					CopiesPerOp:  res.CopiesPerOp,
					ElapsedNs:    res.ElapsedNs,
					OpsPerSec:    res.OpsPerSec,
				})
				doc.Recovery = append(doc.Recovery, BenchRecovery{
					Structure:    res.Structure,
					Selective:    res.Selective,
					OpsPerFASE:   res.OpsPerFASE,
					Ops:          res.Ops,
					RecoveryNs:   res.RecoveryNs,
					RebuiltNodes: res.RebuiltNodes,
				})
			}
		}
	}
	addSharded := func(cfg workloads.ShardedConfig) error {
		res, err := workloads.RunSharded(cfg)
		if err != nil {
			return fmt.Errorf("bench sharded s=%d w=%d: %w", cfg.Shards, cfg.Writers, err)
		}
		doc.Sharded = append(doc.Sharded, BenchSharded{
			Shards:       res.Shards,
			Writers:      res.Writers,
			BatchSize:    res.BatchSize,
			CrossShard:   res.CrossShard,
			Ops:          res.Ops,
			Fences:       res.Fences,
			Flushes:      res.Flushes,
			FencesPerOp:  res.FencesPerOp,
			FlushesPerOp: res.FlushesPerOp,
			ElapsedNs:    res.ElapsedNs,
			BusyNs:       res.BusyNs,
			OpsPerSec:    res.OpsPerSec,
		})
		return nil
	}
	for _, writers := range ShardedWriterCounts {
		for _, shards := range ShardedShardCounts {
			if err := addSharded(ShardedBenchConfig(scale, shards, writers)); err != nil {
				return nil, err
			}
		}
	}
	for _, shards := range ShardedCrossShardCounts {
		if err := addSharded(ShardedCrossBenchConfig(scale, shards, shards)); err != nil {
			return nil, err
		}
	}
	for _, clients := range ServerClientCounts {
		res, err := RunServerBench(scale, clients)
		if err != nil {
			return nil, fmt.Errorf("bench server c=%d: %w", clients, err)
		}
		doc.Server = append(doc.Server, BenchServer{
			Clients:     res.Clients,
			Ops:         res.Ops,
			Errors:      res.Errors,
			ElapsedNs:   float64(res.Elapsed),
			P50Ns:       float64(res.P50),
			P99Ns:       float64(res.P99),
			P999Ns:      float64(res.P999),
			OpsPerSec:   res.Throughput,
			Fences:      res.Fences,
			FencesPerOp: res.FencesPerOp,
		})
	}
	for _, w := range ContentionWriterCounts {
		mres, err := workloads.RunContention(ContentionBenchConfig(scale, w, true))
		if err != nil {
			return nil, fmt.Errorf("bench contention w=%d mutex: %w", w, err)
		}
		cres, err := workloads.RunContention(ContentionBenchConfig(scale, w, false))
		if err != nil {
			return nil, fmt.Errorf("bench contention w=%d cas: %w", w, err)
		}
		speedup := 0.0
		if mres.OpsPerSec > 0 {
			speedup = cres.OpsPerSec / mres.OpsPerSec
		}
		doc.Contention = append(doc.Contention, BenchContention{
			Writers:          w,
			Ops:              cres.Ops,
			MutexElapsedNs:   mres.ElapsedNs,
			MutexOpsPerSec:   mres.OpsPerSec,
			MutexFencesPerOp: mres.FencesPerOp,
			CasElapsedNs:     cres.ElapsedNs,
			CasOpsPerSec:     cres.OpsPerSec,
			CasFencesPerOp:   cres.FencesPerOp,
			Speedup:          speedup,
			FastWins:         cres.Commit.FastWins,
			FastAborts:       cres.Commit.FastAborts,
			FastLosses:       cres.Commit.FastLosses,
			Combines:         cres.Commit.Combines,
			CombinedOps:      cres.Commit.CombinedOps,
		})
	}
	if BenchBackend == "mmap" {
		for _, workload := range MmapWorkloads {
			res, err := RunMmapBench(workload, scale.Ops, "")
			if err != nil {
				return nil, fmt.Errorf("bench mmap %s: %w", workload, err)
			}
			doc.Mmap = append(doc.Mmap, BenchMmap{
				Workload:    res.Workload,
				Ops:         res.Ops,
				ElapsedNs:   res.ElapsedNs,
				OpsPerSec:   float64(res.Ops) / (res.ElapsedNs / 1e9),
				Fences:      res.Fences,
				Flushes:     res.Flushes,
				FencesPerOp: float64(res.Fences) / float64(res.Ops),
			})
		}
	}
	for _, shards := range GroupCommitShardCounts {
		for _, bsz := range GroupCommitBatchSizes {
			res, err := workloads.RunGroupCommit(GroupCommitBenchConfig(scale, bsz, shards))
			if err != nil {
				return nil, fmt.Errorf("bench groupcommit b=%d s=%d: %w", bsz, shards, err)
			}
			doc.GroupCommit = append(doc.GroupCommit, BenchGroupCommit{
				BatchSize:    res.BatchSize,
				Shards:       res.Shards,
				Ops:          res.Ops,
				Batches:      res.Batches,
				Fences:       res.Fences,
				Flushes:      res.Flushes,
				FencesPerOp:  res.FencesPerOp,
				FlushesPerOp: res.FlushesPerOp,
				ElapsedNs:    res.ElapsedNs,
				OpsPerSec:    res.OpsPerSec,
			})
		}
	}
	return doc, nil
}

// WriteBenchDoc serializes the report to path.
func WriteBenchDoc(doc *BenchDoc, path string) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadBenchDoc loads a report from path.
func ReadBenchDoc(path string) (*BenchDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc BenchDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema == 0 || len(doc.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a BENCH.json report (schema=%d, %d workload rows)", path, doc.Schema, len(doc.Workloads))
	}
	return &doc, nil
}

// CompareBenchDocs checks cur against base and returns one message per
// regression, each prefixed by its row key: a deterministic row whose
// ops/sec dropped — or whose fences/op, flushes/op, or (transient rows)
// copies/op rose — by more than tol (fractional, e.g. 0.15), or a
// baseline row missing from cur. The nondeterministic concurrent sweep
// is not compared. An empty result means the gate passes.
func CompareBenchDocs(base, cur *BenchDoc, tol float64) []string {
	var regressions []string
	worse := func(kind, row string, baseV, curV float64, lowerIsBetter bool) {
		if baseV <= 0 {
			return
		}
		ratio := curV / baseV
		if lowerIsBetter && ratio > 1+tol {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s rose %.1f%% (%.4g -> %.4g, tolerance %.0f%%)",
					row, kind, (ratio-1)*100, baseV, curV, tol*100))
		}
		if !lowerIsBetter && ratio < 1-tol {
			regressions = append(regressions,
				fmt.Sprintf("%s: %s dropped %.1f%% (%.4g -> %.4g, tolerance %.0f%%)",
					row, kind, (1-ratio)*100, baseV, curV, tol*100))
		}
	}

	curWorkloads := make(map[string]BenchWorkload, len(cur.Workloads))
	for _, w := range cur.Workloads {
		curWorkloads[w.Workload+"/"+w.Engine] = w
	}
	for _, b := range base.Workloads {
		key := b.Workload + "/" + b.Engine
		c, ok := curWorkloads[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("ops/sec", key, b.OpsPerSec, c.OpsPerSec, false)
		worse("fences/op", key, b.FencesPerOp(), c.FencesPerOp(), true)
		worse("flushes/op", key, b.FlushesPerOp(), c.FlushesPerOp(), true)
	}

	curGC := make(map[string]BenchGroupCommit, len(cur.GroupCommit))
	for _, g := range cur.GroupCommit {
		curGC[fmt.Sprintf("groupcommit/b%d/s%d", g.BatchSize, g.Shards)] = g
	}
	for _, b := range base.GroupCommit {
		key := fmt.Sprintf("groupcommit/b%d/s%d", b.BatchSize, b.Shards)
		c, ok := curGC[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("ops/sec", key, b.OpsPerSec, c.OpsPerSec, false)
		worse("fences/op", key, b.FencesPerOp, c.FencesPerOp, true)
		worse("flushes/op", key, b.FlushesPerOp, c.FlushesPerOp, true)
	}

	shardedKey := func(s BenchSharded) string {
		mode := "perop"
		if s.CrossShard {
			mode = fmt.Sprintf("cross/b%d", s.BatchSize)
		} else if s.BatchSize > 1 {
			mode = fmt.Sprintf("batch/b%d", s.BatchSize)
		}
		return fmt.Sprintf("sharded/s%d/w%d/%s", s.Shards, s.Writers, mode)
	}
	curSh := make(map[string]BenchSharded, len(cur.Sharded))
	for _, s := range cur.Sharded {
		curSh[shardedKey(s)] = s
	}
	for _, b := range base.Sharded {
		key := shardedKey(b)
		c, ok := curSh[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("ops/sec", key, b.OpsPerSec, c.OpsPerSec, false)
		worse("fences/op", key, b.FencesPerOp, c.FencesPerOp, true)
		worse("flushes/op", key, b.FlushesPerOp, c.FlushesPerOp, true)
	}

	curTr := make(map[int]BenchTransient, len(cur.Transient))
	for _, t := range cur.Transient {
		curTr[t.OpsPerFASE] = t
	}
	for _, b := range base.Transient {
		key := fmt.Sprintf("transient/b%d", b.OpsPerFASE)
		c, ok := curTr[b.OpsPerFASE]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("ops/sec", key, b.OpsPerSec, c.OpsPerSec, false)
		worse("fences/op", key, b.FencesPerOp, c.FencesPerOp, true)
		worse("flushes/op", key, b.FlushesPerOp, c.FlushesPerOp, true)
		worse("copies/op", key, b.CopiesPerOp, c.CopiesPerOp, true)
	}

	curSel := make(map[string]BenchSelective, len(cur.Selective))
	for _, s := range cur.Selective {
		curSel[selectiveRowKey(s.Structure, s.Selective, s.OpsPerFASE)] = s
	}
	for _, b := range base.Selective {
		key := selectiveRowKey(b.Structure, b.Selective, b.OpsPerFASE)
		c, ok := curSel[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("ops/sec", key, b.OpsPerSec, c.OpsPerSec, false)
		worse("fences/op", key, b.FencesPerOp, c.FencesPerOp, true)
		worse("flushes/op", key, b.FlushesPerOp, c.FlushesPerOp, true)
		worse("copies/op", key, b.CopiesPerOp, c.CopiesPerOp, true)
	}

	// Server rows are wall-clock and nondeterministic: only their
	// presence is checked, never their values.
	curSrv := make(map[int]bool, len(cur.Server))
	for _, s := range cur.Server {
		curSrv[s.Clients] = true
	}
	for _, b := range base.Server {
		if !curSrv[b.Clients] {
			regressions = append(regressions,
				fmt.Sprintf("server/c%d: row missing from current report", b.Clients))
		}
	}

	// Mmap rows are wall-clock like the server sweep: presence is
	// checked, values never are.
	curMm := make(map[string]bool, len(cur.Mmap))
	for _, m := range cur.Mmap {
		curMm[m.Workload] = true
	}
	for _, b := range base.Mmap {
		if !curMm[b.Workload] {
			regressions = append(regressions,
				fmt.Sprintf("mmap/%s: row missing from current report", b.Workload))
		}
	}

	// Contention rows: the mutex baseline columns are deterministic and
	// gate against the baseline report; the cas columns depend on real
	// goroutine interleaving, so they gate against absolute floors — the
	// acceptance bar itself — rather than run-to-run ratios.
	curCt := make(map[int]BenchContention, len(cur.Contention))
	for _, c := range cur.Contention {
		curCt[c.Writers] = c
	}
	for _, b := range base.Contention {
		key := fmt.Sprintf("contention/w%d", b.Writers)
		c, ok := curCt[b.Writers]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("mutex ops/sec", key, b.MutexOpsPerSec, c.MutexOpsPerSec, false)
		worse("mutex fences/op", key, b.MutexFencesPerOp, c.MutexFencesPerOp, true)
	}
	if w1, ok := curCt[1]; ok {
		for _, c := range cur.Contention {
			key := fmt.Sprintf("contention/w%d", c.Writers)
			if c.Writers >= 8 && c.Speedup < 2 {
				regressions = append(regressions,
					fmt.Sprintf("%s: speedup %.2fx below the 2x same-root scaling floor", key, c.Speedup))
			}
			if w1.CasFencesPerOp > 0 && c.CasFencesPerOp > w1.CasFencesPerOp*(1+tol) {
				regressions = append(regressions,
					fmt.Sprintf("%s: cas fences/op %.4g above the W=1 level %.4g (tolerance %.0f%%)",
						key, c.CasFencesPerOp, w1.CasFencesPerOp, tol*100))
			}
		}
	}

	curRec := make(map[string]BenchRecovery, len(cur.Recovery))
	for _, r := range cur.Recovery {
		curRec[recoveryRowKey(r.Structure, r.Selective, r.OpsPerFASE)] = r
	}
	for _, b := range base.Recovery {
		key := recoveryRowKey(b.Structure, b.Selective, b.OpsPerFASE)
		c, ok := curRec[key]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", key))
			continue
		}
		worse("recovery_ns", key, b.RecoveryNs, c.RecoveryNs, true)
	}
	return regressions
}

// CompareBenchOrdering asserts the §13 ordering-neutrality contract
// exactly: node checksums are written inside each FASE's existing
// flush+fence envelope, so the raw fence and flush counts of every
// single-threaded deterministic sweep must be bit-identical to the
// baseline — not merely within tolerance. Multi-writer and wall-clock
// sweeps (sharded with writers > 1, server, contention cas columns,
// the concurrent sweep) depend on goroutine interleaving and are
// excluded. Rows missing on either side are ignored here;
// CompareBenchDocs already reports those.
func CompareBenchOrdering(base, cur *BenchDoc) []string {
	var drift []string
	exact := func(key string, baseF, baseFl, curF, curFl uint64) {
		if baseF != curF {
			drift = append(drift, fmt.Sprintf("%s: fences %d -> %d (exact ordering gate)", key, baseF, curF))
		}
		if baseFl != curFl {
			drift = append(drift, fmt.Sprintf("%s: flushes %d -> %d (exact ordering gate)", key, baseFl, curFl))
		}
	}

	curWorkloads := make(map[string]BenchWorkload, len(cur.Workloads))
	for _, w := range cur.Workloads {
		curWorkloads[w.Workload+"/"+w.Engine] = w
	}
	for _, b := range base.Workloads {
		key := b.Workload + "/" + b.Engine
		if c, ok := curWorkloads[key]; ok {
			exact(key, b.Fences, b.Flushes, c.Fences, c.Flushes)
		}
	}

	curGC := make(map[string]BenchGroupCommit, len(cur.GroupCommit))
	for _, g := range cur.GroupCommit {
		curGC[fmt.Sprintf("groupcommit/b%d/s%d", g.BatchSize, g.Shards)] = g
	}
	for _, b := range base.GroupCommit {
		key := fmt.Sprintf("groupcommit/b%d/s%d", b.BatchSize, b.Shards)
		if c, ok := curGC[key]; ok {
			exact(key, b.Fences, b.Flushes, c.Fences, c.Flushes)
		}
	}

	curTr := make(map[int]BenchTransient, len(cur.Transient))
	for _, t := range cur.Transient {
		curTr[t.OpsPerFASE] = t
	}
	for _, b := range base.Transient {
		if c, ok := curTr[b.OpsPerFASE]; ok {
			exact(fmt.Sprintf("transient/b%d", b.OpsPerFASE), b.Fences, b.Flushes, c.Fences, c.Flushes)
		}
	}

	curSel := make(map[string]BenchSelective, len(cur.Selective))
	for _, s := range cur.Selective {
		curSel[selectiveRowKey(s.Structure, s.Selective, s.OpsPerFASE)] = s
	}
	for _, b := range base.Selective {
		key := selectiveRowKey(b.Structure, b.Selective, b.OpsPerFASE)
		if c, ok := curSel[key]; ok {
			exact(key, b.Fences, b.Flushes, c.Fences, c.Flushes)
		}
	}
	return drift
}

func selectiveRowKey(structure string, selective bool, opsPerFASE int) string {
	mode := "all"
	if selective {
		mode = "sel"
	}
	return fmt.Sprintf("selective/%s/%s/b%d", structure, mode, opsPerFASE)
}

func recoveryRowKey(structure string, selective bool, opsPerFASE int) string {
	mode := "all"
	if selective {
		mode = "sel"
	}
	return fmt.Sprintf("recovery/%s/%s/b%d", structure, mode, opsPerFASE)
}

// benchRowKeys returns the set of deterministic row keys in a report
// (the nondeterministic concurrent sweep is excluded, matching
// CompareBenchDocs).
func benchRowKeys(doc *BenchDoc) map[string]bool {
	keys := make(map[string]bool)
	for _, w := range doc.Workloads {
		keys[w.Workload+"/"+w.Engine] = true
	}
	for _, g := range doc.GroupCommit {
		keys[fmt.Sprintf("groupcommit/b%d/s%d", g.BatchSize, g.Shards)] = true
	}
	for _, s := range doc.Sharded {
		mode := "perop"
		if s.CrossShard {
			mode = fmt.Sprintf("cross/b%d", s.BatchSize)
		} else if s.BatchSize > 1 {
			mode = fmt.Sprintf("batch/b%d", s.BatchSize)
		}
		keys[fmt.Sprintf("sharded/s%d/w%d/%s", s.Shards, s.Writers, mode)] = true
	}
	for _, t := range doc.Transient {
		keys[fmt.Sprintf("transient/b%d", t.OpsPerFASE)] = true
	}
	for _, s := range doc.Selective {
		keys[selectiveRowKey(s.Structure, s.Selective, s.OpsPerFASE)] = true
	}
	for _, r := range doc.Recovery {
		keys[recoveryRowKey(r.Structure, r.Selective, r.OpsPerFASE)] = true
	}
	for _, s := range doc.Server {
		keys[fmt.Sprintf("server/c%d", s.Clients)] = true
	}
	for _, c := range doc.Contention {
		keys[fmt.Sprintf("contention/w%d", c.Writers)] = true
	}
	for _, m := range doc.Mmap {
		keys["mmap/"+m.Workload] = true
	}
	return keys
}

// BenchNewRows returns the deterministic row keys present in cur but
// absent from base, sorted by first appearance in cur. A non-empty
// result means the baseline is stale: new rows carry no gate until the
// baseline is regenerated, so cmd/benchdiff fails on them by default
// (-allow-new downgrades the failure to a warning).
func BenchNewRows(base, cur *BenchDoc) []string {
	baseKeys := benchRowKeys(base)
	var fresh []string
	seen := make(map[string]bool)
	appendKey := func(key string) {
		if !baseKeys[key] && !seen[key] {
			seen[key] = true
			fresh = append(fresh, key)
		}
	}
	for _, w := range cur.Workloads {
		appendKey(w.Workload + "/" + w.Engine)
	}
	for _, g := range cur.GroupCommit {
		appendKey(fmt.Sprintf("groupcommit/b%d/s%d", g.BatchSize, g.Shards))
	}
	for _, s := range cur.Sharded {
		mode := "perop"
		if s.CrossShard {
			mode = fmt.Sprintf("cross/b%d", s.BatchSize)
		} else if s.BatchSize > 1 {
			mode = fmt.Sprintf("batch/b%d", s.BatchSize)
		}
		appendKey(fmt.Sprintf("sharded/s%d/w%d/%s", s.Shards, s.Writers, mode))
	}
	for _, t := range cur.Transient {
		appendKey(fmt.Sprintf("transient/b%d", t.OpsPerFASE))
	}
	for _, s := range cur.Selective {
		appendKey(selectiveRowKey(s.Structure, s.Selective, s.OpsPerFASE))
	}
	for _, r := range cur.Recovery {
		appendKey(recoveryRowKey(r.Structure, r.Selective, r.OpsPerFASE))
	}
	for _, s := range cur.Server {
		appendKey(fmt.Sprintf("server/c%d", s.Clients))
	}
	for _, c := range cur.Contention {
		appendKey(fmt.Sprintf("contention/w%d", c.Writers))
	}
	for _, m := range cur.Mmap {
		appendKey("mmap/" + m.Workload)
	}
	return fresh
}
