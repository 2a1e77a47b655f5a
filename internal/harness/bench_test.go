package harness

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/mod-ds/mod/internal/workloads"
)

// benchTestScale keeps the report-path test fast while still producing
// non-degenerate metrics in every row.
func benchTestScale() Scale {
	return Scale{Ops: 200, VectorPreload: 200, Table3N: 200, PerOpSamples: 50}
}

func TestBuildBenchDocSchema(t *testing.T) {
	doc, err := BuildBenchDoc("test", benchTestScale())
	if err != nil {
		t.Fatalf("BuildBenchDoc: %v", err)
	}
	if doc.Schema != BenchSchema {
		t.Errorf("schema = %d, want %d", doc.Schema, BenchSchema)
	}
	if doc.Scale != "test" || doc.Ops != 200 {
		t.Errorf("scale/ops = %q/%d, want test/200", doc.Scale, doc.Ops)
	}
	if len(doc.Workloads) == 0 || len(doc.Concurrent) == 0 || len(doc.GroupCommit) == 0 {
		t.Fatalf("empty sections: %d workloads, %d concurrent, %d groupcommit",
			len(doc.Workloads), len(doc.Concurrent), len(doc.GroupCommit))
	}
	for _, w := range doc.Workloads {
		if w.Workload == "" || w.Engine == "" {
			t.Errorf("workload row missing identity: %+v", w)
		}
		if w.Ops <= 0 || w.SimNs <= 0 || w.OpsPerSec <= 0 || w.Fences == 0 || w.Flushes == 0 {
			t.Errorf("workload %s/%s has zero metrics: %+v", w.Workload, w.Engine, w)
		}
	}
	for _, g := range doc.GroupCommit {
		if g.BatchSize <= 0 || g.Shards <= 0 || g.Ops <= 0 || g.Batches == 0 ||
			g.Fences == 0 || g.Flushes == 0 || g.ElapsedNs <= 0 ||
			g.OpsPerSec <= 0 || g.FencesPerOp <= 0 || g.FlushesPerOp <= 0 {
			t.Errorf("groupcommit b=%d s=%d has zero metrics: %+v", g.BatchSize, g.Shards, g)
		}
	}
	if len(doc.Transient) != len(TransientOpsPerFASE) {
		t.Fatalf("transient rows = %d, want %d", len(doc.Transient), len(TransientOpsPerFASE))
	}
	for _, tr := range doc.Transient {
		if tr.OpsPerFASE <= 0 || tr.Ops <= 0 || tr.Fences == 0 || tr.Flushes == 0 ||
			tr.Copies == 0 || tr.ElapsedNs <= 0 || tr.OpsPerSec <= 0 ||
			tr.FlushesPerOp <= 0 || tr.CopiesPerOp <= 0 {
			t.Errorf("transient b=%d has zero metrics: %+v", tr.OpsPerFASE, tr)
		}
		if tr.OpsPerFASE > 1 && tr.CopiesElided == 0 {
			t.Errorf("transient b=%d elided no copies", tr.OpsPerFASE)
		}
	}
	for _, c := range doc.Concurrent {
		if c.Readers <= 0 || c.OpsPerSec <= 0 || c.ElapsedNs <= 0 {
			t.Errorf("concurrent r=%d has zero metrics: %+v", c.Readers, c)
		}
	}
	wantSharded := len(ShardedWriterCounts)*len(ShardedShardCounts) + len(ShardedCrossShardCounts)
	if len(doc.Sharded) != wantSharded {
		t.Fatalf("sharded rows = %d, want %d", len(doc.Sharded), wantSharded)
	}
	for _, s := range doc.Sharded {
		if s.Shards <= 0 || s.Writers <= 0 || s.Ops <= 0 || s.Fences == 0 ||
			s.Flushes == 0 || s.ElapsedNs <= 0 || s.OpsPerSec <= 0 {
			t.Errorf("sharded s=%d w=%d has zero metrics: %+v", s.Shards, s.Writers, s)
		}
	}
	if len(doc.Server) != len(ServerClientCounts) {
		t.Fatalf("server rows = %d, want %d", len(doc.Server), len(ServerClientCounts))
	}
	for _, s := range doc.Server {
		if s.Clients <= 0 || s.Ops <= 0 || s.OpsPerSec <= 0 || s.ElapsedNs <= 0 ||
			s.Fences == 0 || s.FencesPerOp <= 0 || s.P50Ns <= 0 || s.P99Ns <= 0 {
			t.Errorf("server c=%d has zero metrics: %+v", s.Clients, s)
		}
		if s.Errors != 0 {
			t.Errorf("server c=%d reported %d errored ops", s.Clients, s.Errors)
		}
	}
	wantSelective := len(SelectiveStructures) * 2 * len(SelectiveOpsPerFASE)
	if len(doc.Selective) != wantSelective || len(doc.Recovery) != wantSelective {
		t.Fatalf("selective/recovery rows = %d/%d, want %d each",
			len(doc.Selective), len(doc.Recovery), wantSelective)
	}
	for i, s := range doc.Selective {
		if s.Structure == "" || s.OpsPerFASE <= 0 || s.Ops <= 0 || s.Fences == 0 ||
			s.Flushes == 0 || s.ElapsedNs <= 0 || s.OpsPerSec <= 0 || s.FlushesPerOp <= 0 {
			t.Errorf("selective %s sel=%v b=%d has zero metrics: %+v", s.Structure, s.Selective, s.OpsPerFASE, s)
		}
		r := doc.Recovery[i]
		if r.Structure != s.Structure || r.Selective != s.Selective || r.OpsPerFASE != s.OpsPerFASE {
			t.Errorf("recovery row %d does not mirror its selective row: %+v vs %+v", i, r, s)
		}
		if r.RecoveryNs <= 0 {
			t.Errorf("recovery %s sel=%v b=%d reported no simulated time", r.Structure, r.Selective, r.OpsPerFASE)
		}
		if s.Selective && r.RebuiltNodes == 0 {
			t.Errorf("recovery %s sel b=%d rebuilt no nodes", r.Structure, r.OpsPerFASE)
		}
		if !s.Selective && r.RebuiltNodes != 0 {
			t.Errorf("recovery %s persist-all b=%d rebuilt %d nodes (want 0)", r.Structure, r.OpsPerFASE, r.RebuiltNodes)
		}
	}
}

// TestBenchShardedScaling pins the tentpole's two headline properties
// in the gated report: per-op fences/op is exactly 1 at every shard
// count, and aggregate ops/sec at S=4 with 4 writers is at least 2x the
// single-shard run with the same writers.
func TestBenchShardedScaling(t *testing.T) {
	doc, err := BuildBenchDoc("test", benchTestScale())
	if err != nil {
		t.Fatalf("BuildBenchDoc: %v", err)
	}
	byKey := map[string]BenchSharded{}
	for _, s := range doc.Sharded {
		if !s.CrossShard && s.FencesPerOp != 1.0 {
			t.Errorf("per-op row s=%d w=%d: fences/op = %v, want exactly 1", s.Shards, s.Writers, s.FencesPerOp)
		}
		byKey[fmt.Sprintf("s%d/w%d/cross=%v", s.Shards, s.Writers, s.CrossShard)] = s
	}
	base, ok1 := byKey["s1/w4/cross=false"]
	wide, ok4 := byKey["s4/w4/cross=false"]
	if !ok1 || !ok4 {
		t.Fatalf("sweep missing S=1/W=4 or S=4/W=4 rows: %v", byKey)
	}
	if speedup := wide.OpsPerSec / base.OpsPerSec; speedup < 2 {
		t.Errorf("S=4/W=4 speedup = %.2fx over S=1/W=4, want >= 2x", speedup)
	}
}

// TestBenchContentionScaling pins the acceptance floor of the two-tier
// commit path (DESIGN.md §12): with 8 writers hammering ONE shared map
// root, optimistic CAS publication with the flat-combining fallback
// must beat the mutex-serialized baseline by at least 2x in ops per
// simulated second, while paying no more fences per op than the
// uncontended W=1 run — scaling must come from parallel shadow builds
// and fence amortization, never from skipping ordering points.
func TestBenchContentionScaling(t *testing.T) {
	scale := benchTestScale()
	w1, err := workloads.RunContention(ContentionBenchConfig(scale, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	m8, err := workloads.RunContention(ContentionBenchConfig(scale, 8, true))
	if err != nil {
		t.Fatal(err)
	}
	c8, err := workloads.RunContention(ContentionBenchConfig(scale, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	if speedup := c8.OpsPerSec / m8.OpsPerSec; speedup < 2 {
		t.Errorf("W=8 two-tier speedup = %.2fx over mutex baseline (%.0f vs %.0f ops/s), want >= 2x",
			speedup, c8.OpsPerSec, m8.OpsPerSec)
	}
	// Small slack: a rare post-fence CAS loss pays a fence without
	// committing an op, which is legal but must stay marginal.
	if c8.FencesPerOp > w1.FencesPerOp*1.05 {
		t.Errorf("W=8 fences/op = %.3f exceeds W=1 level %.3f", c8.FencesPerOp, w1.FencesPerOp)
	}
	// Every measured op must be accounted to exactly one commit tier.
	cs := c8.Commit
	if got := cs.FastWins + cs.CombinedOps + cs.LockedCommits; got != uint64(c8.Ops) {
		t.Errorf("commit tiers account for %d ops (wins %d + combined %d + locked %d), want %d",
			got, cs.FastWins, cs.CombinedOps, cs.LockedCommits, c8.Ops)
	}
	// The baseline serializes its writers outside the engine, which then
	// sees one uncontended writer: every op a first-try CAS win.
	if ms := m8.Commit; ms.FastWins != uint64(m8.Ops) || ms.FastAborts != 0 || ms.FastLosses != 0 || ms.Combines != 0 {
		t.Errorf("mutex baseline of %d ops was not serialized: %+v", m8.Ops, ms)
	}
}

// TestBenchGroupCommitFenceAmortization pins the headline property the
// regression gate protects: fences/op falls monotonically with batch
// size and is at least 2x lower at batch 64 than unbatched.
func TestBenchGroupCommitFenceAmortization(t *testing.T) {
	doc, err := BuildBenchDoc("test", benchTestScale())
	if err != nil {
		t.Fatalf("BuildBenchDoc: %v", err)
	}
	perShard := map[int][]BenchGroupCommit{}
	for _, g := range doc.GroupCommit {
		perShard[g.Shards] = append(perShard[g.Shards], g)
	}
	for shards, rows := range perShard {
		var at1, at64 float64
		for i := 1; i < len(rows); i++ {
			if rows[i].BatchSize <= rows[i-1].BatchSize {
				t.Fatalf("shards=%d: rows not in ascending batch order", shards)
			}
			if rows[i].FencesPerOp >= rows[i-1].FencesPerOp {
				t.Errorf("shards=%d: fences/op not monotonically decreasing: b=%d has %.4f, b=%d has %.4f",
					shards, rows[i-1].BatchSize, rows[i-1].FencesPerOp, rows[i].BatchSize, rows[i].FencesPerOp)
			}
		}
		for _, g := range rows {
			switch g.BatchSize {
			case 1:
				at1 = g.FencesPerOp
			case 64:
				at64 = g.FencesPerOp
			}
		}
		if at1 == 0 || at64 == 0 {
			t.Fatalf("shards=%d: sweep missing batch sizes 1 and 64", shards)
		}
		if at64 > at1/2 {
			t.Errorf("shards=%d: fences/op at batch=64 is %.4f, want <= half of batch=1's %.4f", shards, at64, at1)
		}
	}
}

// TestBenchTransientElision pins the headline property of the edit
// context: flushes/op and copies/op at 64 ops-per-FASE are at least 2x
// lower than unbatched, and both fall monotonically with FASE size.
func TestBenchTransientElision(t *testing.T) {
	doc, err := BuildBenchDoc("test", benchTestScale())
	if err != nil {
		t.Fatalf("BuildBenchDoc: %v", err)
	}
	byB := map[int]BenchTransient{}
	for i, tr := range doc.Transient {
		byB[tr.OpsPerFASE] = tr
		if i > 0 {
			prev := doc.Transient[i-1]
			if tr.OpsPerFASE <= prev.OpsPerFASE {
				t.Fatal("transient rows not in ascending ops-per-FASE order")
			}
			if tr.FlushesPerOp >= prev.FlushesPerOp {
				t.Errorf("flushes/op not falling: b=%d has %.2f, b=%d has %.2f",
					prev.OpsPerFASE, prev.FlushesPerOp, tr.OpsPerFASE, tr.FlushesPerOp)
			}
			if tr.CopiesPerOp >= prev.CopiesPerOp {
				t.Errorf("copies/op not falling: b=%d has %.2f, b=%d has %.2f",
					prev.OpsPerFASE, prev.CopiesPerOp, tr.OpsPerFASE, tr.CopiesPerOp)
			}
		}
	}
	at1, at64 := byB[1], byB[64]
	if at1.OpsPerFASE == 0 || at64.OpsPerFASE == 0 {
		t.Fatal("sweep missing ops-per-FASE 1 and 64")
	}
	if at64.FlushesPerOp > at1.FlushesPerOp/2 {
		t.Errorf("flushes/op at b=64 is %.2f, want <= half of b=1's %.2f", at64.FlushesPerOp, at1.FlushesPerOp)
	}
	if at64.CopiesPerOp > at1.CopiesPerOp/2 {
		t.Errorf("copies/op at b=64 is %.2f, want <= half of b=1's %.2f", at64.CopiesPerOp, at1.CopiesPerOp)
	}
}

// TestServerFenceAmortization pins the server sweep's headline shape
// with a deterministic margin: concurrent clients' durability tickets
// coalesce into shared committer fence epochs, so fences per acked
// write at 16 clients must be at most half the single-client cost
// (measured curves sit far below that — roughly 2.0 at C=1 and under
// 0.5 at C=16).
func TestServerFenceAmortization(t *testing.T) {
	scale := Scale{Ops: 4_000}
	one, err := RunServerBench(scale, 1)
	if err != nil {
		t.Fatalf("RunServerBench c=1: %v", err)
	}
	many, err := RunServerBench(scale, 16)
	if err != nil {
		t.Fatalf("RunServerBench c=16: %v", err)
	}
	if one.FencesPerOp <= 0 || many.FencesPerOp <= 0 {
		t.Fatalf("degenerate fence counts: c1=%v c16=%v", one.FencesPerOp, many.FencesPerOp)
	}
	if many.FencesPerOp > one.FencesPerOp/2 {
		t.Errorf("fences/op at 16 clients = %.3f, want <= half of 1 client's %.3f",
			many.FencesPerOp, one.FencesPerOp)
	}
}

func TestBenchDocRoundTripAndValidation(t *testing.T) {
	doc, err := BuildBenchDoc("test", benchTestScale())
	if err != nil {
		t.Fatalf("BuildBenchDoc: %v", err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteBenchDoc(doc, path); err != nil {
		t.Fatalf("WriteBenchDoc: %v", err)
	}
	got, err := ReadBenchDoc(path)
	if err != nil {
		t.Fatalf("ReadBenchDoc: %v", err)
	}
	if len(got.Workloads) != len(doc.Workloads) || len(got.GroupCommit) != len(doc.GroupCommit) {
		t.Errorf("round trip lost rows: %d/%d workloads, %d/%d groupcommit",
			len(got.Workloads), len(doc.Workloads), len(got.GroupCommit), len(doc.GroupCommit))
	}
	// The gate must reject documents that would silently diff as empty.
	bad := filepath.Join(t.TempDir(), "empty.json")
	if err := WriteBenchDoc(&BenchDoc{Schema: BenchSchema}, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBenchDoc(bad); err == nil {
		t.Error("ReadBenchDoc accepted a report with no workload rows")
	}
}

func TestCompareBenchDocs(t *testing.T) {
	base := &BenchDoc{
		Schema: BenchSchema, Scale: "test", Ops: 100,
		Workloads: []BenchWorkload{
			{Workload: "map", Engine: "mod", Ops: 100, SimNs: 1e6, OpsPerSec: 1e5, Fences: 100, Flushes: 1000},
			{Workload: "set", Engine: "mod", Ops: 100, SimNs: 1e6, OpsPerSec: 1e5, Fences: 100, Flushes: 1000},
		},
		GroupCommit: []BenchGroupCommit{
			{BatchSize: 64, Shards: 1, Ops: 100, Batches: 2, Fences: 2, Flushes: 1000,
				FencesPerOp: 0.02, FlushesPerOp: 10, ElapsedNs: 1e6, OpsPerSec: 1e5},
		},
		Transient: []BenchTransient{
			{OpsPerFASE: 64, Ops: 100, Fences: 5, Flushes: 300, Copies: 160,
				FencesPerOp: 0.05, FlushesPerOp: 3, CopiesPerOp: 1.6, ElapsedNs: 1e6, OpsPerSec: 1e5},
		},
		Sharded: []BenchSharded{
			{Shards: 4, Writers: 4, BatchSize: 1, Ops: 100, Fences: 100, Flushes: 1000,
				FencesPerOp: 1, FlushesPerOp: 10, ElapsedNs: 1e6, OpsPerSec: 4e5},
		},
		Selective: []BenchSelective{
			{Structure: "map", Selective: true, OpsPerFASE: 64, Ops: 100, Fences: 2, Flushes: 400,
				FencesPerOp: 0.02, FlushesPerOp: 4, CopiesPerOp: 5, ElapsedNs: 1e6, OpsPerSec: 1e5},
		},
		Recovery: []BenchRecovery{
			{Structure: "map", Selective: true, OpsPerFASE: 64, Ops: 100, RecoveryNs: 2e6, RebuiltNodes: 100},
		},
		Server: []BenchServer{
			{Clients: 16, Ops: 1000, ElapsedNs: 1e8, P50Ns: 5e4, P99Ns: 5e5, P999Ns: 1e6,
				OpsPerSec: 1e4, Fences: 100, FencesPerOp: 0.1},
		},
	}
	clone := func() *BenchDoc {
		data, _ := json.Marshal(base)
		var c BenchDoc
		json.Unmarshal(data, &c)
		return &c
	}

	if regs := CompareBenchDocs(base, clone(), 0.15); len(regs) != 0 {
		t.Errorf("identical docs flagged: %v", regs)
	}

	cur := clone()
	cur.Workloads[0].OpsPerSec *= 0.80 // -20% throughput
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("ops/sec drop not flagged exactly once: %v", regs)
	}
	if regs := CompareBenchDocs(base, cur, 0.30); len(regs) != 0 {
		t.Errorf("drop within widened tolerance flagged: %v", regs)
	}

	cur = clone()
	cur.Workloads[1].Fences = 130 // +30% fences/op
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("fences/op rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.GroupCommit[0].FencesPerOp = 0.08 // batched fences regressed 4x
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("groupcommit fences/op rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Workloads[0].Flushes = 1300 // +30% flushes/op
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("flushes/op rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Transient[0].CopiesPerOp = 2.4 // copy elision regressed 50%
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("transient copies/op rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Transient = nil
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("missing transient row not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Workloads = cur.Workloads[:1]
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("missing row not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Sharded[0].OpsPerSec *= 0.7 // sharded aggregate throughput regressed
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("sharded ops/sec drop not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Sharded[0].FencesPerOp = 1.5 // single-shard fence economy broken
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("sharded fences/op rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Sharded = nil
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("missing sharded row not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Selective[0].FlushesPerOp = 6 // selective flush advantage regressed 50%
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("selective flushes/op rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Recovery[0].RecoveryNs = 4e6 // recovery rebuild doubled
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("recovery_ns rise not flagged exactly once: %v", regs)
	}

	cur = clone()
	cur.Selective = nil
	cur.Recovery = nil
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 2 {
		t.Errorf("missing selective+recovery rows not flagged exactly twice: %v", regs)
	}

	// Server rows: wall-clock values are never gated, only presence.
	cur = clone()
	cur.Server[0].OpsPerSec *= 0.1
	cur.Server[0].FencesPerOp *= 100
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 0 {
		t.Errorf("nondeterministic server values gated: %v", regs)
	}
	cur = clone()
	cur.Server = nil
	if regs := CompareBenchDocs(base, cur, 0.15); len(regs) != 1 {
		t.Errorf("missing server row not flagged exactly once: %v", regs)
	}
}

func TestBenchNewRows(t *testing.T) {
	base := &BenchDoc{
		Schema: BenchSchema, Scale: "test", Ops: 100,
		Workloads: []BenchWorkload{
			{Workload: "map", Engine: "mod", Ops: 100, SimNs: 1e6, OpsPerSec: 1e5, Fences: 100, Flushes: 1000},
		},
	}
	cur := &BenchDoc{
		Schema: BenchSchema, Scale: "test", Ops: 100,
		Workloads: []BenchWorkload{
			{Workload: "map", Engine: "mod", Ops: 100, SimNs: 1e6, OpsPerSec: 1e5, Fences: 100, Flushes: 1000},
		},
		Selective: []BenchSelective{
			{Structure: "map", Selective: true, OpsPerFASE: 64, Ops: 100, Flushes: 400, FlushesPerOp: 4, OpsPerSec: 1e5},
		},
		Recovery: []BenchRecovery{
			{Structure: "map", Selective: true, OpsPerFASE: 64, Ops: 100, RecoveryNs: 2e6, RebuiltNodes: 100},
		},
		Server: []BenchServer{
			{Clients: 16, Ops: 1000, OpsPerSec: 1e4, Fences: 100, FencesPerOp: 0.1},
		},
	}
	if fresh := BenchNewRows(base, base); len(fresh) != 0 {
		t.Errorf("identical docs reported new rows: %v", fresh)
	}
	fresh := BenchNewRows(base, cur)
	want := []string{"selective/map/sel/b64", "recovery/map/sel/b64", "server/c16"}
	if len(fresh) != len(want) || fresh[0] != want[0] || fresh[1] != want[1] || fresh[2] != want[2] {
		t.Errorf("BenchNewRows = %v, want %v", fresh, want)
	}
	// Symmetric direction: rows only in base are CompareBenchDocs'
	// business, not new rows.
	if fresh := BenchNewRows(cur, base); len(fresh) != 0 {
		t.Errorf("rows missing from current flagged as new: %v", fresh)
	}
}
