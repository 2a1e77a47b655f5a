package harness

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/workloads"
)

// benchTestScale keeps the report-path test fast while still producing
// non-degenerate metrics in every row.
func benchTestScale() Scale {
	return Scale{Ops: 200, VectorPreload: 200, Table3N: 200, PerOpSamples: 50}
}

var testDoc = sync.OnceValues(func() (*BenchDoc, error) {
	return BuildBenchDoc("test", benchTestScale())
})

// benchDoc returns the report at benchTestScale, built once per test
// binary, with its rows indexed by key.
func benchDoc(t *testing.T) (*BenchDoc, map[string]workloads.Row) {
	t.Helper()
	doc, err := testDoc()
	if err != nil {
		t.Fatalf("BuildBenchDoc: %v", err)
	}
	byKey := make(map[string]workloads.Row, len(doc.Rows))
	for _, r := range doc.Rows {
		byKey[r.Key] = r
	}
	return doc, byKey
}

// sweepRows returns the document's rows of one key namespace, in order.
func sweepRows(doc *BenchDoc, prefix string) []workloads.Row {
	return doc.filter(func(r workloads.Row) bool { return strings.HasPrefix(r.Key, prefix) }).Rows
}

func TestBuildBenchDocSchema(t *testing.T) {
	doc, byKey := benchDoc(t)
	if doc.Schema != BenchSchema {
		t.Errorf("schema = %d, want %d", doc.Schema, BenchSchema)
	}
	if doc.Scale != "test" || doc.Ops != 200 {
		t.Errorf("scale/ops = %q/%d, want test/200", doc.Scale, doc.Ops)
	}
	if len(byKey) != len(doc.Rows) {
		t.Errorf("%d rows share %d keys: row keys must be unique across the whole document", len(doc.Rows), len(byKey))
	}
	selective := len(SelectiveStructures) * 2 * len(SelectiveOpsPerFASE)
	for _, want := range []struct {
		prefix string
		gate   workloads.Gate
		rows   int
	}{
		{"groupcommit/", workloads.GateExact, len(GroupCommitShardCounts) * len(GroupCommitBatchSizes)},
		{"groupcommit/", workloads.GateInfo, 1}, // the async row
		{"transient/", workloads.GateExact, len(TransientOpsPerFASE)},
		{"sharded/", workloads.GateExact, len(ShardedWriterCounts)*len(ShardedShardCounts) + len(ShardedCrossShardCounts)},
		{"sharded/", workloads.GateInfo, 1}, // the parallel row
		{"selective/", workloads.GateExact, selective},
		{"recovery/", workloads.GateExact, selective},
		{"concurrent/", workloads.GateInfo, len(ConcurrentReaderCounts)},
		{"server/", workloads.GateInfo, len(ServerClientCounts)},
		{"contention/", workloads.GateRatio, len(ContentionWriterCounts)}, // mutex rows
		{"contention/", workloads.GateFloor, len(ContentionWriterCounts)}, // cas rows
		{"mmap/", workloads.GateInfo, 0},                                  // BenchBackend is "sim"
	} {
		n := 0
		for _, r := range sweepRows(doc, want.prefix) {
			if r.Gate == want.gate {
				n++
			}
		}
		if n != want.rows {
			t.Errorf("%s: %d %s rows, want %d", want.prefix, n, want.gate, want.rows)
		}
	}
	// What is left is the Table 2 suite on every engine (fig9's rows).
	suite := 0
	for _, name := range workloads.Names {
		for _, engine := range workloads.Engines {
			if r, ok := byKey[name+"/"+engine.String()]; ok && r.Gate == workloads.GateExact {
				suite++
			}
		}
	}
	if want := len(workloads.Names) * len(workloads.Engines); suite != want {
		t.Errorf("%d workload/engine rows, want %d", suite, want)
	}

	for _, r := range doc.Rows {
		if strings.HasPrefix(r.Key, "recovery/") {
			continue
		}
		if r.Ops <= 0 || r.Fences == 0 || r.Flushes == 0 || r.ElapsedNs <= 0 || r.OpsPerSec() <= 0 {
			t.Errorf("%s has zero metrics: %+v", r.Key, r)
		}
	}
	for _, r := range sweepRows(doc, "groupcommit/") {
		if r.Extra["batches"] == 0 {
			t.Errorf("%s committed no batches", r.Key)
		}
	}
	for _, r := range sweepRows(doc, "transient/") {
		if r.Extra["copies"] == 0 {
			t.Errorf("%s copied no nodes", r.Key)
		}
		if r.Key != "transient/b1" && r.Extra["copies_elided"] == 0 {
			t.Errorf("%s elided no copies", r.Key)
		}
	}
	for _, r := range sweepRows(doc, "server/") {
		if r.Extra["p50_ns"] <= 0 || r.Extra["p99_ns"] <= 0 {
			t.Errorf("%s has no latency percentiles: %+v", r.Key, r)
		}
	}
	for _, s := range sweepRows(doc, "selective/") {
		r, ok := byKey["recovery/"+strings.TrimPrefix(s.Key, "selective/")]
		if !ok || r.Ops != s.Ops {
			t.Errorf("%s has no recovery row mirroring it", s.Key)
			continue
		}
		if r.Extra["recovery_ns"] <= 0 {
			t.Errorf("%s reported no simulated time", r.Key)
		}
		if sel := strings.Contains(s.Key, "/sel/"); sel != (r.Extra["rebuilt_nodes"] > 0) {
			t.Errorf("%s rebuilt %.0f nodes (selective: %v)", r.Key, r.Extra["rebuilt_nodes"], sel)
		}
	}
}

// TestRegistry pins what makes a sweep one value: every registry entry
// is an experiment name, exactly once (TestRunAllAndRendering renders
// each under that name), and BuildBenchDoc refuses a sweep that fails or
// returns no rows.
func TestRegistry(t *testing.T) {
	if len(Experiments) != len(registry) {
		t.Fatalf("%d experiment names for %d registry entries", len(Experiments), len(registry))
	}
	seen := map[string]bool{}
	for i, e := range registry {
		if Experiments[i] != e.name || seen[e.name] {
			t.Errorf("registry entry %d (%q) missing from Experiments or listed twice", i, e.name)
		}
		seen[e.name] = true
	}
	// What presence in the baseline used to stand in for.
	saved := registry
	defer func() { registry = saved }()
	registry = []experiment{{name: "empty", gate: workloads.GateExact,
		run: func(Scale) (*Table, []workloads.Row, error) { return &Table{}, nil, nil }}}
	if _, err := BuildBenchDoc("test", benchTestScale()); err == nil {
		t.Error("BuildBenchDoc accepted a sweep that returned no rows")
	}
	registry = []experiment{{name: "failing", gate: workloads.GateInfo,
		run: func(Scale) (*Table, []workloads.Row, error) { return nil, nil, fmt.Errorf("boom") }}}
	if _, err := BuildBenchDoc("test", benchTestScale()); err == nil {
		t.Error("BuildBenchDoc swallowed a sweep's error")
	}
}

// TestBenchShardedScaling pins the tentpole's two headline properties
// in the gated report: per-op fences/op is exactly 1 at every shard
// count, and aggregate ops/sec at S=4 with 4 writers is at least 2x the
// single-shard run with the same writers.
func TestBenchShardedScaling(t *testing.T) {
	doc, byKey := benchDoc(t)
	for _, s := range sweepRows(doc, "sharded/") {
		if strings.HasSuffix(s.Key, "/perop") && s.FencesPerOp() != 1.0 {
			t.Errorf("%s: fences/op = %v, want exactly 1", s.Key, s.FencesPerOp())
		}
	}
	base, ok1 := byKey["sharded/s1/w4/perop"]
	wide, ok4 := byKey["sharded/s4/w4/perop"]
	if !ok1 || !ok4 {
		t.Fatalf("sweep missing S=1/W=4 or S=4/W=4 rows")
	}
	if speedup := wide.OpsPerSec() / base.OpsPerSec(); speedup < 2 {
		t.Errorf("S=4/W=4 speedup = %.2fx over S=1/W=4, want >= 2x", speedup)
	}
}

// TestBenchContentionScaling pins the acceptance floors of the two-tier
// commit path (DESIGN.md §12), the same ones benchdiff holds the cas
// rows to (contentionFloors): with 8 writers hammering ONE shared map
// root, optimistic CAS publication with the flat-combining fallback must
// beat the mutex-serialized baseline by at least 2x in ops per simulated
// second, and every fence it pays must belong to one publication or one
// CAS lost after its fence — scaling must come from parallel shadow
// builds and fence amortization, never from skipping ordering points.
//
// The identity replaces "W=8 fences/op <= 1.05 x the W=1 level", which
// only held while the writers never overlapped: under real overlap a CAS
// lost after its fence wastes that fence (fences/op 1.04-1.10), which is
// legal. What must hold in every schedule is that no fence is skipped
// and none is unaccounted.
func TestBenchContentionScaling(t *testing.T) {
	scale := benchTestScale()
	m8, err := workloads.RunContention(ContentionBenchConfig(scale, 8, true))
	if err != nil {
		t.Fatal(err)
	}
	c8, err := workloads.RunContention(ContentionBenchConfig(scale, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	c8.Extra["writers"] = 8
	c8.Extra["speedup"] = c8.OpsPerSec() / m8.OpsPerSec()
	for _, msg := range contentionFloors(c8) {
		t.Errorf("%s (%.0f vs %.0f ops/s)", msg, c8.OpsPerSec(), m8.OpsPerSec())
	}
	// Every measured op must be accounted to exactly one commit tier.
	if got := c8.Extra["fast_wins"] + c8.Extra["combined_ops"] + c8.Extra["locked_commits"]; got != float64(c8.Ops) {
		t.Errorf("commit tiers account for %.0f ops, want %d: %v", got, c8.Ops, c8.Extra)
	}
	// The baseline serializes its writers outside the engine, which then
	// sees one uncontended writer: every op a first-try CAS win, one
	// fence each — so it meets the same identity.
	if x := m8.Extra; x["fast_wins"] != float64(m8.Ops) || x["fast_aborts"] != 0 || x["fast_losses"] != 0 || x["combines"] != 0 {
		t.Errorf("mutex baseline of %d ops was not serialized: %v", m8.Ops, x)
	}
	if broken := contentionFloors(m8); len(broken) != 0 {
		t.Errorf("mutex baseline: %v", broken)
	}
	// The floors themselves: a skipped fence and a sub-2x speedup at
	// W >= 8 are both caught, and W < 8 carries no speedup floor.
	bad := c8
	bad.Fences--
	if len(contentionFloors(bad)) == 0 {
		t.Error("a publication without its fence passed the identity")
	}
	bad = c8
	bad.Extra = map[string]float64{"writers": 8, "speedup": 1.9, "fast_wins": float64(c8.Fences)}
	if len(contentionFloors(bad)) != 1 {
		t.Errorf("1.9x at W=8: %v", contentionFloors(bad))
	}
	bad.Extra["writers"] = 4
	if len(contentionFloors(bad)) != 0 {
		t.Errorf("1.9x at W=4 is above no floor: %v", contentionFloors(bad))
	}
}

// TestBenchGroupCommitFenceAmortization pins the headline property the
// regression gate protects: fences/op falls monotonically with batch
// size and is at least 2x lower at batch 64 than unbatched.
func TestBenchGroupCommitFenceAmortization(t *testing.T) {
	_, byKey := benchDoc(t)
	for _, shards := range GroupCommitShardCounts {
		var prev workloads.Row
		for i, b := range GroupCommitBatchSizes {
			g, ok := byKey[fmt.Sprintf("groupcommit/b%d/s%d", b, shards)]
			if !ok {
				t.Fatalf("shards=%d: sweep missing batch size %d", shards, b)
			}
			if i > 0 && g.FencesPerOp() >= prev.FencesPerOp() {
				t.Errorf("fences/op not monotonically decreasing: %s has %.4f, %s has %.4f",
					prev.Key, prev.FencesPerOp(), g.Key, g.FencesPerOp())
			}
			prev = g
		}
		at1 := byKey[fmt.Sprintf("groupcommit/b1/s%d", shards)].FencesPerOp()
		at64 := byKey[fmt.Sprintf("groupcommit/b64/s%d", shards)].FencesPerOp()
		if at64 > at1/2 {
			t.Errorf("shards=%d: fences/op at batch=64 is %.4f, want <= half of batch=1's %.4f", shards, at64, at1)
		}
	}
}

// TestBenchTransientElision pins the headline property of the edit
// context: flushes/op and copies/op at 64 ops-per-FASE are at least 2x
// lower than unbatched, and both fall monotonically with FASE size.
func TestBenchTransientElision(t *testing.T) {
	_, byKey := benchDoc(t)
	var prev workloads.Row
	for i, b := range TransientOpsPerFASE {
		tr, ok := byKey[fmt.Sprintf("transient/b%d", b)]
		if !ok {
			t.Fatalf("sweep missing ops-per-FASE %d", b)
		}
		if i > 0 && tr.FlushesPerOp() >= prev.FlushesPerOp() {
			t.Errorf("flushes/op not falling: %s has %.2f, %s has %.2f", prev.Key, prev.FlushesPerOp(), tr.Key, tr.FlushesPerOp())
		}
		if i > 0 && tr.PerOp("copies") >= prev.PerOp("copies") {
			t.Errorf("copies/op not falling: %s has %.2f, %s has %.2f", prev.Key, prev.PerOp("copies"), tr.Key, tr.PerOp("copies"))
		}
		prev = tr
	}
	at1, at64 := byKey["transient/b1"], byKey["transient/b64"]
	if at64.FlushesPerOp() > at1.FlushesPerOp()/2 {
		t.Errorf("flushes/op at b=64 is %.2f, want <= half of b=1's %.2f", at64.FlushesPerOp(), at1.FlushesPerOp())
	}
	if at64.PerOp("copies") > at1.PerOp("copies")/2 {
		t.Errorf("copies/op at b=64 is %.2f, want <= half of b=1's %.2f", at64.PerOp("copies"), at1.PerOp("copies"))
	}
}

// TestServerFenceAmortization pins the server sweep's fence cost per
// acked write as absolute ceilings. One client pays exactly its rounds'
// fences: a one-root SET is durable at its own round's fence, with no
// settle (1.005 measured: the store's closing fences over 2,000 acks; a
// settle per ack read 2.0 before). Sixteen clients' submissions coalesce
// into shared rounds and must stay at or below the 0.4 the settle-linger
// protocol reached there (0.30–0.39 idle, 0.25–0.45 beside two busy
// loops; now 0.21–0.24 and 0.13–0.21, which needs the new leader's yield:
// without it the loaded case read 0.75–1.0).
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
	if one.Fences == 0 || many.Fences == 0 {
		t.Fatalf("degenerate fence counts: c1=%v c16=%v", one.Fences, many.Fences)
	}
	t.Logf("fences/op: %.3f at 1 client, %.3f at 16", one.FencesPerOp(), many.FencesPerOp())
	if one.FencesPerOp() > 1.01 {
		t.Errorf("fences/op at 1 client = %.3f, want <= 1.01 (one round fence per ack, no settle)", one.FencesPerOp())
	}
	if many.FencesPerOp() > 0.4 {
		t.Errorf("fences/op at 16 clients = %.3f, want <= 0.4", many.FencesPerOp())
	}
}

// TestBaselineExactOrdering runs the -exact-ordering gate in tier-1:
// every exact-class sweep at the baseline's scale, against the committed
// baseline, must reproduce each row's op, fence and flush counts bit for
// bit (and its ratios within benchdiff's default tolerance), with no
// exact row missing on either side.
func TestBaselineExactOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the exact-class sweeps at small scale")
	}
	exact := func(r workloads.Row) bool { return r.Gate == workloads.GateExact }
	base, err := ReadBenchDoc(filepath.Join("..", "..", BaselineFile))
	if err != nil {
		t.Fatal(err)
	}
	if base.Scale != "small" || base.Ops != SmallScale().Ops {
		t.Fatalf("baseline is %s/%d ops, want small/%d", base.Scale, base.Ops, SmallScale().Ops)
	}
	if info := len(base.Rows) - len(base.Gated().Rows); info != 0 {
		t.Errorf("committed baseline holds %d informational rows; regenerate it with modbench -bench %s", info, BaselineFile)
	}
	cur, err := buildBenchDoc("small", SmallScale(), func(e experiment) bool { return e.gate == workloads.GateExact })
	if err != nil {
		t.Fatal(err)
	}
	regressions, fresh := CompareBenchDocs(base.filter(exact), cur.filter(exact), 0.15, true)
	for _, r := range regressions {
		t.Error(r)
	}
	if len(fresh) != 0 {
		t.Errorf("exact rows the baseline lacks (regenerate it): %v", fresh)
	}
}

func testRows() []workloads.Row {
	row := func(key string, gate workloads.Gate, ops int, fences, flushes uint64, extra map[string]float64) workloads.Row {
		return workloads.Row{Key: key, Gate: gate, Ops: ops, Fences: fences, Flushes: flushes, ElapsedNs: 1e6, Extra: extra}
	}
	return []workloads.Row{
		row("map/mod", workloads.GateExact, 100, 100, 1000, nil),
		row("transient/b64", workloads.GateExact, 100, 5, 300, map[string]float64{"copies": 160}),
		{Key: "recovery/map/sel/b64", Gate: workloads.GateExact, Ops: 100,
			Extra: map[string]float64{"recovery_ns": 2e6, "rebuilt_nodes": 100}},
		row("contention/w8/mutex", workloads.GateRatio, 100, 100, 1000, nil),
		row("contention/w8/cas", workloads.GateFloor, 100, 104, 1000,
			map[string]float64{"writers": 8, "speedup": 3, "fast_wins": 60, "fast_losses": 4, "combines": 40, "combined_ops": 40}),
		row("server/c16", workloads.GateInfo, 1000, 100, 1000, map[string]float64{"p50_ns": 5e4}),
	}
}

func TestBenchDocRoundTripAndValidation(t *testing.T) {
	doc, _ := benchDoc(t)
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := WriteBenchDoc(doc, path); err != nil {
		t.Fatalf("WriteBenchDoc: %v", err)
	}
	got, err := ReadBenchDoc(path)
	if err != nil {
		t.Fatalf("ReadBenchDoc: %v", err)
	}
	want, _ := json.Marshal(doc)
	if have, _ := json.Marshal(got); string(have) != string(want) {
		t.Errorf("round trip changed the document:\n%s\n%s", have, want)
	}
	if regs, fresh := CompareBenchDocs(doc, got, 0, true); len(regs) != 0 || len(fresh) != 0 {
		t.Errorf("a report differs from its own round trip: %v %v", regs, fresh)
	}
	if gated := doc.Gated(); len(gated.Rows) == 0 || len(gated.Rows) >= len(doc.Rows) {
		t.Errorf("Gated kept %d of %d rows", len(gated.Rows), len(doc.Rows))
	}

	// The gate must reject documents that would silently diff as empty
	// or that it could not join by key.
	for name, breakDoc := range map[string]func(*BenchDoc){
		"no rows":           func(d *BenchDoc) { d.Rows = nil },
		"the schema before": func(d *BenchDoc) { d.Schema = BenchSchema - 1 },
		"a duplicate key":   func(d *BenchDoc) { d.Rows = append(d.Rows, d.Rows[0]) },
		"an empty key":      func(d *BenchDoc) { d.Rows[0].Key = "" },
		"an unknown gate":   func(d *BenchDoc) { d.Rows[0].Gate = "sometimes" },
		"a row with no gate": func(d *BenchDoc) {
			d.Rows[0].Gate = ""
		},
	} {
		bad := &BenchDoc{Schema: BenchSchema, Scale: "test", Ops: 100, Rows: testRows()}
		breakDoc(bad)
		file := filepath.Join(t.TempDir(), "bad.json")
		if err := WriteBenchDoc(bad, file); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadBenchDoc(file); err == nil {
			t.Errorf("ReadBenchDoc accepted a report with %s", name)
		}
	}
}

// TestCompareBenchDocs injects one change per gate class and gated
// column and counts the messages; every message must start with the key
// of the row it is about (cmd/benchdiff lists offending rows from it).
func TestCompareBenchDocs(t *testing.T) {
	const (
		mod   = iota // map/mod: exact
		tr           // transient/b64: exact, carries copies
		rec          // recovery/map/sel/b64: exact, carries recovery_ns only
		mutex        // contention/w8/mutex: ratio
		cas          // contention/w8/cas: floor
		srv          // server/c16: info
	)
	base := &BenchDoc{Schema: BenchSchema, Scale: "test", Ops: 100, Rows: testRows()}
	for _, tc := range []struct {
		name   string
		change func(rows []workloads.Row) []workloads.Row
		tol    float64
		exact  bool
		want   int // regressions
	}{
		{name: "identical", want: 0},
		{name: "identical, exact counts", exact: true, want: 0},
		{name: "exact: ops/sec -20%", change: func(r []workloads.Row) []workloads.Row { r[mod].ElapsedNs *= 1.25; return r }, want: 1},
		{name: "exact: ops/sec -20% inside a widened tolerance", tol: 0.30,
			change: func(r []workloads.Row) []workloads.Row { r[mod].ElapsedNs *= 1.25; return r }, want: 0},
		{name: "exact: fences/op +30%", change: func(r []workloads.Row) []workloads.Row { r[mod].Fences = 130; return r }, want: 1},
		{name: "exact: flushes/op +30%", change: func(r []workloads.Row) []workloads.Row { r[mod].Flushes = 1300; return r }, want: 1},
		{name: "exact: copies/op +50%", change: func(r []workloads.Row) []workloads.Row {
			r[tr].Extra = map[string]float64{"copies": 240}
			return r
		}, want: 1},
		{name: "exact: recovery_ns doubled", change: func(r []workloads.Row) []workloads.Row {
			r[rec].Extra = map[string]float64{"recovery_ns": 4e6, "rebuilt_nodes": 100}
			return r
		}, want: 1},
		{name: "exact: an improvement is not a regression", change: func(r []workloads.Row) []workloads.Row {
			r[mod].Fences, r[mod].Flushes, r[mod].ElapsedNs = 50, 500, 5e5
			return r
		}, want: 0},
		{name: "exact: one fence more passes the tolerance", change: func(r []workloads.Row) []workloads.Row { r[mod].Fences++; return r }, want: 0},
		{name: "exact: one fence more fails exact counts", exact: true,
			change: func(r []workloads.Row) []workloads.Row { r[mod].Fences++; return r }, want: 1},
		{name: "exact: one flush fewer fails exact counts", exact: true,
			change: func(r []workloads.Row) []workloads.Row { r[tr].Flushes--; return r }, want: 1},
		{name: "exact: one op more fails exact counts", exact: true,
			change: func(r []workloads.Row) []workloads.Row { r[mod].Ops++; return r }, want: 1},
		{name: "exact: row missing", change: func(r []workloads.Row) []workloads.Row { return r[1:] }, want: 1},
		{name: "ratio: ops/sec -30%", change: func(r []workloads.Row) []workloads.Row { r[mutex].ElapsedNs /= 0.7; return r }, want: 1},
		{name: "ratio: fences/op +50%", change: func(r []workloads.Row) []workloads.Row { r[mutex].Fences = 150; return r }, want: 1},
		{name: "ratio: one fence more passes even exact counts", exact: true,
			change: func(r []workloads.Row) []workloads.Row { r[mutex].Fences++; return r }, want: 0},
		{name: "ratio: row missing", change: func(r []workloads.Row) []workloads.Row { return append(r[:mutex:mutex], r[mutex+1:]...) }, want: 1},
		{name: "floor: values are not compared to the baseline", exact: true, change: func(r []workloads.Row) []workloads.Row {
			r[cas].ElapsedNs *= 10
			r[cas].Fences, r[cas].Flushes = 100, 9000
			r[cas].Extra = map[string]float64{"writers": 8, "speedup": 2, "fast_wins": 100}
			return r
		}, want: 0},
		{name: "floor: speedup below 2x at W=8", change: func(r []workloads.Row) []workloads.Row {
			r[cas].Extra = map[string]float64{"writers": 8, "speedup": 1.9, "fast_wins": 104}
			return r
		}, want: 1},
		{name: "floor: a fence no publication accounts for", change: func(r []workloads.Row) []workloads.Row { r[cas].Fences++; return r }, want: 1},
		{name: "floor: row missing", change: func(r []workloads.Row) []workloads.Row { return append(r[:cas:cas], r[cas+1:]...) }, want: 1},
		{name: "info: values are never gated", exact: true, change: func(r []workloads.Row) []workloads.Row {
			r[srv].ElapsedNs *= 10
			r[srv].Fences *= 100
			return r
		}, want: 0},
		{name: "info: a missing row is not a regression", change: func(r []workloads.Row) []workloads.Row { return r[:srv] }, want: 0},
	} {
		tol := tc.tol
		if tol == 0 {
			tol = 0.15
		}
		cur := &BenchDoc{Schema: BenchSchema, Scale: "test", Ops: 100, Rows: testRows()}
		if tc.change != nil {
			cur.Rows = tc.change(cur.Rows)
		}
		regs, fresh := CompareBenchDocs(base, cur, tol, tc.exact)
		if len(regs) != tc.want || len(fresh) != 0 {
			t.Errorf("%s: %d regressions, want %d: %v (new rows %v)", tc.name, len(regs), tc.want, regs, fresh)
		}
		for _, r := range regs {
			key, _, _ := strings.Cut(r, ": ")
			known := false
			for _, b := range base.Rows {
				known = known || b.Key == key
			}
			if !known {
				t.Errorf("%s: message does not start with a row key: %q", tc.name, r)
			}
		}
	}
}

// TestBenchNewRows: gated rows the baseline lacks come back separately
// from the regressions, in report order, so cmd/benchdiff can fail on
// them or — with -allow-new — only warn; informational rows are never
// new, and a row only the baseline has is a regression, not a new row.
func TestBenchNewRows(t *testing.T) {
	full := &BenchDoc{Schema: BenchSchema, Scale: "test", Ops: 100, Rows: testRows()}
	base := full.filter(func(r workloads.Row) bool { return r.Key == "map/mod" })
	if regs, fresh := CompareBenchDocs(base, base, 0.15, true); len(regs) != 0 || len(fresh) != 0 {
		t.Errorf("identical docs: regressions %v, new rows %v", regs, fresh)
	}
	regs, fresh := CompareBenchDocs(base, full, 0.15, true)
	want := []string{"transient/b64", "recovery/map/sel/b64", "contention/w8/mutex", "contention/w8/cas"}
	if fmt.Sprint(fresh) != fmt.Sprint(want) {
		t.Errorf("new rows = %v, want %v", fresh, want)
	}
	if len(regs) != 0 {
		t.Errorf("new rows reported as regressions (-allow-new could not downgrade them): %v", regs)
	}
	// A new floor row is still held to its floors before any baseline has it.
	broken := full.filter(func(workloads.Row) bool { return true })
	broken.Rows[4].Fences++
	if regs, _ := CompareBenchDocs(base, broken, 0.15, false); len(regs) != 1 {
		t.Errorf("new floor row below its floor: %v", regs)
	}
	if regs, fresh := CompareBenchDocs(full, base, 0.15, true); len(fresh) != 0 || len(regs) != len(full.Gated().Rows)-1 {
		t.Errorf("rows missing from current: regressions %v, new rows %v", regs, fresh)
	}
}
