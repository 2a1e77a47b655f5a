package harness

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func cell(t *testing.T, tab *Table, rowMatch func([]string) bool, col int) string {
	t.Helper()
	for _, row := range tab.Rows {
		if rowMatch(row) {
			return row[col]
		}
	}
	t.Fatalf("%s: no matching row", tab.ID)
	return ""
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestFig4ShapeMatchesPaper(t *testing.T) {
	tab := Fig4()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	base := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "1" }, 1))
	if base < 300 || base > 420 {
		t.Fatalf("un-overlapped flush latency = %.0f ns, paper: 353", base)
	}
	sp16 := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "16" }, 3))
	if sp16 < 3.0 {
		t.Fatalf("speedup at 16 = %.2f, paper: ~4x (75%% reduction)", sp16)
	}
	// Karp-Flatt serial fraction should recover roughly the 0.18 fit.
	e16 := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "16" }, 4))
	if e16 < 0.10 || e16 > 0.30 {
		t.Fatalf("Karp-Flatt serial fraction = %.3f, paper fit: 0.18", e16)
	}
	// Plateau: 24 -> 32 improves average latency by only a few percent.
	l24 := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "24" }, 1))
	l32 := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "32" }, 1))
	if (l24-l32)/l24 > 0.10 {
		t.Fatalf("24->32 improved %.0f%%: expected a plateau", 100*(l24-l32)/l24)
	}
}

func TestFig2FlushingDominates(t *testing.T) {
	tab, err := Fig2(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	avgFlush := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "average" }, 2))
	if avgFlush < 30 {
		t.Fatalf("average flush fraction = %.1f%%, paper: ~64%%", avgFlush)
	}
	avgLog := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "average" }, 3))
	if avgLog <= 0 || avgLog > 30 {
		t.Fatalf("average log fraction = %.1f%%, paper: ~9%%", avgLog)
	}
}

func TestFig9MODWinsAndLosesWherePaperSays(t *testing.T) {
	tab, err := Run("fig9", SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	col := func(workload, engine string, c int) float64 {
		return parseF(t, cell(t, tab, func(r []string) bool { return r[0] == workload && r[1] == engine }, c))
	}
	for _, w := range []string{"map", "set", "queue", "stack", "vector", "vec-swap"} {
		if n := col(w, "mod", 3); n >= 1.0 {
			t.Errorf("%s: MOD normalized time %.2f, want < 1 (Fig. 9)", w, n)
		}
	}
	// The paper loses the two vector rows: its tree rewrites a 32-element
	// leaf per 8-byte update. With a one-line leaf (heap layout v7) the
	// time goes MOD's way at this scale — 1,500 elements, two interior
	// levels; a deeper trie still loses, DESIGN.md §2 — and the shape
	// underneath is still the paper's: more lines flushed than PMDK's flat
	// array, fewer ordering points.
	for _, w := range []string{"vector", "vec-swap"} {
		if mod, pmdk := col(w, "mod", 7), col(w, "pmdk-v1.5", 7); mod <= pmdk {
			t.Errorf("%s: MOD flushed %.0f lines, PMDK %.0f; a path copy must still cost more lines than an in-place write (Fig. 9)", w, mod, pmdk)
		}
		if mod, pmdk := col(w, "mod", 8), col(w, "pmdk-v1.5", 8); mod >= pmdk {
			t.Errorf("%s: MOD issued %.0f fences, PMDK %.0f, want fewer (Fig. 9)", w, mod, pmdk)
		}
	}
	// v1.4 slower than v1.5 on average.
	var v14 float64
	var count int
	for _, row := range tab.Rows {
		if row[1] == "pmdk-v1.4" {
			v14 += parseF(t, row[3])
			count++
		}
	}
	if v14/float64(count) <= 1.0 {
		t.Errorf("average v1.4 normalized time %.2f, want > 1 (§6.3)", v14/float64(count))
	}
}

func TestFig10MODOneFencePMDKMany(t *testing.T) {
	tab, err := Fig10(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		fences := parseF(t, row[2])
		if row[1] == "mod" && fences != 1.0 {
			t.Errorf("%s mod fences/op = %v, want exactly 1 (§6.4)", row[0], fences)
		}
		if row[1] == "pmdk-v1.5" && (fences < 3 || fences > 11) {
			t.Errorf("%s pmdk fences/op = %v, want 3-11 (Fig. 10)", row[0], fences)
		}
	}
	// MOD vector writes flush more than PMDK's single-slot update: a path
	// copy of header, interior nodes and a one-line leaf against one logged
	// word (10.0 vs 5.0 here; the paper's 32-element leaf makes it >> 2x).
	modVec := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "vector-write" && r[1] == "mod" }, 3))
	pmdkVec := parseF(t, cell(t, tab, func(r []string) bool { return r[0] == "vector-write" && r[1] == "pmdk-v1.5" }, 3))
	if modVec <= pmdkVec {
		t.Errorf("vector-write flushes: mod %.1f vs pmdk %.1f, expected mod > pmdk (§6.4)", modVec, pmdkVec)
	}
}

func TestFig11RendersAllWorkloads(t *testing.T) {
	tab, err := Fig11(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("Fig11 rows = %d, want 9", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		parseF(t, row[1])
		parseF(t, row[2])
	}
}

func TestTable3VectorBlowsUp(t *testing.T) {
	tab, err := Table3(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	ratio := func(structure, engine, regime string) float64 {
		return parseF(t, cell(t, tab, func(r []string) bool {
			return r[0] == structure && r[1] == engine && r[2] == regime
		}, 5))
	}
	for _, s := range []string{"map", "set", "stack", "queue", "vector"} {
		if r := ratio(s, "mod", "reclaimed"); r < 1.3 || r > 2.6 {
			t.Errorf("mod %s reclaimed doubling ratio %.2f, want ~2x", s, r)
		}
		if r := ratio(s, "pmdk", "reclaimed"); r < 1.2 || r > 4.5 {
			t.Errorf("pmdk %s doubling ratio %.2f, want ~1.5-2x", s, r)
		}
	}
	// The paper's tail-less 32-way tree retains a whole spine and a
	// 32-element leaf per push: 131x. Here the tail buffer caps a retained
	// push at one leaf copy plus a header, and that leaf is one line (8
	// elements, heap layout v7; a 32-element leaf read 37x), so the blowup
	// is an order of magnitude, not two — but the vector must still dwarf
	// the map.
	//
	// That was vector >= 2.5 x map in ratio, which read 17.05 against 5.58
	// (a 13.95 floor). A ratio divides retained bytes by compact bytes, and
	// one binding block a key (heap layout v14) lowered both of the map's,
	// its compact size the more (176,880 -> 118,880 at N = 1,500; retained
	// 987,264 -> 854,912), so its ratio rose to 7.19 with every byte
	// count lower. The check is now on the bytes, each side at least as
	// tight as the ratio check was at layout v13: the vector's floor stays
	// 14, and the map's bytes stay within 3 % of what v14 measures — where
	// the ratio check, against the vector's 17.05, let the retained map
	// reach 6.8 x a 176,880-byte compact map, 1.2 MB.
	vecRetained := ratio("vector", "mod", "retained")
	if vecRetained < 14 {
		t.Errorf("mod vector retained ratio %.1f, want an order of magnitude and at least 14 (paper 131x)", vecRetained)
	}
	bytesAt := func(structure, regime string, col int) uint64 {
		v, err := strconv.ParseUint(cell(t, tab, func(r []string) bool {
			return r[0] == structure && r[1] == "mod" && r[2] == regime
		}, col), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	const (
		maxMapCompact  = 122_400 // measured 118,880, + 3 %; 176,880 at v13
		maxMapRetained = 880_600 // measured 854,912, + 3 %; 987,264 at v13
	)
	if n := bytesAt("map", "retained", 3); n > maxMapCompact {
		t.Errorf("mod map holds %d bytes at N, budget %d", n, maxMapCompact)
	}
	if n := bytesAt("map", "retained", 4); n > maxMapRetained {
		t.Errorf("mod map retains %d bytes at 2N, budget %d (vector ratio %.1f)", n, maxMapRetained, vecRetained)
	}
}

func TestSpaceOverheadTiny(t *testing.T) {
	tab, err := SpaceOverhead(Scale{Table3N: 30000})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if overhead := parseF(t, row[3]); overhead > 0.5 {
			t.Errorf("%s shadow overhead %.3f%%, paper: <0.01%% at 1M (scale-adjusted bound 0.5%%)", row[0], overhead)
		}
	}
}

func TestAblations(t *testing.T) {
	conc, err := AblationFlushConcurrency(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	slow1 := parseF(t, cell(t, conc, func(r []string) bool { return r[0] == "1" }, 3))
	if slow1 <= 1.1 {
		t.Errorf("cap=1 slowdown %.2f, expected serialized flushes to hurt", slow1)
	}
	naive, err := AblationNaiveShadow(SmallScale())
	if err != nil {
		t.Fatal(err)
	}
	shared := parseF(t, cell(t, naive, func(r []string) bool { return r[0] == "structural-sharing" }, 3))
	whole := parseF(t, cell(t, naive, func(r []string) bool { return r[0] == "naive-shadow" }, 3))
	if whole < 5*shared {
		t.Errorf("naive shadow %.3fms vs shared %.3fms: expected >5x gap", whole, shared)
	}
}

func TestRunAllAndRendering(t *testing.T) {
	var buf bytes.Buffer
	render := func(tab *Table) error { tab.Render(&buf); return nil }
	if err := RunAll(SmallScale(), render); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, e := range registry {
		if strings.Contains(out, "== "+e.name+":") != e.enabled() {
			t.Errorf("RunAll rendered %s: %v, want %v", e.name, !e.enabled(), e.enabled())
		}
	}
	// CSV rendering.
	tab := Table1()
	var csv bytes.Buffer
	tab.CSV(&csv)
	if !strings.Contains(csv.String(), "parameter,value,paper") {
		t.Error("CSV header missing")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", DefaultScale()); err == nil {
		t.Fatal("unknown experiment must error")
	}
}
