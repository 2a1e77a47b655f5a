// Package harness regenerates every table and figure of the MOD paper's
// evaluation (§6) from the simulated system: Fig. 2 (PM-STM time
// breakdown), Fig. 4 (flush latency vs concurrency with the Amdahl fit),
// Fig. 9 (execution time across engines), Fig. 10 (fences vs flushes per
// operation), Fig. 11 (L1D miss ratios), Table 1 (machine model), Table 2
// (workload registry), Table 3 (memory growth on doubling), plus the §6.5
// shadow-space measurement and two ablations (flush-concurrency cap and
// naive shadow paging without structural sharing).
//
// Numbers are simulated nanoseconds from the device clock; the paper's
// absolute Optane numbers are not reproducible, but the shapes — who
// wins, by what factor, where the crossovers fall — are the target (each
// table's note records the paper's figure beside the measured one).
package harness

import (
	"fmt"
	"io"
	"strings"

	"github.com/mod-ds/mod/internal/workloads"
)

// Scale sets experiment sizes. The paper runs 1M operations per workload;
// the default scale keeps full-suite runtime in seconds.
type Scale struct {
	// Ops per workload iteration count.
	Ops int
	// VectorPreload is the element count for vector/vec-swap (the paper
	// preloads 1M).
	VectorPreload int
	// Table3N is the base element count N for the 2N-vs-N memory ratio
	// (the paper uses 1M).
	Table3N int
	// PerOpSamples is the op count for the Fig. 10 per-operation counts.
	PerOpSamples int
}

// DefaultScale is sized for interactive runs (tens of seconds).
func DefaultScale() Scale {
	return Scale{Ops: 20_000, VectorPreload: 20_000, Table3N: 20_000, PerOpSamples: 2_000}
}

// FullScale approaches the paper's configuration (minutes of runtime).
func FullScale() Scale {
	return Scale{Ops: 1_000_000, VectorPreload: 1_000_000, Table3N: 1_000_000, PerOpSamples: 20_000}
}

// SmallScale is for tests and benchmarks.
func SmallScale() Scale {
	return Scale{Ops: 1_500, VectorPreload: 1_500, Table3N: 1_500, PerOpSamples: 300}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string // e.g. "fig9"
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) {
	fmt.Fprintln(w, strings.Join(t.Header, ","))
	for _, row := range t.Rows {
		fmt.Fprintln(w, strings.Join(row, ","))
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f0(v float64) string { return fmt.Sprintf("%.0f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// ms renders nanoseconds as milliseconds.
func ms(ns float64) string { return fmt.Sprintf("%.3f", ns/1e6) }

// pct renders a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// experiment is one registry entry. A paper figure has a table and no
// rows (gate ""); a sweep's one run returns its measurement rows and the
// table rendered from them, so modbench -experiment and BENCH.json are
// two renderings of one execution.
type experiment struct {
	name string
	// gate is the class the sweep's rows are compared under unless a row
	// names its own (an informational row inside a gated sweep).
	gate workloads.Gate
	// backend restricts RunAll and BuildBenchDoc to runs where
	// BenchBackend matches ("" = always); Run by name ignores it.
	backend string
	run     func(Scale) (*Table, []workloads.Row, error)
}

// figure adapts a paper figure, which measures into its table only.
func figure(f func(Scale) (*Table, error)) func(Scale) (*Table, []workloads.Row, error) {
	return func(scale Scale) (*Table, []workloads.Row, error) {
		t, err := f(scale)
		return t, nil, err
	}
}

// registry lists every experiment in report order. Adding a sweep is one
// entry here plus its run function.
var registry = []experiment{
	{name: "table1", run: figure(func(Scale) (*Table, error) { return Table1(), nil })},
	{name: "table2", run: figure(func(Scale) (*Table, error) { return Table2(), nil })},
	{name: "fig2", run: figure(Fig2)},
	{name: "fig4", run: figure(func(Scale) (*Table, error) { return Fig4(), nil })},
	{name: "fig9", gate: workloads.GateExact, run: fig9},
	{name: "fig10", run: figure(Fig10)},
	{name: "fig11", run: figure(Fig11)},
	{name: "table3", run: figure(Table3)},
	{name: "spaceoverhead", run: figure(SpaceOverhead)},
	{name: "ablation-conc", run: figure(AblationFlushConcurrency)},
	{name: "ablation-naive", run: figure(AblationNaiveShadow)},
	{name: "concurrent", gate: workloads.GateInfo, run: concurrent},
	{name: "groupcommit", gate: workloads.GateExact, run: groupCommit},
	{name: "transient", gate: workloads.GateExact, run: transient},
	{name: "sharded", gate: workloads.GateExact, run: sharded},
	{name: "selective", gate: workloads.GateExact, run: selective},
	{name: "server", gate: workloads.GateInfo, run: serverSweep},
	{name: "contention", gate: workloads.GateFloor, run: contention},
	{name: "mmap", gate: workloads.GateInfo, backend: "mmap", run: mmapSweep},
}

// Experiments lists the names accepted by Run and cmd/modbench.
var Experiments = func() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}()

// BenchBackend selects the backend-specific sweeps RunAll and
// BuildBenchDoc add to the simulator ones: "sim" (none, the default) or
// "mmap" (the wall-clock mmapdev sweep, which fails on platforms without
// the backend). cmd/modbench sets it from -backend.
var BenchBackend = "sim"

func (e experiment) enabled() bool { return e.backend == "" || e.backend == BenchBackend }

// Run executes one named experiment at the given scale.
func Run(name string, scale Scale) (*Table, error) {
	for _, e := range registry {
		if e.name == name {
			t, _, err := e.run(scale)
			return t, err
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", name, Experiments)
}

// RunAll executes every enabled experiment, handing each table to emit.
func RunAll(scale Scale, emit func(*Table) error) error {
	for _, e := range registry {
		if !e.enabled() {
			continue
		}
		t, _, err := e.run(scale)
		if err == nil {
			err = emit(t)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
	}
	return nil
}
