// Machine-readable performance reporting (BENCH.json) and the regression
// comparison behind cmd/benchdiff. The document is the rows the
// registry's sweeps return, so cmd/modbench, cmd/benchdiff and the
// report-path unit tests all share one definition.
package harness

import (
	"encoding/json"
	"fmt"
	"os"

	"github.com/mod-ds/mod/internal/workloads"
)

// BenchSchema is the BENCH.json schema version: one flat array of
// workloads.Row. One layout per version — a report of any other schema
// is refused, not converted.
const BenchSchema = 9

// BaselineFile is the committed baseline cmd/benchdiff compares against.
// It holds the gated rows only (BenchDoc.Gated): informational values
// are wall-clock or schedule-dependent and would sit stale in the tree.
const BaselineFile = "BENCH_baseline.json"

// BenchDoc is the BENCH.json document.
type BenchDoc struct {
	Schema int             `json:"schema"`
	Scale  string          `json:"scale"`
	Ops    int             `json:"ops"`
	Rows   []workloads.Row `json:"rows"`
}

// BuildBenchDoc runs every enabled sweep of the registry once at the
// given scale and returns their rows. A sweep that fails or returns no
// rows fails the build: "the sweep still runs" is checked here, not by
// carrying its rows in the baseline.
func BuildBenchDoc(scaleName string, scale Scale) (*BenchDoc, error) {
	return buildBenchDoc(scaleName, scale, experiment.enabled)
}

func buildBenchDoc(scaleName string, scale Scale, want func(experiment) bool) (*BenchDoc, error) {
	doc := &BenchDoc{Schema: BenchSchema, Scale: scaleName, Ops: scale.Ops}
	for _, e := range registry {
		if e.gate == "" || !want(e) {
			continue
		}
		_, rows, err := e.run(scale)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", e.name, err)
		}
		if len(rows) == 0 {
			return nil, fmt.Errorf("bench %s: sweep returned no rows", e.name)
		}
		for _, r := range rows {
			if r.Gate == "" {
				r.Gate = e.gate
			}
			doc.Rows = append(doc.Rows, r)
		}
	}
	if err := doc.validate(); err != nil {
		return nil, err
	}
	return doc, nil
}

// validate rejects a document the gate could not compare by key.
func (d *BenchDoc) validate() error {
	if d.Schema != BenchSchema {
		return fmt.Errorf("schema %d, want %d: regenerate the report with this tree's modbench", d.Schema, BenchSchema)
	}
	if len(d.Rows) == 0 {
		return fmt.Errorf("not a BENCH.json report (no rows)")
	}
	seen := make(map[string]bool, len(d.Rows))
	for _, r := range d.Rows {
		switch r.Gate {
		case workloads.GateExact, workloads.GateRatio, workloads.GateFloor, workloads.GateInfo:
		default:
			return fmt.Errorf("row %q: unknown gate class %q", r.Key, r.Gate)
		}
		if r.Key == "" || seen[r.Key] {
			return fmt.Errorf("row key %q is empty or appears twice", r.Key)
		}
		seen[r.Key] = true
	}
	return nil
}

// filter returns a copy of the document holding the rows keep accepts.
func (d *BenchDoc) filter(keep func(workloads.Row) bool) *BenchDoc {
	out := *d
	out.Rows = nil
	for _, r := range d.Rows {
		if keep(r) {
			out.Rows = append(out.Rows, r)
		}
	}
	return &out
}

// Gated returns the document without its informational rows: what a
// baseline holds and what the gate compares.
func (d *BenchDoc) Gated() *BenchDoc {
	return d.filter(func(r workloads.Row) bool { return r.Gate != workloads.GateInfo })
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
	if err := doc.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// CompareBenchDocs checks cur against base in one pass over row keys,
// dispatching on the current row's gate class:
//
//   - exact, ratio: a message per column that got worse by more than tol
//     (fractional, e.g. 0.15) — ops/sec dropped, or fences/op, flushes/op,
//     copies/op or recovery_ns rose. With exactCounts (benchdiff
//     -exact-ordering) an exact row's raw op, fence and flush counts must
//     also be bit-identical: DESIGN.md §13's ordering-neutrality contract
//     — whatever a change adds must ride inside each FASE's existing
//     flush+fence envelope — checked exactly, not within tolerance.
//   - floor: the row's absolute floors (contentionFloors); nothing is
//     read from the baseline.
//   - info: never compared.
//
// A baseline row missing from cur is a regression; every message starts
// with its row key. fresh lists the gated keys of cur that base lacks:
// the baseline is stale, and a new row carries no gate until it is
// regenerated, so cmd/benchdiff fails on them unless -allow-new.
func CompareBenchDocs(base, cur *BenchDoc, tol float64, exactCounts bool) (regressions, fresh []string) {
	baseRows := make(map[string]workloads.Row, len(base.Rows))
	for _, b := range base.Rows {
		baseRows[b.Key] = b
	}
	curKeys := make(map[string]bool, len(cur.Rows))
	for _, c := range cur.Rows {
		curKeys[c.Key] = true
		b, inBase := baseRows[c.Key]
		switch c.Gate {
		case workloads.GateInfo:
			continue
		case workloads.GateFloor:
			regressions = append(regressions, contentionFloors(c)...)
		case workloads.GateExact, workloads.GateRatio:
			if inBase {
				regressions = append(regressions, compareRows(b, c, tol, exactCounts && c.Gate == workloads.GateExact)...)
			}
		}
		if !inBase {
			fresh = append(fresh, c.Key)
		}
	}
	for _, b := range base.Rows {
		if b.Gate != workloads.GateInfo && !curKeys[b.Key] {
			regressions = append(regressions, fmt.Sprintf("%s: row missing from current report", b.Key))
		}
	}
	return regressions, fresh
}

// compareRows returns one message per gated column of cur that is worse
// than base by more than tol and, with exactCounts, per raw count that
// differs at all. A column the baseline row does not carry is skipped.
func compareRows(base, cur workloads.Row, tol float64, exactCounts bool) []string {
	var out []string
	if exactCounts {
		for _, n := range []struct {
			name      string
			base, cur uint64
		}{
			{"ops", uint64(base.Ops), uint64(cur.Ops)},
			{"fences", base.Fences, cur.Fences},
			{"flushes", base.Flushes, cur.Flushes},
		} {
			if n.base != n.cur {
				out = append(out, fmt.Sprintf("%s: %s %d -> %d (exact ordering gate)", cur.Key, n.name, n.base, n.cur))
			}
		}
	}
	worse := func(column string, baseV, curV float64, lowerIsBetter bool) {
		if baseV <= 0 {
			return
		}
		ratio := curV / baseV
		if lowerIsBetter && ratio > 1+tol {
			out = append(out, fmt.Sprintf("%s: %s rose %.1f%% (%.4g -> %.4g, tolerance %.0f%%)",
				cur.Key, column, (ratio-1)*100, baseV, curV, tol*100))
		}
		if !lowerIsBetter && ratio < 1-tol {
			out = append(out, fmt.Sprintf("%s: %s dropped %.1f%% (%.4g -> %.4g, tolerance %.0f%%)",
				cur.Key, column, (1-ratio)*100, baseV, curV, tol*100))
		}
	}
	worse("ops/sec", base.OpsPerSec(), cur.OpsPerSec(), false)
	worse("fences/op", base.FencesPerOp(), cur.FencesPerOp(), true)
	worse("flushes/op", base.FlushesPerOp(), cur.FlushesPerOp(), true)
	worse("copies/op", base.PerOp("copies"), cur.PerOp("copies"), true)
	worse("recovery_ns", base.Extra["recovery_ns"], cur.Extra["recovery_ns"], true)
	return out
}
