package workloads

import "github.com/mod-ds/mod/internal/pmem"

// Gate is the class a row is compared under by the BENCH.json regression
// gate (harness.CompareBenchDocs).
type Gate string

const (
	// GateExact rows are single-goroutine and deterministic: ops/s and
	// the per-op ratios gate within tolerance, and under benchdiff's
	// -exact-ordering the raw op, fence and flush counts must be
	// bit-identical to the baseline.
	GateExact Gate = "exact"
	// GateRatio rows gate within tolerance only: their totals are
	// deterministic but the order their writers ran in is not.
	GateRatio Gate = "ratio"
	// GateFloor rows depend on how goroutines really interleave, so they
	// are held to absolute floors on the current report alone.
	GateFloor Gate = "floor"
	// GateInfo rows are wall-clock or schedule-dependent: written to
	// reports, never compared, never committed to the baseline.
	GateInfo Gate = "info"
)

// Row is the one measurement record every workload returns, every
// modbench table renders and BENCH.json stores: what ran (Key), how much
// (Ops), what it cost in ordering (Fences), flushing (Flushes) and time
// (ElapsedNs — simulated nanoseconds of the run's critical path, or
// wall-clock nanoseconds for the server and mmap sweeps), plus named
// workload-specific counters in Extra. Ratios are methods, never stored.
type Row struct {
	Key       string             `json:"key"`
	Gate      Gate               `json:"gate,omitempty"`
	Ops       int                `json:"ops"`
	Fences    uint64             `json:"fences"`
	Flushes   uint64             `json:"flushes"`
	ElapsedNs float64            `json:"elapsed_ns"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// NewRow builds a row from the device-counter delta of a measured phase.
func NewRow(key string, ops int, d pmem.Stats, elapsedNs float64) Row {
	r := Row{Key: key, Ops: ops, Extra: map[string]float64{}}
	r.cost(d, elapsedNs)
	return r
}

// cost records what the measured phase spent.
func (r *Row) cost(d pmem.Stats, elapsedNs float64) {
	r.Fences, r.Flushes, r.ElapsedNs = d.Fences, d.Flushes, elapsedNs
}

// OpsPerSec returns operations per second of elapsed time (0 for a row
// that measured none, e.g. a recovery row).
func (r Row) OpsPerSec() float64 { return r.Rate(float64(r.Ops)) }

// Rate returns n events per second of the row's elapsed time.
func (r Row) Rate(n float64) float64 {
	if r.ElapsedNs <= 0 {
		return 0
	}
	return n / (r.ElapsedNs / 1e9)
}

// FencesPerOp returns average fences per operation.
func (r Row) FencesPerOp() float64 { return float64(r.Fences) / float64(r.Ops) }

// FlushesPerOp returns average flushes per operation.
func (r Row) FlushesPerOp() float64 { return float64(r.Flushes) / float64(r.Ops) }

// PerOp returns the named extra counter per operation.
func (r Row) PerOp(name string) float64 { return r.Extra[name] / float64(r.Ops) }

// Frac returns the named extra (a time in ns) as a fraction of elapsed.
func (r Row) Frac(name string) float64 { return r.Extra[name] / r.ElapsedNs }
