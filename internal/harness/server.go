package harness

import (
	"context"
	"fmt"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/server"
	"github.com/mod-ds/mod/internal/server/loadgen"
	"github.com/mod-ds/mod/internal/workloads"
)

// ServerClientCounts sweeps the concurrent connection count of the
// server experiment. The interesting shape is fences/op falling as
// clients rise: every write is acked only after its durability ticket
// resolves, and concurrent tickets coalesce into shared commit-queue
// fence epochs, so the per-ack fence cost amortizes across clients
// (cross-client batch amplification).
var ServerClientCounts = []int{1, 4, 16, 64}

// ServerBenchConfig derives the load from a Scale: all SETs (so
// fences/op is fences per durable ack), a few thousand ops per point,
// closed loop.
func ServerBenchConfig(scale Scale, clients int) loadgen.Config {
	ops := scale.Ops / 2
	if ops < 200 {
		ops = 200
	}
	return loadgen.Config{
		Clients:   clients,
		Ops:       ops,
		KeySpace:  4096,
		ValueSize: 64,
		ReadFrac:  0,
		Seed:      0x5eed,
	}
}

// RunServerBench serves one sweep point: open a store as modserver does
// (default round cap), serve it over an in-process
// listener (PipeListener), drive
// a closed-loop all-write load, and read the device-counter delta before
// shutting down. Unlike the simulated sweeps these run on the wall clock
// with real goroutine scheduling, so elapsed time and the latency
// percentiles in Extra are nondeterministic: informational rows. Fences
// are still counted on the simulated device; their per-op ratio is the
// amplification curve.
func RunServerBench(scale Scale, clients int) (workloads.Row, error) {
	cfg := ServerBenchConfig(scale, clients)
	arena := int64(cfg.Ops)*4096 + (256 << 20)
	db, _, err := core.Open(pmem.DefaultConfig(arena), core.WithCommitter(0))
	if err != nil {
		return workloads.Row{}, err
	}
	srv, err := server.New(server.Config{KV: db})
	if err != nil {
		db.Close()
		return workloads.Row{}, err
	}
	pl := server.NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()

	statsBase := db.Stats()
	res, runErr := loadgen.Run(pl.Dial, cfg, nil)
	delta := db.Stats().Sub(statsBase)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return workloads.Row{}, fmt.Errorf("server shutdown: %w", err)
	}
	pl.Close()
	if err := <-serveErr; err != nil {
		return workloads.Row{}, fmt.Errorf("serve: %w", err)
	}
	if runErr != nil {
		return workloads.Row{}, runErr
	}
	if res.Errors > 0 {
		return workloads.Row{}, fmt.Errorf("server bench c=%d: %d errored ops", clients, res.Errors)
	}

	out := workloads.NewRow(fmt.Sprintf("server/c%d", clients), res.Ops, delta, float64(res.Elapsed))
	out.Extra["p50_ns"] = float64(res.P50)
	out.Extra["p99_ns"] = float64(res.P99)
	out.Extra["p999_ns"] = float64(res.P999)
	return out, nil
}

// serverSweep renders the sweep as a table (experiment "server").
func serverSweep(scale Scale) (*Table, []workloads.Row, error) {
	t := &Table{
		ID:    "server",
		Title: "modserver: durability-acked writes vs concurrent clients",
		Note: "Closed-loop all-SET load over an in-process listener; every +OK waits for a durability ticket. " +
			"Wall-clock latency/throughput (nondeterministic); fences/op falls as concurrent tickets share commit-queue rounds.",
		Header: []string{"clients", "ops", "throughput", "p50-us", "p99-us", "p999-us", "fences/op"},
	}
	var rows []workloads.Row
	for _, clients := range ServerClientCounts {
		res, err := RunServerBench(scale, clients)
		if err != nil {
			return nil, nil, fmt.Errorf("server c=%d: %w", clients, err)
		}
		rows = append(rows, res)
		t.AddRow(
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", res.Ops),
			f1(res.OpsPerSec()),
			f1(res.Extra["p50_ns"]/1e3),
			f1(res.Extra["p99_ns"]/1e3),
			f1(res.Extra["p999_ns"]/1e3),
			f3(res.FencesPerOp()),
		)
	}
	return t, rows, nil
}
