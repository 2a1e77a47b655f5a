// Command modserver serves a MOD store over TCP as a RESP-subset KV
// server (GET/SET/DEL/LEN/MGET/MULTI·EXEC/PING/SHUTDOWN). Every write
// is acknowledged only after its group-commit ticket resolves, so +OK
// means fenced-durable; concurrent clients share fence epochs through
// the store's commit queue, whose rounds run on the connections' own
// goroutines.
//
// With -loadgen it instead runs an in-process smoke: server on a pipe
// listener, open-loop Zipfian load against it, latency percentiles and
// fences/op printed at the end — the configuration CI uses.
//
// By default the store lives in the PM simulator and vanishes on exit.
// With -data DIR it instead mmaps files under DIR (the mmapdev
// backend): the first run formats them, later runs attach and recover,
// so SET survives a restart. Linux-only.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/pmem/mmapdev"
	"github.com/mod-ds/mod/internal/server"
	"github.com/mod-ds/mod/internal/server/loadgen"
)

func main() {
	var (
		addr      = flag.String("addr", "localhost:6380", "TCP listen address")
		size      = flag.Int64("size", 256<<20, "PM arena bytes (per shard)")
		data      = flag.String("data", "", "file-backed store directory (mmapdev backend; empty = simulator)")
		shards    = flag.Int("shards", 1, "heap shards (1 = single heap)")
		roots     = flag.Int("roots", server.DefaultRoots, "map roots keys spread across")
		committer = flag.Int("committer", core.DefaultCommitterMaxOps, "most ops one commit-queue round coalesces into a fence epoch (0 = default)")
		linger    = flag.Duration("linger", 50*time.Microsecond, "how long a multi-root durability wait (MULTI/EXEC) lingers for other clients' writes before paying its own settling fence; a one-root write is durable at its own round's fence")
		selective = flag.Bool("selective", false, "selectively persisted structures, DRAM node cache on")
		verbose   = flag.Bool("v", false, "log every command")
		opTimeout = flag.Duration("op-timeout", 0, "per-op timeout middleware (0 = off)")
		maxConns  = flag.Int("max-conns", 0, "connection limit middleware (0 = off)")

		runLoad   = flag.Bool("loadgen", false, "run in-process server + load generator and exit")
		clients   = flag.Int("clients", 32, "loadgen: concurrent clients")
		rate      = flag.Float64("rate", 0, "loadgen: aggregate ops/sec (0 = closed loop)")
		duration  = flag.Duration("duration", 5*time.Second, "loadgen: run length")
		valueSize = flag.Int("value-size", 64, "loadgen: SET payload bytes")
		readFrac  = flag.Float64("read-frac", 0.5, "loadgen: GET fraction")
		multiEv   = flag.Int("multi-every", 0, "loadgen: every Nth write is a MULTI (0 = off)")
		multiSize = flag.Int("multi-size", 4, "loadgen: SETs per MULTI")
		seed      = flag.Int64("seed", 1, "loadgen: rng seed")
	)
	flag.Parse()

	opts := []core.Option{core.WithCommitter(*committer), core.WithCommitterLinger(*linger)}
	if *shards > 1 {
		opts = append(opts, core.WithShards(*shards))
	}
	if *selective {
		opts = append(opts, core.WithSelective(0))
	}
	var (
		db   *core.DB
		info core.RecoveryInfo
		err  error
	)
	if *data != "" {
		db, info, err = openFileBacked(*data, *size, *shards, opts)
	} else {
		cfg := pmem.DefaultConfig(*size)
		cfg.TrackDurable = true
		db, info, err = core.Open(cfg, opts...)
	}
	if err != nil {
		log.Fatalf("open store: %v", err)
	}
	if info.Recovered {
		log.Printf("attached to existing store in %s (%d live blocks, %d roots)", *data, info.Stats.LiveBlocks, info.Stats.Roots)
	}

	scfg := server.Config{
		KV:    db,
		Roots: *roots,
		Logf:  log.Printf,
	}
	scfg.Middleware = append(scfg.Middleware, server.Recover())
	if *verbose {
		scfg.Middleware = append(scfg.Middleware, server.Logging(log.Printf))
	}
	if *opTimeout > 0 {
		scfg.Middleware = append(scfg.Middleware, server.Timeout(*opTimeout))
	}
	if *maxConns > 0 {
		scfg.ConnMiddleware = append(scfg.ConnMiddleware, server.LimitConns(*maxConns))
	}
	srv, err := server.New(scfg)
	if err != nil {
		log.Fatalf("server: %v", err)
	}

	if *runLoad {
		runLoadgen(srv, db, loadgen.Config{
			Clients:    *clients,
			Rate:       *rate,
			Duration:   *duration,
			ValueSize:  *valueSize,
			ReadFrac:   *readFrac,
			MultiEvery: *multiEv,
			MultiSize:  *multiSize,
			Seed:       *seed,
		})
		return
	}

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Printf("signal received, draining")
		srv.Shutdown(context.Background())
	}()
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("serve: %v", err)
	}
	<-srv.Done()
}

// openFileBacked opens the store over mmapdev files under dir:
// store.pm for a single heap, or shard0.pm..shardN-1.pm plus meta.pm
// when sharded. If the first file already exists the store attaches
// (runs recovery) instead of formatting, so data survives restarts.
// The layout is fixed per directory — reopen with the same -shards.
func openFileBacked(dir string, size int64, shards int, opts []core.Option) (*core.DB, core.RecoveryInfo, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, core.RecoveryInfo{}, err
	}
	var paths []string
	if shards <= 1 {
		paths = []string{filepath.Join(dir, "store.pm")}
	} else {
		for i := 0; i < shards; i++ {
			paths = append(paths, filepath.Join(dir, fmt.Sprintf("shard%d.pm", i)))
		}
		paths = append(paths, filepath.Join(dir, "meta.pm"))
	}
	_, statErr := os.Stat(paths[0])
	attach := statErr == nil

	devs := make([]pmem.Backend, len(paths))
	for i, p := range paths {
		var (
			d   *mmapdev.Device
			err error
		)
		if attach {
			d, err = mmapdev.Open(p)
		} else {
			sz := size
			if shards > 1 && i == len(paths)-1 {
				sz = 1 << 20 // shard metadata: magic + shard count
			}
			d, err = mmapdev.Create(p, sz)
		}
		if err != nil {
			return nil, core.RecoveryInfo{}, fmt.Errorf("%s: %w", p, err)
		}
		devs[i] = d
	}
	opts = append(opts, core.WithDevices(devs...))
	if attach {
		opts = append(opts, core.WithAttach())
	}
	return core.Open(pmem.Config{}, opts...)
}

// runLoadgen serves on an in-process pipe listener, drives the load,
// and prints the latency/throughput/fence summary.
func runLoadgen(srv *server.Server, db *core.DB, lcfg loadgen.Config) {
	pl := server.NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()

	before := db.Stats()
	res, err := loadgen.Run(pl.Dial, lcfg, nil)
	if err != nil {
		log.Fatalf("loadgen: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	pl.Close()
	if err := <-serveErr; err != nil {
		log.Fatalf("serve: %v", err)
	}
	after := db.Stats()

	fencesPerOp := 0.0
	if res.Ops > 0 {
		fencesPerOp = float64(after.Fences-before.Fences) / float64(res.Ops)
	}
	fmt.Printf("clients=%d ops=%d errors=%d elapsed=%s\n", lcfg.Clients, res.Ops, res.Errors, res.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput=%.0f ops/s p50=%s p99=%s p999=%s fences/op=%.3f\n",
		res.Throughput, res.P50, res.P99, res.P999, fencesPerOp)
	if res.Errors > 0 {
		os.Exit(1)
	}
}
