package server

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/server/loadgen"
)

func testConfig() pmem.Config {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	return cfg
}

// startServer opens a store with the given options and serves it on an
// in-process pipe listener. Cleanup shuts the server down.
func startServer(t *testing.T, mw []Middleware, cmw []ConnMiddleware, opts ...core.Option) (*core.DB, *Server, *PipeListener) {
	t.Helper()
	db, _, err := core.Open(testConfig(), opts...)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	srv, err := New(Config{KV: db, Middleware: mw, ConnMiddleware: cmw})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	pl := NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		pl.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return db, srv, pl
}

func dialClient(t *testing.T, pl *PipeListener) *loadgen.Client {
	t.Helper()
	c, err := pl.Dial()
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return loadgen.NewClient(c)
}

// TestProtocolRoundtrip covers parse/serialize for every verb shape.
func TestProtocolRoundtrip(t *testing.T) {
	_, _, pl := startServer(t, nil, nil, core.WithCommitter(0))
	cl := dialClient(t, pl)
	defer cl.Close()

	if r, err := cl.Do([]byte("PING")); err != nil || r.Str != "PONG" {
		t.Fatalf("PING: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("set"), []byte("k"), []byte("v")); err != nil || r.Str != "OK" {
		t.Fatalf("SET (lowercase verb): %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("GET"), []byte("k")); err != nil || string(r.Bulk) != "v" {
		t.Fatalf("GET: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("GET"), []byte("missing")); err != nil || !r.Nil {
		t.Fatalf("GET missing: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("MGET"), []byte("k"), []byte("missing")); err != nil ||
		len(r.Elems) != 2 || string(r.Elems[0].Bulk) != "v" || !r.Elems[1].Nil {
		t.Fatalf("MGET: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("LEN")); err != nil || r.Int != 1 {
		t.Fatalf("LEN: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("DEL"), []byte("k")); err != nil || r.Int != 1 {
		t.Fatalf("DEL: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("DEL"), []byte("k")); err != nil || r.Int != 0 {
		t.Fatalf("DEL absent: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("SET"), []byte("k")); err != nil || r.Kind != loadgen.RespError {
		t.Fatalf("SET arity: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("NOPE")); err != nil || r.Kind != loadgen.RespError {
		t.Fatalf("unknown verb: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("EXEC")); err != nil || r.Kind != loadgen.RespError {
		t.Fatalf("EXEC without MULTI: %+v %v", r, err)
	}
	// Binary-unsafe bytes in keys and values survive intact.
	key := []byte("bin\r\n\x00key")
	val := bytes.Repeat([]byte{0, 1, 2, '\r', '\n'}, 100)
	if r, err := cl.Do([]byte("SET"), key, val); err != nil || r.Str != "OK" {
		t.Fatalf("binary SET: %+v %v", r, err)
	}
	if r, err := cl.Do([]byte("GET"), key); err != nil || !bytes.Equal(r.Bulk, val) {
		t.Fatalf("binary GET mismatch")
	}
}

// TestDurabilityBeforeReply is the contract test: the instant a write
// is acknowledged, a fenced-only crash image must already contain it —
// across per-op, MULTI, and sharded configurations.
func TestDurabilityBeforeReply(t *testing.T) {
	cases := []struct {
		name string
		opts []core.Option
	}{
		{"single", []core.Option{core.WithCommitter(0)}},
		{"sharded", []core.Option{core.WithShards(4), core.WithCommitter(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, _, pl := startServer(t, nil, nil, tc.opts...)
			cl := dialClient(t, pl)
			defer cl.Close()

			for i := 0; i < 20; i++ {
				k := []byte(fmt.Sprintf("key-%d", i))
				v := []byte(fmt.Sprintf("val-%d", i))
				if r, err := cl.Do([]byte("SET"), k, v); err != nil || r.Str != "OK" {
					t.Fatalf("SET %d: %+v %v", i, r, err)
				}
				imgs := db.CrashImages(pmem.CrashFencedOnly, uint64(i))
				db2, _, err := core.Open(testConfig(), core.WithExistingImages(imgs))
				if err != nil {
					t.Fatalf("reopen after SET %d: %v", i, err)
				}
				m, err := db2.Map(RootName(RootIndex(k, DefaultRoots)))
				if err != nil {
					t.Fatalf("bind root: %v", err)
				}
				if got, ok := m.Get(k); !ok || !bytes.Equal(got, v) {
					t.Fatalf("acked SET %d not durable at crash: %q %v", i, got, ok)
				}
				db2.Close()
			}

			// A MULTI spanning several roots (and shards) must be
			// atomically durable once EXEC is acknowledged.
			sets := make([][2][]byte, 6)
			for i := range sets {
				sets[i] = [2][]byte{
					[]byte(fmt.Sprintf("txn-key-%d", i)),
					[]byte("txn-val"),
				}
			}
			if r, err := cl.Multi(sets); err != nil || r.Kind != loadgen.RespArray || len(r.Elems) != 6 {
				t.Fatalf("MULTI/EXEC: %+v %v", r, err)
			}
			imgs := db.CrashImages(pmem.CrashFencedOnly, 99)
			db2, _, err := core.Open(testConfig(), core.WithExistingImages(imgs))
			if err != nil {
				t.Fatalf("reopen after EXEC: %v", err)
			}
			defer db2.Close()
			for _, kv := range sets {
				m, err := db2.Map(RootName(RootIndex(kv[0], DefaultRoots)))
				if err != nil {
					t.Fatalf("bind root: %v", err)
				}
				if got, ok := m.Get(kv[0]); !ok || !bytes.Equal(got, kv[1]) {
					t.Fatalf("acked MULTI key %q not durable", kv[0])
				}
			}
		})
	}
}

// TestMultiSemantics covers the transaction state machine edges.
func TestMultiSemantics(t *testing.T) {
	_, _, pl := startServer(t, nil, nil, core.WithCommitter(0))
	cl := dialClient(t, pl)
	defer cl.Close()

	if r, _ := cl.Do([]byte("MULTI")); r.Str != "OK" {
		t.Fatalf("MULTI: %+v", r)
	}
	if r, _ := cl.Do([]byte("MULTI")); r.Kind != loadgen.RespError {
		t.Fatalf("nested MULTI: %+v", r)
	}
	// The nested-MULTI error does not abort; queue and discard.
	if r, _ := cl.Do([]byte("SET"), []byte("a"), []byte("1")); r.Str != "QUEUED" {
		t.Fatalf("queued SET: %+v", r)
	}
	if r, _ := cl.Do([]byte("DISCARD")); r.Str != "OK" {
		t.Fatalf("DISCARD: %+v", r)
	}
	if r, _ := cl.Do([]byte("GET"), []byte("a")); !r.Nil {
		t.Fatalf("discarded write applied: %+v", r)
	}
	// A read inside MULTI aborts the transaction.
	cl.Do([]byte("MULTI"))
	cl.Do([]byte("SET"), []byte("b"), []byte("1"))
	if r, _ := cl.Do([]byte("GET"), []byte("b")); r.Kind != loadgen.RespError {
		t.Fatalf("GET in MULTI should abort: %+v", r)
	}
	if r, _ := cl.Do([]byte("EXEC")); r.Kind != loadgen.RespError {
		t.Fatalf("EXEC after abort: %+v", r)
	}
	if r, _ := cl.Do([]byte("GET"), []byte("b")); !r.Nil {
		t.Fatalf("aborted write applied: %+v", r)
	}
}

// TestMiddleware exercises the composable middleware stack.
func TestMiddleware(t *testing.T) {
	t.Run("recover", func(t *testing.T) {
		boom := func(next Handler) Handler {
			return func(c *Conn, cmd Command) Reply {
				if strings.EqualFold(cmd.Name, "BOOM") {
					panic("kaboom")
				}
				return next(c, cmd)
			}
		}
		_, _, pl := startServer(t, []Middleware{Recover(), boom}, nil, core.WithCommitter(0))
		cl := dialClient(t, pl)
		defer cl.Close()
		if r, err := cl.Do([]byte("BOOM")); err != nil || r.Kind != loadgen.RespError || !strings.Contains(r.Str, "kaboom") {
			t.Fatalf("panic not converted: %+v %v", r, err)
		}
		// Connection and server survive the panic.
		if r, err := cl.Do([]byte("PING")); err != nil || r.Str != "PONG" {
			t.Fatalf("PING after panic: %+v %v", r, err)
		}
	})

	t.Run("logging", func(t *testing.T) {
		var mu sync.Mutex
		var lines []string
		logf := func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		_, _, pl := startServer(t, []Middleware{Logging(logf)}, nil, core.WithCommitter(0))
		cl := dialClient(t, pl)
		defer cl.Close()
		cl.Do([]byte("PING"))
		cl.Do([]byte("NOPE"))
		mu.Lock()
		defer mu.Unlock()
		if len(lines) != 2 || !strings.Contains(lines[0], "cmd=PING") || !strings.Contains(lines[1], "outcome=err") {
			t.Fatalf("log lines: %q", lines)
		}
	})

	t.Run("timeout", func(t *testing.T) {
		slow := func(next Handler) Handler {
			return func(c *Conn, cmd Command) Reply {
				if strings.EqualFold(cmd.Name, "SLOW") {
					time.Sleep(200 * time.Millisecond)
					return SimpleReply("SLOWOK")
				}
				return next(c, cmd)
			}
		}
		_, _, pl := startServer(t, []Middleware{Timeout(20 * time.Millisecond), slow}, nil, core.WithCommitter(0))
		cl := dialClient(t, pl)
		defer cl.Close()
		if r, err := cl.Do([]byte("SLOW")); err != nil || r.Kind != loadgen.RespError || !strings.Contains(r.Str, "timed out") {
			t.Fatalf("timeout: %+v %v", r, err)
		}
		// Fast commands pass through untouched.
		if r, err := cl.Do([]byte("PING")); err != nil || r.Str != "PONG" {
			// The stray SLOW handler may still be draining; one retry
			// after it finishes must succeed.
			time.Sleep(250 * time.Millisecond)
			if r, err = cl.Do([]byte("PING")); err != nil || r.Str != "PONG" {
				t.Fatalf("PING after timeout: %+v %v", r, err)
			}
		}
	})

	t.Run("limitconns", func(t *testing.T) {
		_, _, pl := startServer(t, nil, []ConnMiddleware{LimitConns(1)}, core.WithCommitter(0))
		cl1 := dialClient(t, pl)
		defer cl1.Close()
		if r, err := cl1.Do([]byte("PING")); err != nil || r.Str != "PONG" {
			t.Fatalf("first conn: %+v %v", r, err)
		}
		c2, err := pl.Dial()
		if err != nil {
			t.Fatalf("dial second: %v", err)
		}
		defer c2.Close()
		line, err := bufio.NewReader(c2).ReadString('\n')
		if err != nil || !strings.HasPrefix(line, "-ERR max connections") {
			t.Fatalf("second conn not refused: %q %v", line, err)
		}
	})
}

// TestGracefulShutdownUnderLoad drives concurrent clients while the
// server shuts down via the SHUTDOWN verb: the drain must complete, the
// store must end up closed, and every write acknowledged before the
// shutdown began must be durable in the closed store.
func TestGracefulShutdownUnderLoad(t *testing.T) {
	db, _, err := core.Open(testConfig(), core.WithShards(2), core.WithCommitter(0))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	srv, err := New(Config{KV: db})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	pl := NewPipeListener()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(pl) }()

	stop := make(chan struct{})
	resCh := make(chan loadgen.Result, 1)
	go func() {
		res, err := loadgen.Run(pl.Dial, loadgen.Config{
			Clients:      8,
			Duration:     30 * time.Second, // stop channel ends it sooner
			RecordWrites: true,
			MultiEvery:   7,
			MultiSize:    3,
			Seed:         42,
		}, stop)
		if err != nil {
			t.Errorf("loadgen: %v", err)
		}
		resCh <- res
	}()

	time.Sleep(300 * time.Millisecond)
	// SHUTDOWN arrives over the wire like any other command.
	sc := dialClient(t, pl)
	if r, err := sc.Do([]byte("SHUTDOWN")); err != nil || r.Str != "OK" {
		t.Fatalf("SHUTDOWN: %+v %v", r, err)
	}
	sc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	close(stop)
	pl.Close()
	if err := <-serveErr; err != nil {
		t.Fatalf("serve: %v", err)
	}
	res := <-resCh

	for i := 0; i < db.ShardCount(); i++ {
		if !db.Shard(i).Closed() {
			t.Fatalf("shard %d not closed after shutdown", i)
		}
	}
	if res.Ops == 0 {
		t.Fatal("no load reached the server")
	}
	// Acked writes must be readable in the final state: Close only
	// stops mutation, not reads through bound handles.
	check, _, err := core.Open(testConfig(),
		core.WithExistingImages(db.CrashImages(pmem.CrashFencedOnly, 7)))
	if err != nil {
		t.Fatalf("reopen closed store image: %v", err)
	}
	defer check.Close()
	acked := 0
	for _, w := range res.Writes {
		if !w.Acked {
			continue
		}
		acked++
		for i, k := range w.Keys {
			m, err := check.Map(RootName(RootIndex(k, DefaultRoots)))
			if err != nil {
				t.Fatalf("bind root: %v", err)
			}
			if got, ok := m.Get(k); !ok || !bytes.Equal(got, w.Vals[i]) {
				t.Fatalf("acked write %q lost across shutdown", k)
			}
		}
	}
	if acked == 0 {
		t.Fatal("no acked writes recorded")
	}
}

// TestServerCrashRecovery is the e2e crash test: concurrent clients
// (including MULTI traffic) load the server, a crash image is snapped
// mid-load, and after reopening every write acknowledged before the
// snapshot must be present while no MULTI may be partially applied.
func TestServerCrashRecovery(t *testing.T) {
	cases := []struct {
		name string
		opts []core.Option
	}{
		{"single", []core.Option{core.WithCommitter(0)}},
		{"sharded", []core.Option{core.WithShards(4), core.WithCommitter(0)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := core.Open(testConfig(), tc.opts...)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			srv, err := New(Config{KV: db})
			if err != nil {
				t.Fatalf("new server: %v", err)
			}
			pl := NewPipeListener()
			serveErr := make(chan error, 1)
			go func() { serveErr <- srv.Serve(pl) }()

			stop := make(chan struct{})
			resCh := make(chan loadgen.Result, 1)
			go func() {
				res, err := loadgen.Run(pl.Dial, loadgen.Config{
					Clients:      8,
					Duration:     30 * time.Second,
					RecordWrites: true,
					MultiEvery:   5,
					MultiSize:    3,
					Seed:         7,
				}, stop)
				if err != nil {
					t.Errorf("loadgen: %v", err)
				}
				resCh <- res
			}()

			// Snap the crash image mid-load: the device mutex makes the
			// snapshot atomic while handlers keep writing around it.
			time.Sleep(250 * time.Millisecond)
			tCrash := time.Now()
			imgs := db.CrashImages(pmem.CrashFencedOnly, 1234)

			close(stop)
			res := <-resCh
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			srv.Shutdown(ctx)
			pl.Close()
			<-serveErr

			re, info, err := core.Open(testConfig(), core.WithExistingImages(imgs))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer re.Close()
			if !info.Recovered {
				t.Fatal("reopen did not report recovery")
			}
			roots := make(map[int]*core.Map)
			lookup := func(k []byte) ([]byte, bool) {
				i := RootIndex(k, DefaultRoots)
				if roots[i] == nil {
					m, err := re.Map(RootName(i))
					if err != nil {
						t.Fatalf("bind root %d: %v", i, err)
					}
					roots[i] = m
				}
				return roots[i].Get(k)
			}

			ackedBefore, multis := 0, 0
			for _, w := range res.Writes {
				// Writes acknowledged before the snapshot began must be
				// fenced durable, hence present in a fenced-only image.
				if w.Acked && w.AckTime.Before(tCrash) {
					ackedBefore++
					for i, k := range w.Keys {
						if got, ok := lookup(k); !ok || !bytes.Equal(got, w.Vals[i]) {
							t.Fatalf("write %q acked before crash but missing after recovery", k)
						}
					}
				}
				// Every MULTI — acked or in flight at the crash — must be
				// all-or-nothing. Keys are unique per txn, so presence
				// counts are unambiguous.
				if w.Multi {
					multis++
					present := 0
					for _, k := range w.Keys {
						if _, ok := lookup(k); ok {
							present++
						}
					}
					if present != 0 && present != len(w.Keys) {
						t.Fatalf("MULTI partially applied after crash: %d of %d keys", present, len(w.Keys))
					}
				}
			}
			if ackedBefore == 0 {
				t.Fatal("no writes acked before the crash point; test too short")
			}
			if multis == 0 {
				t.Fatal("no MULTI traffic generated")
			}
		})
	}
}
