package server

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/server/loadgen"
)

// TestServerDegradedReplies: a store with one quarantined key root
// serves -CORRUPT for reads and -READONLY for writes routed to it,
// while keys on healthy roots keep full service.
func TestServerDegradedReplies(t *testing.T) {
	cfg := testConfig()
	db, _, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed one key per server root so every root exists durably.
	keyFor := func(i int) []byte {
		for n := 0; ; n++ {
			k := []byte(fmt.Sprintf("key-%d", n))
			if RootIndex(k, DefaultRoots) == i {
				return k
			}
		}
	}
	for i := 0; i < DefaultRoots; i++ {
		m, err := db.Map(RootName(i))
		if err != nil {
			t.Fatal(err)
		}
		m.Set(keyFor(i), []byte("v"))
	}
	db.Sync()
	s := db.Store()
	img := s.Device().Snapshot()

	// Damage the root the probe key routes to: flip a bit of its header
	// block's stored checksum.
	badIdx := RootIndex([]byte("probe"), DefaultRoots)
	slot, err := s.Heap().RootSlot(RootName(badIdx))
	if err != nil {
		t.Fatal(err)
	}
	root := s.Heap().Root(slot)
	img[root-alloc.HeaderSize+8] ^= 0x04

	_, _, pl := startServer(t, nil, nil,
		core.WithExistingImages([][]byte{img}), core.WithVerify())
	cl := dialClient(t, pl)
	defer cl.Close()

	// Writes to the quarantined root: -READONLY.
	if r, err := cl.Do([]byte("SET"), []byte("probe"), []byte("x")); err != nil ||
		r.Kind != loadgen.RespError || !strings.HasPrefix(r.Str, "READONLY") {
		t.Fatalf("SET on quarantined root: %+v %v", r, err)
	}
	// Reads from it: -CORRUPT.
	if r, err := cl.Do([]byte("GET"), keyFor(badIdx)); err != nil ||
		r.Kind != loadgen.RespError || !strings.HasPrefix(r.Str, "CORRUPT") {
		t.Fatalf("GET on quarantined root: %+v %v", r, err)
	}
	// Keys on healthy roots keep full service on the same connection.
	for i := 0; i < DefaultRoots; i++ {
		if i == badIdx {
			continue
		}
		k := keyFor(i)
		if r, err := cl.Do([]byte("GET"), k); err != nil || string(r.Bulk) != "v" {
			t.Fatalf("healthy GET %q: %+v %v", k, r, err)
		}
		if r, err := cl.Do([]byte("SET"), k, []byte("w")); err != nil || r.Str != "OK" {
			t.Fatalf("healthy SET %q: %+v %v", k, r, err)
		}
	}
}

// TestServerHandleRecoversCorruptionPanics: the typed panics raised by
// lazy on-read verification deep inside read paths become -CORRUPT
// replies, and the connection survives to serve the next command.
func TestServerHandleRecoversCorruptionPanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		panic any
	}{
		{"corruption", &alloc.CorruptionPanic{Block: alloc.BlockError{Addr: 0x40, Reason: "checksum mismatch"}}},
		{"media", &pmem.MediaError{Addr: 0x1000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mw := Middleware(func(next Handler) Handler {
				return func(c *Conn, cmd Command) Reply {
					if strings.EqualFold(cmd.Name, "GET") {
						panic(tc.panic)
					}
					return next(c, cmd)
				}
			})
			_, _, pl := startServer(t, []Middleware{mw}, nil, core.WithCommitter(0))
			cl := dialClient(t, pl)
			defer cl.Close()
			r, err := cl.Do([]byte("GET"), []byte("k"))
			if err != nil || r.Kind != loadgen.RespError || !strings.HasPrefix(r.Str, "CORRUPT") {
				t.Fatalf("panicking GET: %+v %v", r, err)
			}
			// The connection is still alive and serving.
			if r, err := cl.Do([]byte("PING")); err != nil || r.Str != "PONG" {
				t.Fatalf("PING after recovered panic: %+v %v", r, err)
			}
		})
	}
}

// TestServerSetAfterCorruptSet: a SET whose commit-queue round meets a
// damaged node — a wild child reference planted in its root's trie node,
// checksum re-stamped so only the reference is wrong — gets an error
// reply, and a later SET to a healthy root on the same store gets +OK: the
// round that panicked left the queue serving instead of holding its lead.
func TestServerSetAfterCorruptSet(t *testing.T) {
	db, _, err := core.Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	badIdx := RootIndex([]byte("probe"), DefaultRoots)
	healthy := []byte("probe")
	for n := 0; RootIndex(healthy, DefaultRoots) == badIdx; n++ {
		healthy = []byte(fmt.Sprintf("healthy-%d", n))
	}
	m, err := db.Map(RootName(badIdx))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		m.Set([]byte(fmt.Sprintf("key-%08d", i)), []byte("v"))
	}
	db.Sync()
	s := db.Store()
	slot, err := s.Heap().RootSlot(RootName(badIdx))
	if err != nil {
		t.Fatal(err)
	}
	// The root trie node is [count][dataMap][nodeMap], then 8 bytes per
	// entry, then the child references.
	node := s.Heap().Root(slot)
	dataMap, nodeMap := s.Device().ReadU32(node+8), s.Device().ReadU32(node+12)
	if nodeMap == 0 {
		t.Fatal("root trie node has no children; load more keys")
	}
	sum, _, _ := s.Heap().Checksum(node)
	s.Device().WriteU32(node+16+pmem.Addr(bits.OnesCount32(dataMap)*8), ^uint32(0))
	s.Heap().SetChecksum(node, sum)

	srv, err := New(Config{KV: db})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPipeListener()
	go srv.Serve(pl)
	t.Cleanup(func() {
		if t.Failed() {
			return // a wedged queue would hold Shutdown's Sync forever
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		pl.Close()
	})
	cl := dialClient(t, pl)
	do := func(args ...[]byte) loadgen.Resp {
		t.Helper()
		type result struct {
			r   loadgen.Resp
			err error
		}
		done := make(chan result, 1)
		go func() {
			r, err := cl.Do(args...)
			done <- result{r, err}
		}()
		select {
		case res := <-done:
			if res.err != nil {
				t.Fatalf("%s: %v", args[0], res.err)
			}
			return res.r
		case <-time.After(3 * time.Second):
			t.Fatalf("%s %s: no reply within 3 s", args[0], args[1])
		}
		return loadgen.Resp{}
	}
	if r := do([]byte("SET"), []byte("probe"), []byte("x")); r.Kind != loadgen.RespError {
		t.Fatalf("SET through a damaged node: %+v, want an error reply", r)
	}
	if r := do([]byte("SET"), healthy, []byte("x")); r.Str != "OK" {
		t.Fatalf("SET to a healthy root after a damaged one: %+v, want +OK", r)
	}
}

// flakyKV wraps a real KV, failing the first n CommitAsync submissions
// with err before letting the real commit through.
type flakyKV struct {
	core.KV
	fail atomic.Int32
	err  error
	// commits counts CommitAsync submissions (including failed ones).
	commits atomic.Int32
}

func (f *flakyKV) Batch() core.Batcher { return &flakyBatch{Batcher: f.KV.Batch(), f: f} }
func (f *flakyKV) ForkKV() core.KV     { return f }

type flakyBatch struct {
	core.Batcher
	f *flakyKV
}

func (b *flakyBatch) CommitAsync() *core.Ticket {
	b.f.commits.Add(1)
	if b.f.fail.Add(-1) >= 0 {
		return core.FailedTicket(b.f.err)
	}
	return b.Batcher.CommitAsync()
}

// TestCommitDurableRetriesTransientFailures: a transiently failing
// durability ticket is retried with backoff and the write lands; a
// permanent failure (quarantined root) is not retried.
func TestCommitDurableRetriesTransientFailures(t *testing.T) {
	db, _, err := core.Open(testConfig(), core.WithCommitter(0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	m, err := db.Map(RootName(0))
	if err != nil {
		t.Fatal(err)
	}

	flaky := &flakyKV{KV: db, err: errors.New("transient commit glitch")}
	flaky.fail.Store(int32(commitRetries)) // every retry consumed, last attempt succeeds
	builds := 0
	err = commitDurable(flaky, func(b core.Batcher) {
		builds++
		b.MapSet(m, []byte("k"), []byte("v"))
	})
	if err != nil {
		t.Fatalf("commitDurable with %d transient failures: %v", commitRetries, err)
	}
	if got := int(flaky.commits.Load()); got != commitRetries+1 {
		t.Fatalf("submissions = %d, want %d", got, commitRetries+1)
	}
	if builds != commitRetries+1 {
		t.Fatalf("batch rebuilt %d times, want %d (each submission consumes its batch)", builds, commitRetries+1)
	}
	if v, ok := m.Get([]byte("k")); !ok || string(v) != "v" {
		t.Fatalf("retried write lost: %q %v", v, ok)
	}

	// One failure more than the retry budget: the error surfaces.
	flaky2 := &flakyKV{KV: db, err: errors.New("transient commit glitch")}
	flaky2.fail.Store(int32(commitRetries) + 1)
	if err := commitDurable(flaky2, func(b core.Batcher) { b.MapSet(m, []byte("k2"), []byte("v")) }); err == nil {
		t.Fatal("exhausted retries reported success")
	}

	// Permanent failures are not retried at all.
	perm := &flakyKV{KV: db, err: fmt.Errorf("root gone: %w", core.ErrCorrupted)}
	perm.fail.Store(100)
	if err := commitDurable(perm, func(b core.Batcher) { b.MapSet(m, []byte("k3"), []byte("v")) }); !errors.Is(err, core.ErrCorrupted) {
		t.Fatalf("permanent failure: %v", err)
	}
	if got := int(perm.commits.Load()); got != 1 {
		t.Fatalf("permanent failure submitted %d times, want 1", got)
	}
}

// TestTimeoutDiscardsLateReply covers the Timeout middleware's stray-
// handler path: after a timeout, the late reply is consumed and
// discarded — it must never be delivered as the answer to a later
// command — and the connection serves fresh commands again.
func TestTimeoutDiscardsLateReply(t *testing.T) {
	release := make(chan struct{})
	inner := Handler(func(c *Conn, cmd Command) Reply {
		if strings.EqualFold(cmd.Name, "SLOW") {
			<-release
			return SimpleReply("LATE")
		}
		return SimpleReply("FAST-" + cmd.Name)
	})
	h := Timeout(20 * time.Millisecond)(inner)
	c := &Conn{}

	// 1. The slow command times out.
	rp := h(c, Command{Name: "SLOW"})
	if !rp.IsError() {
		t.Fatalf("slow command did not time out: %v", rp)
	}
	// 2. While the stray handler runs, new commands are rejected.
	rp = h(c, Command{Name: "PING"})
	if !rp.IsError() {
		t.Fatalf("command during stray handler not rejected: %v", rp)
	}
	// 3. Release the stray handler and let its late reply land in the
	// stray channel.
	close(release)
	time.Sleep(10 * time.Millisecond)
	// 4. The next command must get ITS OWN reply — the stray "LATE"
	// reply is drained and discarded, not delivered.
	rp = h(c, Command{Name: "PING"})
	if rp.IsError() {
		t.Fatalf("command after stray completion rejected: %v", rp)
	}
	if got := string(rp.buf); !strings.Contains(got, "FAST-PING") || strings.Contains(got, "LATE") {
		t.Fatalf("late reply leaked into a later command: %q", got)
	}
}

// TestServerCrashRecoveryBitFlips is the e2e crash test's fault-
// injection phase: an audited client runs a fixed number of operations
// against the server, a crash image is snapped after the last reply, eight
// seeds each inject three random bit flips into a copy of it, and every
// verify+salvage reopen is audited — every acked write must read back
// byte-exact or be excused by typed detection (open failure or a
// quarantined root), and MULTIs stay all-or-nothing. One connection and a
// fixed op count make the image, and so every seed's outcome, the same on
// every run.
func TestServerCrashRecoveryBitFlips(t *testing.T) {
	db, _, err := core.Open(testConfig(), core.WithCommitter(0))
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

	res, err := loadgen.Run(pl.Dial, loadgen.Config{
		Clients:      1,
		Ops:          2000,
		RecordWrites: true,
		MultiEvery:   5,
		MultiSize:    3,
		Seed:         11,
	}, nil)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	tCrash := time.Now()
	imgs := db.CrashImages(pmem.CrashFencedOnly, 4321)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	pl.Close()
	<-serveErr
	if len(res.Writes) == 0 {
		t.Fatal("no audited writes recorded")
	}

	// Learn the live block bounds from an undamaged reopen so the flips
	// aim at real data instead of empty arena.
	probe, _, err := core.Open(testConfig(), core.WithExistingImages(imgs))
	if err != nil {
		t.Fatalf("undamaged reopen: %v", err)
	}
	lo, hi := probe.Store().Heap().DataBounds()
	probe.Close()

	audited := 0
	for seed := 0; seed < 8; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)*9176 + 5))
		var plan pmem.FaultPlan
		for i := 0; i < 3; i++ {
			plan.FlipBit(lo+pmem.Addr(rng.Int63n(int64(hi-lo))), uint8(rng.Intn(8)))
		}
		dmg := [][]byte{append([]byte(nil), imgs[0]...)}
		plan.ApplyToImage(dmg[0], nil)

		re, _, err := core.Open(testConfig(), core.WithExistingImages(dmg),
			core.WithVerify(), core.WithSalvage())
		if err != nil {
			if !errors.Is(err, core.ErrCorrupted) {
				t.Fatalf("seed %d: damaged reopen failed untyped: %v", seed, err)
			}
			continue
		}
		roots := make(map[int]*core.Map)
		lookup := func(k []byte) ([]byte, bool, error) {
			i := RootIndex(k, DefaultRoots)
			if roots[i] == nil {
				m, err := re.Map(RootName(i))
				if errors.Is(err, core.ErrCorrupted) {
					return nil, false, err
				}
				if err != nil {
					t.Fatalf("seed %d: bind root %d failed untyped: %v", seed, i, err)
				}
				roots[i] = m
			}
			v, ok := roots[i].Get(k)
			return v, ok, nil
		}
		rep, aerr := loadgen.AuditWrites(res.Writes, tCrash, lookup)
		re.Close()
		if aerr != nil {
			t.Fatalf("seed %d: %v", seed, aerr)
		}
		if rep.Verified+rep.Quarantined > 0 {
			audited++
		}
	}
	if audited == 0 {
		t.Fatal("no reopen audited any acked write")
	}
}
