package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/server"
	"github.com/mod-ds/mod/internal/server/loadgen"
)

// The srv-* workloads drive server.New in process over a PipeListener,
// with the store opened the way cmd/modserver opens it by default:
// background committer, 50 µs linger, 8 map roots on one heap. Every
// write reply waits on a durability ticket.

const (
	srvKeys    = 16384 // all preloaded
	srvRoots   = server.DefaultRoots
	srvWarmup  = time.Second           // load before the timed region, unrecorded
	srvSegment = 25 * time.Millisecond // the timed region is cut into windows this long
	srvLinger  = 50 * time.Microsecond
)

// srvSpec shapes one server workload.
type srvSpec struct {
	keys  int // all preloaded
	conns int
	// rate is the open-loop arrival rate in operations per second over
	// the one connection; 0 is a closed loop (each connection sends its
	// next request when the reply to the last arrives).
	rate   float64
	gen    func(seed int64, conn int) generator
	probes probeShape
}

// fault makes a connection lie to its model, to test that the
// correctness check catches a server that loses acknowledged writes.
// Only tests set it.
type fault int

const (
	faultNone      fault = iota
	faultDropAck         // record one SET as acknowledged without sending it
	faultTornMulti       // send half of one MULTI's SETs, record all four
)

// srvConn is one client connection: its RESP client, its operation
// stream, and the model of what the server has acknowledged to it.
type srvConn struct {
	id    int
	cl    *loadgen.Client
	gen   generator
	base  [][]byte // preloaded values, shared and read-only
	mod   *model   // this connection's acknowledged writes
	fault fault

	attempted, failed int64
	firstErr          error
	recs              []opRec // every operation issued, warm-up included
}

// opRec is the client-side record of one operation.
type opRec struct {
	kind  opKind
	cmds  int           // RESP commands it was sent as
	timed bool          // inside the timed region
	sent  time.Time     // when it went out
	done  time.Duration // completion, as an offset from the timed region's start
	lat   int64         // ns, from sent (closed loop) or from the due time (open loop)
	late  int64         // ns, open loop: sent minus due
	// genLate is the part of late that is the generator's doing: how long
	// after both the due time and the previous reply the request went out.
	// The rest of late is backlog, which the latency rightly includes.
	genLate int64
}

var (
	verbGet   = []byte("GET")
	verbSet   = []byte("SET")
	verbPing  = []byte("PING")
	errNotOK  = errors.New("reply is not +OK")
	errNotAll = errors.New("EXEC reply is not four +OK")
)

func isOK(r loadgen.Resp) bool { return r.Kind == loadgen.RespSimple && r.Str == "OK" }

// do sends o, waits for its reply, checks it, and records an acknowledged
// write in the model. It returns the number of commands sent.
func (c *srvConn) do(o *op) (cmds int, err error) {
	switch o.kind {
	case opGet:
		r, err := c.cl.Do(verbGet, o.kb)
		if err != nil {
			return 1, err
		}
		want, ok := c.mod.kv[o.key]
		if !ok && o.key < len(c.base) {
			want = c.base[o.key]
		}
		if r.Kind != loadgen.RespBulk || r.Nil != (want == nil) || !bytes.Equal(r.Bulk, want) {
			return 1, fmt.Errorf("GET %s: reply differs from the last acknowledged write", o.kb)
		}
	case opSet:
		if c.fault == faultDropAck {
			c.fault = faultNone
		} else {
			r, err := c.cl.Do(verbSet, o.kb, o.val)
			if err != nil {
				return 1, err
			}
			if !isOK(r) {
				return 1, fmt.Errorf("SET %s: %w: %s", o.kb, errNotOK, r.Str)
			}
		}
		c.mod.apply(*o)
	case opMulti:
		sets := make([][2][]byte, len(o.sub))
		for i, s := range o.sub {
			sets[i] = [2][]byte{s.kb, s.val}
		}
		if c.fault == faultTornMulti {
			c.fault = faultNone
			sets = sets[:len(sets)/2]
		}
		cmds = len(sets) + 2
		r, err := c.cl.Multi(sets)
		if err != nil {
			return cmds, err
		}
		if r.Kind != loadgen.RespArray || len(r.Elems) != len(sets) {
			return cmds, fmt.Errorf("%w: %+v", errNotAll, r)
		}
		for _, e := range r.Elems {
			if !isOK(e) {
				return cmds, fmt.Errorf("%w: %+v", errNotAll, r)
			}
		}
		c.mod.apply(*o)
		return cmds, nil
	}
	return 1, nil
}

// issue runs do, counts a failure, and starts the operation's record.
func (c *srvConn) issue(o *op, sent time.Time) *opRec {
	cmds, err := c.do(o)
	c.attempted++
	if err != nil {
		c.failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
	c.recs = append(c.recs, opRec{kind: o.kind, cmds: cmds, sent: sent})
	return &c.recs[len(c.recs)-1]
}

func (c *srvConn) nextOp() op {
	o := c.gen.next()
	fillKeys(&o)
	return o
}

// closedLoop sends until end, recording operations sent at or after
// start.
func (c *srvConn) closedLoop(start, end time.Time) {
	for {
		o := c.nextOp()
		sent := time.Now()
		if !sent.Before(end) {
			return
		}
		r := c.issue(&o, sent)
		done := time.Now()
		r.timed, r.done, r.lat = !sent.Before(start), done.Sub(start), int64(done.Sub(sent))
	}
}

// pacer schedules open-loop arrivals at a fixed interval. time.Sleep
// wakes hundreds of microseconds late, which would be charged to the
// server as latency, so wait sleeps only to within spin of the due time
// and yields the processor in a loop for the rest.
type pacer struct {
	start    time.Time
	interval time.Duration
	spin     time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
	yield    func()
}

func newPacer(start time.Time, rate float64) *pacer {
	return &pacer{
		start:    start,
		interval: time.Duration(float64(time.Second) / rate),
		spin:     2 * time.Millisecond,
		now:      time.Now, sleep: time.Sleep, yield: runtime.Gosched,
	}
}

// due is when arrival i is scheduled.
func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// wait returns once due has come, with the time it returned at; the
// difference is how late the generator ran. A due time already past (the
// previous request overran) returns at once.
func (p *pacer) wait(due time.Time) time.Time {
	now := p.now()
	if d := due.Sub(now) - p.spin; d > 0 {
		p.sleep(d)
		now = p.now()
	}
	for now.Before(due) {
		p.yield()
		now = p.now()
	}
	return now
}

// openLoop sends arrival i at p.due(i) until end, timing each operation
// from its due time, so a stall is charged to every request it delays.
// Operations due at or after start are recorded.
func (c *srvConn) openLoop(p *pacer, start, end time.Time) {
	var prevDone time.Time
	for i := 0; ; i++ {
		due := p.due(i)
		if !due.Before(end) {
			return
		}
		o := c.nextOp()
		sent := p.wait(due)
		r := c.issue(&o, sent)
		done := time.Now()
		r.timed, r.done, r.lat, r.late = !due.Before(start), done.Sub(start), int64(done.Sub(due)), int64(sent.Sub(due))
		r.genLate = r.late
		if prevDone.After(due) {
			r.genLate = int64(sent.Sub(prevDone))
		}
		prevDone = done
	}
}

// srvInstance is one running server with its connected clients.
type srvInstance struct {
	st       *stack
	srv      *server.Server
	pl       *server.PipeListener
	serveErr chan error
	conns    []*srvConn
	base     [][]byte

	closeOnce sync.Once
	closeErr  error
}

func srvMaps(db *core.DB) ([]*core.Map, error) {
	maps := make([]*core.Map, srvRoots)
	for i := range maps {
		m, err := db.Map(server.RootName(i))
		if err != nil {
			return nil, err
		}
		maps[i] = m
	}
	return maps, nil
}

// srvView reads a store through the server's key-to-root routing.
func srvView(db *core.DB) (view, error) {
	maps, err := srvMaps(db)
	if err != nil {
		return view{}, err
	}
	return view{
		get: func(k []byte) ([]byte, bool) { return maps[server.RootIndex(k, srvRoots)].Get(k) },
		mapLen: func() uint64 {
			var n uint64
			for _, m := range maps {
				n += m.Len()
			}
			return n
		},
	}, nil
}

// openSrvStore opens the store as modserver does by default and preloads
// every key through Batch commits. st, when non-nil, decorates the
// backend.
func openSrvStore(e *env, keys int, st *srvTrace) (*stack, []*core.Map, [][]byte, error) {
	var wrap func(pmem.Backend) pmem.Backend
	if st != nil {
		wrap = st.tr.wrap
		st.tr.forkGroup.Store(&st.tr.committer) // Open forks the committer's handle
	}
	stk, err := openStack(false, e.dir, wrap, core.WithCommitter(0), core.WithCommitterLinger(srvLinger))
	if err != nil {
		return nil, nil, nil, err
	}
	if st != nil {
		st.tr.forkGroup.Store(&st.tr.conn) // every later fork is a connection's
	}
	maps, err := srvMaps(stk.db)
	if err != nil {
		stk.close()
		return nil, nil, nil, err
	}
	base := preloadValues(e.seed, keys)
	for i := 0; i < keys; i += preloadBatch {
		b := stk.db.Batch()
		for k := i; k < min(i+preloadBatch, keys); k++ {
			kb := keyBytes(k)
			b.MapSet(maps[server.RootIndex(kb, srvRoots)], kb, base[k])
		}
		b.Commit()
	}
	return stk, maps, base, nil
}

// setupSrv opens and preloads the store, starts the server on a pipe
// listener and connects the clients. st, when non-nil, interposes the
// trace instruments.
func setupSrv(e *env, spec srvSpec, st *srvTrace) (*srvInstance, error) {
	stk, _, base, err := openSrvStore(e, spec.keys, st)
	if err != nil {
		return nil, err
	}
	x := &srvInstance{st: stk, base: base, serveErr: make(chan error, 1)}
	cfg := server.Config{KV: stk.db, Roots: srvRoots, Middleware: []server.Middleware{server.Recover()}}
	if st != nil {
		cfg.Middleware = append(cfg.Middleware, st.middleware)
	}
	if x.srv, err = server.New(cfg); err != nil {
		stk.close()
		return nil, err
	}
	x.pl = server.NewPipeListener()
	var l net.Listener = x.pl
	if st != nil {
		l = &tracedListener{Listener: x.pl, st: st}
	}
	go func() { x.serveErr <- x.srv.Serve(l) }()
	for i := 0; i < spec.conns; i++ {
		nc, err := x.pl.Dial()
		if err != nil {
			x.close()
			return nil, err
		}
		c := &srvConn{id: i, cl: loadgen.NewClient(nc), gen: spec.gen(e.seed, i), base: x.base, mod: newModel()}
		x.conns = append(x.conns, c)
		if st != nil {
			// Tells the middleware which accepted connection this
			// *server.Conn is (see srvTrace.middleware).
			if _, err := c.cl.Do(verbPing, []byte(strconv.Itoa(i))); err != nil {
				x.close()
				return nil, err
			}
		}
	}
	return x, nil
}

// close disconnects the clients and shuts the server down, which syncs
// and closes the store. Later calls return the first one's result.
func (x *srvInstance) close() error {
	x.closeOnce.Do(func() {
		for _, c := range x.conns {
			c.cl.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		err := x.srv.Shutdown(ctx)
		x.pl.Close()
		x.closeErr = errors.Join(err, <-x.serveErr, x.st.close())
	})
	return x.closeErr
}

// merged is the model of everything acknowledged on any connection, over
// the preload. Connections own disjoint keys.
func (x *srvInstance) merged() *model {
	m := newModel()
	for k, v := range x.base {
		m.kv[k] = v
	}
	for i, c := range x.conns {
		for k, v := range c.mod.kv {
			m.kv[k] = v
		}
		for k, g := range c.mod.group {
			m.group[k] = g + i<<32
		}
	}
	return m
}

// srvCounts are counter deltas over the timed region.
type srvCounts struct {
	ops int64
	// achieved is, for an open loop, completions per second of the whole
	// timed region, from the first send to the last reply: it falls below
	// the arrival rate when a backlog grows. (Per window the count is the
	// rate times the window, by construction.)
	achieved float64
	dev      pmem.Stats
	alloc    allocDelta
	commit   core.CommitStats
}

// measureSrv drives the load for the warm-up plus seconds and returns the
// timed region's segments and counter deltas.
func measureSrv(x *srvInstance, spec srvSpec, seconds float64) ([]segment, srvCounts) {
	total := time.Duration(seconds * float64(time.Second))
	t0 := time.Now()
	start := t0.Add(srvWarmup)
	end := start.Add(total)
	var wg sync.WaitGroup
	for _, c := range x.conns {
		wg.Add(1)
		go func(c *srvConn) {
			defer wg.Done()
			if spec.rate > 0 {
				c.openLoop(newPacer(t0, spec.rate), start, end)
			} else {
				c.closedLoop(start, end)
			}
		}(c)
	}
	store := x.st.db.Store()
	time.Sleep(time.Until(start))
	dev0, alloc0, commit0 := store.Stats(), store.Heap().Stats(), store.CommitStats()
	wg.Wait()
	var (
		all         []completion
		first, last time.Time
	)
	for _, c := range x.conns {
		for _, r := range c.recs {
			if !r.timed {
				continue
			}
			all = append(all, completion{done: r.done, lat: r.lat})
			if first.IsZero() || r.sent.Before(first) {
				first = r.sent
			}
			if at := start.Add(r.done); at.After(last) {
				last = at
			}
		}
	}
	segs := bucket(all, total, int(total/srvSegment))
	counts := srvCounts{
		dev:    store.Stats().Sub(dev0),
		alloc:  subAlloc(store.Heap().Stats(), alloc0),
		commit: subCommit(store.CommitStats(), commit0),
	}
	for _, s := range segs {
		counts.ops += int64(s.ops)
	}
	if spec.rate > 0 && last.After(first) {
		counts.achieved = float64(len(all)) / last.Sub(first).Seconds()
	}
	return segs, counts
}

func subCommit(a, b core.CommitStats) core.CommitStats {
	return core.CommitStats{
		FastWins: a.FastWins - b.FastWins, FastAborts: a.FastAborts - b.FastAborts,
		FastLosses: a.FastLosses - b.FastLosses, Combines: a.Combines - b.Combines,
		CombineRetries: a.CombineRetries - b.CombineRetries, CombinedOps: a.CombinedOps - b.CombinedOps,
		LockedCommits: a.LockedCommits - b.LockedCommits,
	}
}

// runSrv runs one server workload end to end.
func runSrv(e *env, name string, spec srvSpec) (*report, error) {
	if e.trace {
		return traceSrv(e, name, spec)
	}
	rep := newReport(name)
	x, setupS, err := repeatSetup(
		func() (*srvInstance, error) { return setupSrv(e, spec, nil) },
		func(x *srvInstance) error { return x.close() })
	if err != nil {
		return nil, err
	}
	defer x.close()
	rep.set("setup_s", setupS)

	segs, counts := measureSrv(x, spec, e.seconds)
	if _, err := finishSrv(e, rep, x, segs, counts, recoverReps); err != nil {
		return nil, err
	}
	return rep, nil
}

// finishSrv turns a measured server run into end-to-end metrics and runs
// the crash check.
func finishSrv(e *env, rep *report, x *srvInstance, segs []segment, counts srvCounts, reps int) (crashResult, error) {
	for _, c := range x.conns {
		rep.attempted += c.attempted
		rep.failed += c.failed
		if c.firstErr != nil {
			rep.note("FAILED operations on connection %d: %d; first: %v", c.id, c.failed, c.firstErr)
		}
	}
	if counts.ops == 0 {
		return crashResult{}, fmt.Errorf("%s: no operation completed in the timed region", rep.workload)
	}
	rep.setTiming(summarize(segs))
	if counts.achieved > 0 {
		rep.set("ops_per_s", counts.achieved)
	}
	rep.setCounts(counts.dev, counts.ops)
	rep.set("sim_ns_per_op", counts.dev.TotalNs/float64(counts.ops))
	mod := x.merged()
	rep.set("space_amp", spaceAmp(x.st, mod))
	chk, err := crashCheck(e, x.st, mod, srvView, false, false, reps)
	if err != nil {
		return chk, err
	}
	rep.count(chk.live)
	rep.count(chk.recovered)
	rep.set("recover_ms", chk.recoverMs)
	return chk, nil
}
