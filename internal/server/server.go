package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// DefaultRoots is the number of map roots keys are spread across when
// Config.Roots is zero. Spreading matters twice: root-level writer
// locks stop being a single hot point, and on a sharded store the
// roots land on different shards, so MULTI batches exercise the
// cross-shard group commit.
const DefaultRoots = 8

// RootName returns the reserved-for-the-server root name of key root i.
func RootName(i int) string { return fmt.Sprintf("kv:%d", i) }

// RootIndex routes a key to one of roots map roots (FNV-1a, the same
// hash regardless of store shape). Exported so crash tests and tools
// can find a key's root without a server.
func RootIndex(key []byte, roots int) int {
	h := fnv.New32a()
	h.Write(key)
	return int(h.Sum32() % uint32(roots))
}

// Config configures a Server.
type Config struct {
	// KV is the store to serve: a *core.DB, or a test fake wrapping one.
	KV core.KV
	// Roots is the number of map roots to spread keys across
	// (DefaultRoots when zero).
	Roots int
	// Middleware wraps the command handler, first element outermost.
	Middleware []Middleware
	// ConnMiddleware wraps per-connection service, first outermost
	// (e.g. LimitConns).
	ConnMiddleware []ConnMiddleware
	// Logf, when set, receives server lifecycle and connection-error
	// lines.
	Logf func(format string, args ...any)
}

// Server serves the RESP subset over any net.Listener. One goroutine
// per connection; writes reply only after their durability ticket
// resolves.
type Server struct {
	cfg     Config
	handler Handler
	serve   ConnHandler

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	connWG    sync.WaitGroup
	draining  atomic.Bool
	doneCh    chan struct{} // closed when shutdown completes
	shutOnce  sync.Once
}

// New builds a Server from cfg, composing the middleware chains.
func New(cfg Config) (*Server, error) {
	if cfg.KV == nil {
		return nil, errors.New("server: Config.KV is required")
	}
	if cfg.Roots <= 0 {
		cfg.Roots = DefaultRoots
	}
	s := &Server{
		cfg:       cfg,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
		doneCh:    make(chan struct{}),
	}
	s.handler = s.dispatch
	for i := len(cfg.Middleware) - 1; i >= 0; i-- {
		s.handler = cfg.Middleware[i](s.handler)
	}
	s.serve = s.serveConn
	for i := len(cfg.ConnMiddleware) - 1; i >= 0; i-- {
		s.serve = cfg.ConnMiddleware[i](s.serve)
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on l until the listener is closed (usually
// by Shutdown). It returns nil on a shutdown-initiated close.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
			}()
			s.serve(c)
		}()
	}
}

// ListenAndServe listens on the TCP address addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.logf("listening on %s", l.Addr())
	return s.Serve(l)
}

// Shutdown gracefully stops the server: new connections are refused,
// blocked readers are kicked loose while in-flight commands finish and
// get their durable replies, then the store is drained (Sync) and
// closed. Safe to call more than once; every call waits for completion
// or ctx expiry, whichever first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutOnce.Do(func() {
		s.draining.Store(true)
		s.mu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		// Kick connections blocked in Read; a handler mid-command is
		// untouched and still writes its (durable) reply before its
		// next read fails.
		past := time.Unix(1, 0)
		for c := range s.conns {
			c.SetReadDeadline(past)
		}
		s.mu.Unlock()
		go func() {
			s.connWG.Wait()
			s.cfg.KV.Sync()
			if err := s.cfg.KV.Close(); err != nil {
				s.logf("close store: %v", err)
			}
			close(s.doneCh)
			s.logf("shutdown complete")
		}()
	})
	select {
	case <-s.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done is closed once Shutdown has fully drained and closed the store.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Conn is the per-connection state handlers run against: a forked KV
// handle (own simulated clock), this connection's root bindings, and
// the MULTI queue.
type Conn struct {
	srv   *Server
	kv    core.KV
	roots []*core.Map

	inMulti bool
	queued  []Command
}

// rootFor lazily binds the map root a key routes to.
func (c *Conn) rootFor(key []byte) (*core.Map, error) {
	i := RootIndex(key, len(c.roots))
	if c.roots[i] == nil {
		m, err := c.kv.Map(RootName(i))
		if err != nil {
			return nil, err
		}
		c.roots[i] = m
	}
	return c.roots[i], nil
}

// serveConn runs the read → handle → reply loop for one connection.
func (s *Server) serveConn(nc net.Conn) {
	c := &Conn{
		srv:   s,
		kv:    s.cfg.KV.ForkKV(),
		roots: make([]*core.Map, s.cfg.Roots),
	}
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	for {
		cmd, err := ReadCommand(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				if errors.Is(err, errProtocol) {
					// Tell the peer what went wrong before hanging up.
					ErrorReply("ERR", err.Error()).writeTo(bw)
					bw.Flush()
				}
				s.logf("read: %v", err)
			}
			return
		}
		rp := s.handle(c, cmd)
		if err := rp.writeTo(bw); err != nil {
			s.logf("write: %v", err)
			return
		}
		if err := bw.Flush(); err != nil {
			s.logf("flush: %v", err)
			return
		}
	}
}

// handle runs the middleware-wrapped handler, converting the typed
// corruption panics the store's lazy on-read verification raises deep
// inside read paths (which have no error returns) into -CORRUPT
// replies: one damaged node degrades one command, not the connection —
// let alone the server. Anything else keeps panicking into the
// connection goroutine (or the Recover middleware, when installed).
func (s *Server) handle(c *Conn, cmd Command) (rp Reply) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case *alloc.CorruptionPanic:
			rp = ErrorReply("CORRUPT", r.Error())
		case *pmem.MediaError:
			rp = ErrorReply("CORRUPT", r.Error())
		default:
			panic(r)
		}
	}()
	return s.handler(c, cmd)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// errReply maps store errors onto RESP error classes for read paths:
// a quarantined or corrupt root answers -CORRUPT so clients can tell
// media damage from transient failures.
func errReply(err error) Reply {
	switch {
	case errors.Is(err, core.ErrWrongRootKind):
		return ErrorReply("WRONGTYPE", err.Error())
	case errors.Is(err, core.ErrStoreClosed):
		return ErrorReply("SHUTDOWN", err.Error())
	case errors.Is(err, core.ErrCorrupted):
		return ErrorReply("CORRUPT", err.Error())
	default:
		return ErrorReply("ERR", err.Error())
	}
}

// writeErrReply maps store errors onto RESP error classes for write
// paths: a write against a quarantined root answers -READONLY — the
// root is degraded to read-only-at-best until repaired, and the Redis
// convention tells well-behaved clients to stop writing here.
func writeErrReply(err error) Reply {
	if errors.Is(err, core.ErrCorrupted) {
		return ErrorReply("READONLY", err.Error())
	}
	return errReply(err)
}

// transientCommitErr reports whether a CommitAsync ticket failure is
// worth retrying: permanent conditions (shutdown, quarantined or
// mistyped roots) are not.
func transientCommitErr(err error) bool {
	return !errors.Is(err, core.ErrStoreClosed) &&
		!errors.Is(err, core.ErrCorrupted) &&
		!errors.Is(err, core.ErrWrongRootKind) &&
		!errors.Is(err, core.ErrReservedRootName)
}

// commitRetries and commitBackoff bound the write paths' retry loop:
// a failed durability ticket is retried at most commitRetries extra
// times, sleeping commitBackoff, 2×commitBackoff, ... between attempts.
const commitRetries = 2

var commitBackoff = time.Millisecond

// commitDurable builds a batch via build, submits it, and waits for
// durability, retrying transient ticket failures with bounded
// exponential backoff. Each retry rebuilds the batch (submission
// consumes it); the queued operations are idempotent map sets/deletes,
// so a retry after an ambiguous failure is safe.
func commitDurable(kv core.KV, build func(b core.Batcher)) error {
	backoff := commitBackoff
	for attempt := 0; ; attempt++ {
		b := kv.Batch()
		build(b)
		t := b.CommitAsync()
		t.Wait() // reply only after the write is fenced durable
		err := t.Err()
		if err == nil || attempt >= commitRetries || !transientCommitErr(err) {
			return err
		}
		time.Sleep(backoff)
		backoff *= 2
	}
}

// dispatch is the innermost handler: verb switch, MULTI bookkeeping,
// and the durability wait on every write path.
func (s *Server) dispatch(c *Conn, cmd Command) Reply {
	name := strings.ToUpper(cmd.Name)
	if c.inMulti {
		switch name {
		case "SET", "DEL":
			if rp, ok := checkArity(name, cmd); !ok {
				return rp
			}
			c.queued = append(c.queued, Command{Name: name, Args: cmd.Args})
			return SimpleReply("QUEUED")
		case "EXEC":
			return s.execMulti(c)
		case "DISCARD":
			c.inMulti = false
			c.queued = nil
			return SimpleReply("OK")
		case "MULTI":
			return ErrorReply("ERR", "MULTI calls can not be nested")
		default:
			// Anything else aborts the transaction, Redis-style.
			c.inMulti = false
			c.queued = nil
			return ErrorReply("ERR", "command not allowed in MULTI: "+name)
		}
	}
	switch name {
	case "PING":
		return SimpleReply("PONG")
	case "GET":
		if rp, ok := checkArity(name, cmd); !ok {
			return rp
		}
		m, err := c.rootFor(cmd.Args[0])
		if err != nil {
			return errReply(err)
		}
		v, ok := m.Get(cmd.Args[0])
		if !ok {
			return BulkReply(nil)
		}
		return BulkReply(v)
	case "MGET":
		if len(cmd.Args) == 0 {
			return ErrorReply("ERR", "wrong number of arguments for 'MGET'")
		}
		elems := make([]Reply, len(cmd.Args))
		for i, k := range cmd.Args {
			m, err := c.rootFor(k)
			if err != nil {
				return errReply(err)
			}
			if v, ok := m.Get(k); ok {
				elems[i] = BulkReply(v)
			} else {
				elems[i] = BulkReply(nil)
			}
		}
		return ArrayReply(elems...)
	case "SET":
		if rp, ok := checkArity(name, cmd); !ok {
			return rp
		}
		m, err := c.rootFor(cmd.Args[0])
		if err != nil {
			return writeErrReply(err)
		}
		if err := commitDurable(c.kv, func(b core.Batcher) {
			b.MapSet(m, cmd.Args[0], cmd.Args[1])
		}); err != nil {
			return writeErrReply(err)
		}
		return SimpleReply("OK")
	case "DEL":
		if rp, ok := checkArity(name, cmd); !ok {
			return rp
		}
		m, err := c.rootFor(cmd.Args[0])
		if err != nil {
			return writeErrReply(err)
		}
		if _, ok := m.Get(cmd.Args[0]); !ok {
			return IntReply(0)
		}
		if err := commitDurable(c.kv, func(b core.Batcher) {
			b.MapDelete(m, cmd.Args[0])
		}); err != nil {
			return writeErrReply(err)
		}
		return IntReply(1)
	case "LEN":
		var n uint64
		for i := range c.roots {
			if c.roots[i] == nil {
				m, err := c.kv.Map(RootName(i))
				if err != nil {
					return errReply(err)
				}
				c.roots[i] = m
			}
			n += c.roots[i].Len()
		}
		return IntReply(int64(n))
	case "MULTI":
		c.inMulti = true
		c.queued = nil
		return SimpleReply("OK")
	case "EXEC":
		return ErrorReply("ERR", "EXEC without MULTI")
	case "DISCARD":
		return ErrorReply("ERR", "DISCARD without MULTI")
	case "SHUTDOWN":
		// Acknowledge first; the drain kicks this connection loose
		// after the reply is flushed.
		go s.Shutdown(context.Background())
		return SimpleReply("OK")
	default:
		return ErrorReply("ERR", "unknown command '"+cmd.Name+"'")
	}
}

// execMulti commits the queued transaction as one batch: all its
// updates ride a single group-commit submission, so they become durable
// atomically (one root swap under one fence epoch, a staged group when
// several roots of one shard are touched, or one group over every shard
// touched — either way all-or-nothing after a crash).
func (s *Server) execMulti(c *Conn) Reply {
	queued := c.queued
	c.inMulti = false
	c.queued = nil
	if len(queued) == 0 {
		return ArrayReply()
	}
	roots := make([]*core.Map, len(queued))
	for i, q := range queued {
		m, err := c.rootFor(q.Args[0])
		if err != nil {
			return writeErrReply(err)
		}
		roots[i] = m
	}
	elems := make([]Reply, len(queued))
	if err := commitDurable(c.kv, func(b core.Batcher) {
		for i, q := range queued {
			switch q.Name {
			case "SET":
				b.MapSet(roots[i], q.Args[0], q.Args[1])
				elems[i] = SimpleReply("OK")
			case "DEL":
				b.MapDelete(roots[i], q.Args[0])
				elems[i] = IntReply(1)
			}
		}
	}); err != nil {
		return writeErrReply(err)
	}
	return ArrayReply(elems...)
}

// checkArity validates fixed-arity verbs; returns (errorReply, false)
// on mismatch.
func checkArity(name string, cmd Command) (Reply, bool) {
	var want int
	switch name {
	case "GET", "DEL":
		want = 1
	case "SET":
		want = 2
	}
	if len(cmd.Args) != want {
		return ErrorReply("ERR", "wrong number of arguments for '"+name+"'"), false
	}
	return Reply{}, true
}
