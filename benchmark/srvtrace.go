package main

import (
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/mod-ds/mod/internal/server"
)

// cmdRec is the server-side record of one command: when the server's
// connection loop became free to parse it, and how long parsing, the
// handler and writing the reply took.
type cmdRec struct {
	verb                 string
	free                 time.Time
	parse, handle, reply int64 // ns
}

// connTrace is the server-side trace of one accepted connection. Its
// fields are touched only by the goroutine serving that connection — the
// conn wrapper's Read and Write and the middleware all run on it — and
// are read by the benchmark after the server has shut down.
type connTrace struct {
	free    time.Time // last return of Read or Write: the loop is free to parse
	handled time.Time // last return of the handler
	cmds    []cmdRec
}

// srvTrace holds the server-side instruments of one traced server run.
type srvTrace struct {
	tr *tracer

	mu     sync.Mutex
	conns  []*connTrace // in accept order, which is dial order
	byConn sync.Map     // *server.Conn -> *connTrace, bound by each connection's first PING <n>
}

func newSrvTrace() *srvTrace { return &srvTrace{tr: newTracer()} }

// tracedListener wraps each accepted connection. PipeListener.Dial
// returns only once Accept has taken the connection, and the benchmark
// dials one connection at a time, so the n-th accepted connection is the
// n-th client.
type tracedListener struct {
	net.Listener
	st *srvTrace
}

func (l *tracedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	ct := &connTrace{}
	l.st.mu.Lock()
	l.st.conns = append(l.st.conns, ct)
	l.st.mu.Unlock()
	return &tracedConn{Conn: nc, ct: ct}, nil
}

type tracedConn struct {
	net.Conn
	ct *connTrace
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.ct.free = time.Now()
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	now := time.Now()
	if k := len(c.ct.cmds); k > 0 {
		c.ct.cmds[k-1].reply = int64(now.Sub(c.ct.handled))
	}
	c.ct.free = now
	return n, err
}

// bind returns the trace of the accepted connection a "PING <n>" names, or
// nil for any other command.
func (st *srvTrace) bind(cmd server.Command) *connTrace {
	if len(cmd.Args) != 1 {
		return nil
	}
	n, err := strconv.Atoi(string(cmd.Args[0]))
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil || n < 0 || n >= len(st.conns) {
		return nil
	}
	return st.conns[n]
}

// middleware times the handler. The handler is given a *server.Conn,
// which says nothing about the net.Conn under it, so each client's first
// command is "PING <n>" and binds the two.
func (st *srvTrace) middleware(next server.Handler) server.Handler {
	return func(c *server.Conn, cmd server.Command) server.Reply {
		entry := time.Now()
		bound, ok := st.byConn.Load(c)
		if !ok {
			ct := st.bind(cmd)
			if ct == nil {
				return next(c, cmd)
			}
			st.byConn.Store(c, ct)
			bound = ct
		}
		ct := bound.(*connTrace)
		rp := next(c, cmd)
		ct.handled = time.Now()
		ct.cmds = append(ct.cmds, cmdRec{
			verb: strings.ToUpper(cmd.Name), free: ct.free,
			parse: int64(entry.Sub(ct.free)), handle: int64(ct.handled.Sub(entry)),
		})
		return rp
	}
}
