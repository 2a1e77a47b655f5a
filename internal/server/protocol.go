// Package server exposes a MOD store over TCP as a small RESP-subset
// key-value server (cmd/modserver). Its load-bearing property is the
// durability contract: a client sees +OK for a write only after the
// write's group-commit ticket has resolved, i.e. after the root swap it
// rode is fenced (DESIGN.md §11). Because every connection funnels its
// writes through the store's commit queue via CommitAsync,
// concurrent clients share fence epochs: fences per operation fall as
// client concurrency rises, which is the server-shaped restatement of
// the paper's one-fence-per-FASE claim.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Protocol limits, sized for a KV workload rather than general RESP.
const (
	// MaxArgs bounds the element count of a request array.
	MaxArgs = 1 << 16
	// MaxBulkLen bounds one bulk string (key or value).
	MaxBulkLen = 8 << 20
	// maxHeaderLine bounds a *N or $N header line, CRLF excluded: the
	// largest legal one is "$8388608". A peer that never sends LF gets a
	// protocol error instead of an ever-growing line buffer.
	maxHeaderLine = 32
)

// errProtocol wraps malformed-input failures so the connection loop can
// distinguish them from I/O errors.
var errProtocol = errors.New("protocol error")

// Command is one parsed client request: a verb and its arguments.
type Command struct {
	// Name is the verb exactly as sent (case preserved; dispatch is
	// case-insensitive).
	Name string
	// Args holds the remaining bulk strings.
	Args [][]byte
}

// readLine reads one CRLF-terminated header line of at most
// maxHeaderLine bytes, rejecting bare LF. The line aliases r's buffer and
// is valid until the next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err == bufio.ErrBufferFull || len(line) > maxHeaderLine+2 {
		return nil, fmt.Errorf("%w: header line longer than %d bytes", errProtocol, maxHeaderLine)
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("%w: line not CRLF-terminated", errProtocol)
	}
	return line[:len(line)-2], nil
}

// ReadCommand parses one RESP request: an array of bulk strings
// (*N\r\n followed by N of $len\r\n<bytes>\r\n). It returns io.EOF
// cleanly when the peer closed between commands.
func ReadCommand(r *bufio.Reader) (Command, error) {
	line, err := readLine(r)
	if err != nil {
		return Command{}, err
	}
	if len(line) == 0 || line[0] != '*' {
		return Command{}, fmt.Errorf("%w: expected array, got %q", errProtocol, line)
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 1 || n > MaxArgs {
		return Command{}, fmt.Errorf("%w: bad array length %q", errProtocol, line[1:])
	}
	var cmd Command
	for i := 0; i < n; i++ {
		arg, err := readBulk(r)
		if err != nil {
			return Command{}, err
		}
		if i == 0 {
			cmd.Name = string(arg)
		} else {
			cmd.Args = append(cmd.Args, arg)
		}
	}
	return cmd, nil
}

// readBulk parses one $len\r\n<bytes>\r\n bulk string.
func readBulk(r *bufio.Reader) ([]byte, error) {
	line, err := readLine(r)
	if err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if len(line) == 0 || line[0] != '$' {
		return nil, fmt.Errorf("%w: expected bulk string, got %q", errProtocol, line)
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 0 || n > MaxBulkLen {
		return nil, fmt.Errorf("%w: bad bulk length %q", errProtocol, line[1:])
	}
	buf := make([]byte, n+2)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return nil, fmt.Errorf("%w: bulk string not CRLF-terminated", errProtocol)
	}
	return buf[:n], nil
}

// Reply is one serialized RESP response. Replies are built complete and
// written in one call so middleware can substitute them wholesale.
type Reply struct {
	buf []byte
}

// writeTo flushes the reply onto the connection's buffered writer.
func (rp Reply) writeTo(w *bufio.Writer) error {
	_, err := w.Write(rp.buf)
	return err
}

// SimpleReply builds a +status reply (e.g. OK, PONG, QUEUED).
func SimpleReply(s string) Reply { return Reply{buf: []byte("+" + s + "\r\n")} }

// ErrorReply builds a -error reply; code is the conventional leading
// token (ERR, WRONGTYPE, ...).
func ErrorReply(code, msg string) Reply {
	return Reply{buf: []byte("-" + code + " " + msg + "\r\n")}
}

// IntReply builds a :n integer reply.
func IntReply(n int64) Reply {
	return Reply{buf: []byte(":" + strconv.FormatInt(n, 10) + "\r\n")}
}

// BulkReply builds a $len bulk-string reply; a nil value serializes as
// the RESP null bulk ($-1).
func BulkReply(v []byte) Reply {
	if v == nil {
		return Reply{buf: []byte("$-1\r\n")}
	}
	buf := make([]byte, 0, len(v)+16)
	buf = append(buf, '$')
	buf = strconv.AppendInt(buf, int64(len(v)), 10)
	buf = append(buf, '\r', '\n')
	buf = append(buf, v...)
	buf = append(buf, '\r', '\n')
	return Reply{buf: buf}
}

// ArrayReply concatenates element replies under a *N header.
func ArrayReply(elems ...Reply) Reply {
	buf := make([]byte, 0, 16)
	buf = append(buf, '*')
	buf = strconv.AppendInt(buf, int64(len(elems)), 10)
	buf = append(buf, '\r', '\n')
	for _, e := range elems {
		buf = append(buf, e.buf...)
	}
	return Reply{buf: buf}
}

// IsError reports whether the reply is a RESP error.
func (rp Reply) IsError() bool { return len(rp.buf) > 0 && rp.buf[0] == '-' }

// String renders the raw serialized form (for logging middleware).
func (rp Reply) String() string { return string(rp.buf) }
