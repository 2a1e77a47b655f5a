package server

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
	"testing"
)

// endless is a peer that sends one byte forever and never a line feed.
type endless struct {
	b    byte
	sent int
}

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = e.b
	}
	e.sent += len(p)
	return len(p), nil
}

// TestHeaderLineIsBounded: a header line is "*N" or "$N" and nothing
// else, so a line that runs past maxHeaderLine is a protocol error at
// once — whether the line feed eventually comes or never does — and the
// parser has consumed no more than its fixed buffer by then.
func TestHeaderLineIsBounded(t *testing.T) {
	for _, c := range []struct {
		name, in string
		ok       bool
	}{
		{"longest legal array header", "*65536\r\n", true},
		{"at the cap", "*" + strings.Repeat("0", maxHeaderLine-2) + "1\r\n$4\r\nPING\r\n", true},
		{"one past the cap", "*" + strings.Repeat("0", maxHeaderLine-1) + "1\r\n$4\r\nPING\r\n", false},
		{"long bulk header", "*1\r\n$" + strings.Repeat("0", 100) + "4\r\nPING\r\n", false},
		{"a kilobyte before the line feed", "*" + strings.Repeat("1", 1024) + "\r\n", false},
	} {
		_, err := ReadCommand(bufio.NewReader(strings.NewReader(c.in)))
		switch {
		case c.ok && errors.Is(err, errProtocol):
			t.Errorf("%s: refused: %v", c.name, err)
		case !c.ok && !errors.Is(err, errProtocol):
			t.Errorf("%s: error %v, want a protocol error", c.name, err)
		}
	}

	for _, first := range []string{"", "*1\r\n"} { // the array header, then a bulk header
		peer := &endless{b: '7'}
		r := bufio.NewReader(io.MultiReader(strings.NewReader(first), peer))
		if _, err := ReadCommand(r); !errors.Is(err, errProtocol) {
			t.Errorf("after %q, a line with no end: error %v, want a protocol error", first, err)
		}
		if peer.sent > 2*r.Size() {
			t.Errorf("after %q, read %d bytes of a line with no end through a %d-byte buffer", first, peer.sent, r.Size())
		}
	}
}

func encodeCommand(name string, args ...[]byte) []byte {
	var b bytes.Buffer
	b.WriteString("*" + strconv.Itoa(1+len(args)) + "\r\n")
	for _, a := range append([][]byte{[]byte(name)}, args...) {
		b.WriteString("$" + strconv.Itoa(len(a)) + "\r\n")
		b.Write(a)
		b.WriteString("\r\n")
	}
	return b.Bytes()
}

// Native fuzz target for the RESP parser under hostile input (ROADMAP
// 4b). Run continuously in CI (non-blocking) with:
//
//	go test -run='^$' -fuzz=FuzzReadCommand -fuzztime=30s ./internal/server
//
// Whatever the bytes, every ReadCommand on the stream returns a command
// or an error and never panics; a command it returns is within the
// protocol limits, holds no more memory per argument than the argument
// plus its CRLF, and parses back to itself; and the parser never reads
// further ahead than its buffer. The seed corpus doubles as an ordinary
// regression test.
func FuzzReadCommand(f *testing.F) {
	f.Add(encodeCommand("PING"))
	f.Add(encodeCommand("SET", []byte("key"), []byte("value")))
	f.Add(append(encodeCommand("GET", []byte("k")), encodeCommand("DEL", []byte("k"))...))
	f.Add(encodeCommand("SET", []byte{}, bytes.Repeat([]byte{0}, 300)))
	f.Add([]byte("*1\r\n$4\r\nPING")) // cut short
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$-1\r\n"))
	f.Add([]byte("*0\r\n"))
	f.Add([]byte("*99999999999999999999\r\n"))
	f.Add([]byte("*1\r\n$8388609\r\n"))
	f.Add([]byte("*1\n$4\nPING\n"))
	f.Add([]byte("PING\r\n"))
	f.Add(bytes.Repeat([]byte("*"), 5000))
	f.Add([]byte("*1\r\n$" + strings.Repeat("9", 40) + "\r\n"))

	f.Fuzz(func(t *testing.T, in []byte) {
		r := bufio.NewReader(bytes.NewReader(in))
		for n := 0; ; n++ {
			cmd, err := ReadCommand(r)
			if err != nil {
				return
			}
			if n > len(in) {
				t.Fatalf("%d commands parsed out of %d bytes", n, len(in))
			}
			if len(cmd.Args) >= MaxArgs {
				t.Fatalf("command with %d arguments", len(cmd.Args))
			}
			for _, a := range cmd.Args {
				if len(a) > MaxBulkLen || cap(a) > len(a)+2 {
					t.Fatalf("argument of %d bytes holds %d", len(a), cap(a))
				}
			}
			again, err := ReadCommand(bufio.NewReader(bytes.NewReader(encodeCommand(cmd.Name, cmd.Args...))))
			if err != nil || again.Name != cmd.Name || len(again.Args) != len(cmd.Args) {
				t.Fatalf("%q %q re-encoded parses as %q %q, %v", cmd.Name, cmd.Args, again.Name, again.Args, err)
			}
			for i := range cmd.Args {
				if !bytes.Equal(again.Args[i], cmd.Args[i]) {
					t.Fatalf("argument %d: %q re-encoded parses as %q", i, cmd.Args[i], again.Args[i])
				}
			}
		}
	})
}
