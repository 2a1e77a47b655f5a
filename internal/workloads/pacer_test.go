package workloads

import (
	"testing"
	"time"
)

// TestPacerHoldsBackTheGoroutineThatRunsAhead pins the pacing rule of
// RunConcurrent: a goroutine may start an operation while its simulated
// clock is within paceWindowNs of the slowest other goroutine — one that
// has not started counts as clock 0 — and is released when that goroutine
// catches up or finishes.
func TestPacerHoldsBackTheGoroutineThatRunsAhead(t *testing.T) {
	waits := func(p pacer, i int, now float64) <-chan struct{} {
		released := make(chan struct{})
		go func() {
			p.wait(i, now)
			close(released)
		}()
		return released
	}
	held := func(c <-chan struct{}) bool {
		select {
		case <-c:
			return false
		case <-time.After(20 * time.Millisecond):
			return true
		}
	}

	p := make(pacer, 3)
	p.wait(0, paceWindowNs) // at the edge of the window: no wait
	ahead := waits(p, 0, paceWindowNs+1)
	if !held(ahead) {
		t.Fatal("goroutine 0 ran more than the window ahead of goroutines that have not started")
	}
	p.wait(1, 1)
	if !held(ahead) {
		t.Fatal("goroutine 0 released while goroutine 2 is still at clock 0")
	}
	p.done(2)
	<-ahead // slowest running goroutine is now 1, at clock 1

	far := waits(p, 0, 1e9)
	if !held(far) {
		t.Fatal("goroutine 0 ran a second ahead of goroutine 1")
	}
	p.done(1)
	<-far // nobody left to wait for
}
