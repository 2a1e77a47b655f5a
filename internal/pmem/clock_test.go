package pmem

import (
	"sync"
	"testing"
)

// TestForkClocksIndependent: each forked handle accumulates its own
// simulated time while the device aggregate sums all handles.
func TestForkClocksIndependent(t *testing.T) {
	d := New(DefaultConfig(1 << 20))
	base := d.Clock()

	h1 := d.Fork()
	h2 := d.Fork()
	if h1.LocalNs() != 0 || h2.LocalNs() != 0 {
		t.Fatal("forked clocks must start at zero")
	}
	h1.ChargeCompute(100)
	h2.ChargeCompute(250)
	h2.ChargeCompute(50)
	if got := h1.LocalNs(); got != 100 {
		t.Fatalf("h1 local = %v, want 100", got)
	}
	if got := h2.LocalNs(); got != 300 {
		t.Fatalf("h2 local = %v, want 300", got)
	}
	if got := d.Clock() - base; got != 400 {
		t.Fatalf("aggregate delta = %v, want 400", got)
	}
	if d.LocalNs() != 0 {
		t.Fatal("primary handle's local clock must be untouched by forks")
	}
}

// TestForkCategoryIndependent: SetCategory on one handle must not leak
// into another (the category is per-handle execution context).
func TestForkCategoryIndependent(t *testing.T) {
	d := New(DefaultConfig(1 << 20))
	h := d.Fork()
	h.SetCategory(CatLog)
	if d.Category() != CatOther {
		t.Fatal("fork's SetCategory leaked into the primary handle")
	}
	h.ChargeCompute(10)
	if got := h.(*Device).LocalClock().CategoryNs(CatLog); got != 10 {
		t.Fatalf("fork CatLog ns = %v, want 10", got)
	}
}

// TestConcurrentHandlesRaceFree drives reads, writes, flushes, and fences
// from several goroutines at once — each through its own forked handle,
// then all through one shared handle; run with -race. Counter totals must
// equal the sum of the per-goroutine work, and no time charge may be
// lost: the clocks are plain sums kept inside the device's critical
// section, so a shared handle's clock is exactly the aggregate's growth.
func TestConcurrentHandlesRaceFree(t *testing.T) {
	for _, shared := range []bool{false, true} {
		name := "forked handles"
		if shared {
			name = "one shared handle"
		}
		t.Run(name, func(t *testing.T) {
			d := New(DefaultConfig(4 << 20))
			const (
				workers = 8
				ops     = 500
			)
			before := d.Stats()
			common := d.Fork()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := common
					if !shared {
						h = d.Fork()
					}
					addr := Addr(4096 + w*8192)
					buf := make([]byte, 64)
					for i := 0; i < ops; i++ {
						h.Write(addr, buf)
						h.Read(addr, buf)
						h.Clwb(addr)
						if i%50 == 0 {
							h.Sfence()
						}
					}
				}(w)
			}
			wg.Wait()
			if shared {
				// Every charge went through common: its clock and the
				// aggregate added the same values in the same order.
				if got, want := common.LocalNs(), d.Clock()-before.TotalNs; got != want {
					t.Fatalf("shared handle's clock %.3f != aggregate growth %.3f: a charge was lost", got, want)
				}
			}
			d.Sfence()
			delta := d.Stats().Sub(before)
			if delta.Writes != workers*ops || delta.Reads != workers*ops {
				t.Fatalf("writes=%d reads=%d, want %d each", delta.Writes, delta.Reads, workers*ops)
			}
			if delta.Flushes != workers*ops {
				t.Fatalf("flushes=%d, want %d", delta.Flushes, workers*ops)
			}
			if d.DirtyLines() != 0 {
				t.Fatalf("%d dirty lines after final flush+fence", d.DirtyLines())
			}
			// Aggregate time is the sum of every handle's charges: at least
			// the issue cost of every access, and the categories add up.
			if min := workers * ops * (2*d.Config().L1HitNs + d.Config().ClwbIssueNs); delta.TotalNs < min {
				t.Fatalf("aggregate time %.3f below the %.3f the accesses alone cost", delta.TotalNs, min)
			}
			sum := delta.CatNs[CatOther] + delta.CatNs[CatFlush] + delta.CatNs[CatLog]
			if diff := sum - delta.TotalNs; diff > 1e-3 || diff < -1e-3 {
				t.Fatalf("category sum %.3f != total %.3f", sum, delta.TotalNs)
			}
		})
	}
}
