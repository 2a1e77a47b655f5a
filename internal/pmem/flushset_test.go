package pmem

import "testing"

func TestFlushSetDedupesLines(t *testing.T) {
	d := New(DefaultConfig(1 << 20))
	fs := d.NewFlushSet()

	// Three overlapping ranges over two lines: 4 line records, 2 distinct.
	d.Write(0x100, make([]byte, 65)) // lines 4 and 5
	fs.Add(0x100, 65)
	fs.Add(0x100, 64)
	fs.Add(0x120, 8)
	if fs.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", fs.Pending())
	}
	base := d.Stats()
	fs.Flush()
	st := d.Stats().Sub(base)
	if st.Flushes != 2 {
		t.Errorf("Flushes = %d, want 2", st.Flushes)
	}
	if st.FlushesSaved != 2 {
		t.Errorf("FlushesSaved = %d, want 2 (4 records, 2 distinct)", st.FlushesSaved)
	}
	if fs.Pending() != 0 {
		t.Errorf("Pending after Flush = %d, want 0", fs.Pending())
	}
	if d.DirtyLines() != 0 {
		t.Errorf("DirtyLines = %d, want 0 after the sweep", d.DirtyLines())
	}
	if d.InflightLines() != 2 {
		t.Errorf("InflightLines = %d, want 2", d.InflightLines())
	}
}

// lineLog records the line of every clwb, in order.
type lineLog struct {
	Tracer
	lines []uint64
}

func (l *lineLog) Flush(line uint64) { l.lines = append(l.lines, line) }

// The sweep issues one clwb per distinct line in first-recording order,
// whether the set stayed under its linear-scan bound or spilled past it,
// and a reused set starts empty.
func TestFlushSetOrderAcrossSpill(t *testing.T) {
	d := New(DefaultConfig(1 << 20))
	fs := d.NewFlushSet()
	for _, distinct := range []int{3, 5 * orderedSetSpill, 3} {
		log := &lineLog{}
		var want []uint64
		for pass := 0; pass < 2; pass++ { // second pass: all duplicates
			for i := 0; i < distinct; i++ {
				line := uint64((i*37)%distinct + 16)
				fs.Add(Addr(line<<LineShift)+8, 8)
				if pass == 0 {
					want = append(want, line)
				}
			}
		}
		base := d.Stats()
		d.SetTracer(log)
		fs.Flush()
		d.SetTracer(nil)
		if len(log.lines) != distinct {
			t.Fatalf("%d distinct lines: %d clwbs", distinct, len(log.lines))
		}
		for i := range want {
			if log.lines[i] != want[i] {
				t.Fatalf("%d distinct lines: clwb %d hit line %d, want %d (recording order)", distinct, i, log.lines[i], want[i])
			}
		}
		if st := d.Stats().Sub(base); st.Flushes != uint64(distinct) || st.FlushesSaved != uint64(distinct) {
			t.Fatalf("%d distinct lines recorded twice: Flushes=%d FlushesSaved=%d", distinct, st.Flushes, st.FlushesSaved)
		}
	}
}

func TestFlushSetDeferredLinesSurviveFenceAfterSweep(t *testing.T) {
	d := New(Config{Size: 1 << 20, TrackDurable: true,
		FlushLatencyNs: 353, FlushParallelFrac: 0.82, FlushMaxConcurrency: 32,
		ClwbIssueNs: 5, SfenceBaseNs: 10, L1HitNs: 1.2, L2HitNs: 4, L3HitNs: 40, PMReadNs: 302})
	fs := d.NewFlushSet()
	d.WriteU64(0x200, 0xdead)
	fs.Add(0x200, 8)

	// Before the sweep the write is dirty, not inflight: a crash under the
	// fenced-only policy loses it.
	img := d.CrashImage(CrashFencedOnly, 1)
	if got := le64(img[0x200:]); got != 0 {
		t.Fatalf("deferred write durable before sweep: %#x", got)
	}
	fs.Flush()
	d.Sfence()
	img = d.CrashImage(CrashFencedOnly, 1)
	if got := le64(img[0x200:]); got != 0xdead {
		t.Fatalf("swept+fenced write not durable: %#x", got)
	}
}

func le64(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func TestNoteCopiesElided(t *testing.T) {
	d := New(DefaultConfig(1 << 20))
	d.NoteCopiesElided(0)
	d.NoteCopiesElided(7)
	if got := d.Stats().CopiesElided; got != 7 {
		t.Errorf("CopiesElided = %d, want 7", got)
	}
}
