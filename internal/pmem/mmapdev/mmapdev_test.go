package mmapdev

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// devFor creates a temp-file-backed device, skipping the test on
// platforms without the backend.
func devFor(t *testing.T, size int64) (*Device, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "arena.pm")
	d, err := Create(path, size)
	if errors.Is(err, ErrUnsupported) {
		t.Skip("mmap backend unsupported on this platform")
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d, path
}

func TestWordRoundtrip(t *testing.T) {
	d, _ := devFor(t, 1<<16)
	if got := d.Size(); got != 1<<16 {
		t.Fatalf("Size = %d", got)
	}

	d.WriteU64(0, 0x1122334455667788)
	if got := d.ReadU64(0); got != 0x1122334455667788 {
		t.Fatalf("ReadU64 = %#x", got)
	}
	// Unaligned 8-byte cells still round-trip (non-atomic path).
	d.WriteU64(3, 0xCAFEBABE)
	if got := d.ReadU64(3); got != 0xCAFEBABE {
		t.Fatalf("unaligned ReadU64 = %#x", got)
	}
	d.WriteU32(64, 0xA5A5A5A5)
	if got := d.ReadU32(64); got != 0xA5A5A5A5 {
		t.Fatalf("ReadU32 = %#x", got)
	}
	d.WriteAddr(128, pmem.Addr(4096))
	if got := d.ReadAddr(128); got != 4096 {
		t.Fatalf("ReadAddr = %d", got)
	}

	src := []byte("minimally ordered durable")
	d.Write(256, src)
	got := make([]byte, len(src))
	d.Read(256, got)
	if !bytes.Equal(got, src) {
		t.Fatalf("Read = %q", got)
	}
	d.Zero(256, 4)
	d.Read(256, got)
	if !bytes.Equal(got[:4], []byte{0, 0, 0, 0}) || !bytes.Equal(got[4:], src[4:]) {
		t.Fatalf("Zero left %q", got)
	}

	// Little-endian on the file: the low byte of a word lands first.
	d.WriteU64(512, 0x01)
	end := d.BeginRecovery()
	if raw := d.Bytes(512, 8); raw[0] != 1 || raw[7] != 0 {
		t.Fatalf("layout not little-endian: % x", raw)
	}
	end()
}

// noted returns the size of d's noted (unfenced) flush set.
func noted(d *Device) int {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	return len(d.s.order)
}

func TestClwbSfenceNoteSet(t *testing.T) {
	d, _ := devFor(t, 1<<16)
	d.WriteU64(0, 1)
	d.WriteU64(pmem.LineSize, 2)

	// Duplicate Clwbs of one line dedup in the note set but count as
	// issued flushes.
	d.Clwb(0)
	d.Clwb(8) // same line
	d.Clwb(pmem.LineSize)
	if got := noted(d); got != 2 {
		t.Fatalf("noted lines = %d, want 2", got)
	}
	if got := d.Stats().Flushes; got != 3 {
		t.Fatalf("Flushes = %d, want 3", got)
	}

	seq := d.FenceSeq()
	d.Sfence()
	if got := noted(d); got != 0 {
		t.Fatalf("noted lines after Sfence = %d", got)
	}
	if got := d.FenceSeq(); got != seq+1 {
		t.Fatalf("FenceSeq = %d, want %d", got, seq+1)
	}
	if s := d.Stats(); s.Fences != 1 || s.FlushedPerFence != 2 {
		t.Fatalf("Fences=%d FlushedPerFence=%d", s.Fences, s.FlushedPerFence)
	}

	// FlushRange notes every overlapping line.
	d.FlushRange(pmem.LineSize-8, 16)
	if got := noted(d); got != 2 {
		t.Fatalf("FlushRange noted %d lines, want 2", got)
	}
	d.Sfence()
}

func TestLineRuns(t *testing.T) {
	for _, tc := range []struct {
		in   []uint64
		want [][2]uint64
	}{
		{nil, nil},
		{[]uint64{5}, [][2]uint64{{5, 6}}},
		{[]uint64{7, 5, 6}, [][2]uint64{{5, 8}}},
		{[]uint64{9, 2, 3, 8}, [][2]uint64{{2, 4}, {8, 10}}},
	} {
		got := lineRuns(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("lineRuns(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("lineRuns(%v) = %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}

func TestCasAddrPublication(t *testing.T) {
	d, _ := devFor(t, 1<<16)
	d.WriteAddr(0, pmem.Nil)
	if d.CasAddr(0, pmem.Addr(7), pmem.Addr(8)) {
		t.Fatal("CAS with wrong expected value succeeded")
	}
	if !d.CasAddr(0, pmem.Nil, pmem.Addr(64)) {
		t.Fatal("CAS with matching expected value failed")
	}
	if got := d.ReadAddr(0); got != 64 {
		t.Fatalf("root after CAS = %d", got)
	}

	// Racing publishers: exactly one CAS per round wins, each from its
	// own forked handle, as in the optimistic commit path.
	const racers = 8
	d.WriteAddr(8, pmem.Nil)
	var wg sync.WaitGroup
	wins := make([]int, racers)
	for r := 0; r < racers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := d.Fork().(*Device)
			for {
				if h.CasAddr(8, pmem.Nil, pmem.Addr((r+1)*pmem.LineSize)) {
					wins[r] = 1
					return
				}
				if h.ReadAddr(8) != pmem.Nil {
					return
				}
			}
		}(r)
	}
	wg.Wait()
	total := 0
	for _, w := range wins {
		total += w
	}
	if total != 1 {
		t.Fatalf("%d racers won the publication CAS, want exactly 1", total)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	d, path := devFor(t, 1<<16)
	d.WriteU64(0, 0xD00DFEED)
	d.WriteU64(pmem.LineSize, 42)
	d.FlushRange(0, pmem.LineSize*2)
	d.Sfence()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if got := d2.Size(); got != 1<<16 {
		t.Fatalf("reopened size = %d", got)
	}
	if got := d2.ReadU64(0); got != 0xD00DFEED {
		t.Fatalf("word 0 after reopen = %#x", got)
	}
	if got := d2.ReadU64(pmem.LineSize); got != 42 {
		t.Fatalf("word at line 1 after reopen = %d", got)
	}
}

func TestSnapshotAndCrashImageCopy(t *testing.T) {
	d, _ := devFor(t, 1<<16)
	d.WriteU64(128, 7)
	img := d.CrashImage(pmem.CrashFencedOnly, 1) // policy ignored: full copy
	snap := d.Snapshot()
	d.WriteU64(128, 9)
	for name, b := range map[string][]byte{"CrashImage": img, "Snapshot": snap} {
		if len(b) != 1<<16 {
			t.Fatalf("%s length %d", name, len(b))
		}
		if b[128] != 7 {
			t.Fatalf("%s aliased a later write: %d", name, b[128])
		}
	}
}

func TestBytesRequiresRecoveryBracket(t *testing.T) {
	d, _ := devFor(t, 1<<16)
	d.WriteU64(64, 5)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bytes outside a BeginRecovery bracket did not panic")
			}
		}()
		_ = d.Bytes(64, 8)
	}()
	end := d.BeginRecovery()
	if raw := d.Bytes(64, 8); raw[0] != 5 {
		t.Fatalf("bracketed raw read = %d", raw[0])
	}
	end()
}

func TestCapsAndDegenerateLineState(t *testing.T) {
	d, _ := devFor(t, 1<<16)
	if caps := d.Caps(); caps != 0 {
		t.Fatalf("Caps = %b, want none", caps)
	}
	d.WriteU64(0, 1)
	if a, dead := d.RangeDead(0, pmem.LineSize); dead || a != pmem.Nil {
		t.Fatal("mmap backend claims dead lines")
	}
}
