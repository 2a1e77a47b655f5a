package alloc

import (
	"testing"

	"github.com/mod-ds/mod/internal/pmem"
)

// Micro-benchmarks of the allocator's volatile bookkeeping on a heap big
// enough that per-block state does not sit in cache: a rooted chain of
// benchPairs pair nodes, each also holding a leaf (2*benchPairs blocks).
//
//	go test -run '^$' -bench . -benchmem ./internal/alloc
const benchPairs = 60_000

func benchConfig() pmem.Config {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	return cfg
}

// benchHeap builds the populated heap, committed and fenced, and returns
// it with every block's payload address.
func benchHeap(b *testing.B) (*Heap, *pmem.Device, []pmem.Addr) {
	b.Helper()
	dev := pmem.New(benchConfig())
	h := Format(dev)
	registerPairWalker(h)
	blocks := make([]pmem.Addr, 0, 2*benchPairs)
	prev := pmem.Nil
	for i := 0; i < benchPairs; i++ {
		leaf := h.Alloc(8+i%5*24, 0) // a few size classes
		pair := h.Alloc(16, tagPair)
		dev.WriteU64(pair, uint64(prev))
		dev.WriteU64(pair+8, uint64(leaf))
		dev.FlushRange(pair, 16)
		blocks = append(blocks, leaf, pair)
		prev = pair
	}
	slot, err := h.RootSlot("bench")
	if err != nil {
		b.Fatal(err)
	}
	h.Fence()
	h.SetRoot(slot, prev)
	h.Fence()
	return h, dev, blocks
}

func BenchmarkRetainRelease(b *testing.B) {
	h, _, blocks := benchHeap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i, at := 0, 0; i < b.N; i++ {
		a := blocks[at]
		h.Retain(a)
		h.Release(a)
		at = (at + 7919) % len(blocks) // scattered, not sequential
	}
}

// BenchmarkAllocFree is the allocator's share of one FASE: allocate a
// node, orphan one, fence — after which the orphan's slot is reusable.
func BenchmarkAllocFree(b *testing.B) {
	h, _, _ := benchHeap(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Release(h.Alloc(8+i%5*24, 0))
		h.Fence()
	}
}

func BenchmarkRecover(b *testing.B) {
	_, dev, blocks := benchHeap(b)
	img := dev.CrashImage(pmem.CrashFencedOnly, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		h, err := Open(pmem.NewFromImage(benchConfig(), img))
		if err != nil {
			b.Fatal(err)
		}
		registerPairWalker(h)
		b.StartTimer()
		rs, err := h.Recover()
		if err != nil || rs.LiveBlocks != len(blocks) {
			b.Fatalf("Recover: %d live blocks (want %d), err %v", rs.LiveBlocks, len(blocks), err)
		}
	}
}
