package pmem

import (
	"runtime"
	"testing"
)

// BenchmarkNewFromImage is the device half of reopening a crash image:
// a fresh 256 MiB arena with its line bitsets and cache model, and the
// image copied in. The benchmark's recover_ms times this and MOD's
// Recover together; this row says how much of it is the device.
//
//	go test -run '^$' -bench NewFromImage -benchtime 10x ./internal/pmem
//
// Each iteration starts after a GC, so the arena the last one dropped is
// not swept on this one's clock and at most two arenas are live.
func BenchmarkNewFromImage(b *testing.B) {
	const size = 256 << 20
	cfg := DefaultConfig(size)
	img := make([]byte, size)
	for i := range img {
		img[i] = byte(i >> 12) // every page touched
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		runtime.GC()
		b.StartTimer()
		if d := NewFromImage(cfg, img); d.Size() != size {
			b.Fatalf("device of %d bytes", d.Size())
		}
	}
}
