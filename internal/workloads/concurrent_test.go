package workloads

import "testing"

func smallConcurrent(readers int) ConcurrentConfig {
	return ConcurrentConfig{
		Readers:     readers,
		Writers:     2,
		Shards:      4,
		ReaderOps:   600,
		WriterOps:   150,
		PreloadKeys: 64,
		Seed:        7,
	}
}

// TestRunConcurrentCompletes sanity-checks the measurement plumbing.
func TestRunConcurrentCompletes(t *testing.T) {
	res, err := RunConcurrent(smallConcurrent(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra["read_ops"] != 2*600 || res.Extra["write_ops"] != 2*150 {
		t.Fatalf("op counts wrong: %+v", res)
	}
	if res.ElapsedNs <= 0 || res.Extra["busy_ns"] < res.ElapsedNs {
		t.Fatalf("implausible times: elapsed=%v busy=%v", res.ElapsedNs, res.Extra["busy_ns"])
	}
	if res.OpsPerSec() <= 0 {
		t.Fatal("no throughput reported")
	}
}

// TestRunConcurrentScalesWithReaders is the reader-scaling acceptance
// check: since snapshots are lock-free and each reader's simulated time
// is its own critical path, aggregate throughput must grow when readers
// are added.
func TestRunConcurrentScalesWithReaders(t *testing.T) {
	one, err := RunConcurrent(smallConcurrent(1))
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunConcurrent(smallConcurrent(4))
	if err != nil {
		t.Fatal(err)
	}
	if four.OpsPerSec() <= one.OpsPerSec()*1.5 {
		t.Fatalf("throughput did not scale with readers: 1 reader %.0f ops/s, 4 readers %.0f ops/s",
			one.OpsPerSec(), four.OpsPerSec())
	}
	oneReads, fourReads := one.Rate(one.Extra["read_ops"]), four.Rate(four.Extra["read_ops"])
	if fourReads <= oneReads*2 {
		t.Fatalf("read throughput did not scale: %.0f -> %.0f", oneReads, fourReads)
	}
}

// TestRunConcurrentWriterOnly: the workload degrades gracefully with no
// readers (pure commit throughput over shards).
func TestRunConcurrentWriterOnly(t *testing.T) {
	cfg := smallConcurrent(0)
	res, err := RunConcurrent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Extra["read_ops"] != 0 || res.Extra["write_ops"] != 300 {
		t.Fatalf("op counts wrong: %+v", res)
	}
	if res.Rate(res.Extra["write_ops"]) <= 0 {
		t.Fatal("no write throughput")
	}
}
