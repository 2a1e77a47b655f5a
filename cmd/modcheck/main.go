// Modcheck verifies a recorded persistent-memory event trace against the
// MOD correctness invariants (§5.4): out-of-place updates only, every
// write flushed before the next fence, atomic commit writes, and no
// reuse of freed memory before an ordering point.
//
// Usage:
//
//	modcheck [-demo] [-corrupt [-ops N] [-trials N]] [trace.bin]
//
// With -demo it records a fresh trace from a mixed MOD workload and
// checks it (writing it to the optional file argument). With -corrupt it
// runs the media-fault smoke: random bit flips, torn stores, and dead
// lines are injected into a committed image of an -ops-long history,
// which is reopened with verify-on-open — every trial must end in typed
// detection, an exact-prefix salvage, or a byte-exact clean state; a
// silent wrong read fails the run. Otherwise it reads a binary trace
// previously written with trace.Recorder.WriteTo.
//
// Crash consistency — durable linearizability under every commit path,
// crash policy and PM-write cut — is checked by the crash checker in
// internal/core's tests (checker_test.go), not here.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/trace"
)

func main() {
	demo := flag.Bool("demo", false, "record and check a built-in demo workload trace")
	corrupt := flag.Bool("corrupt", false, "run the media-fault corruption smoke")
	ops := flag.Int("ops", 32, "length of the -corrupt history (Map.Sets before the fault)")
	trials := flag.Int("trials", 64, "fault-injection trials in -corrupt mode")
	flag.Parse()

	if *corrupt {
		if err := runCorrupt(*ops, *trials); err != nil {
			fmt.Fprintf(os.Stderr, "modcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var events []trace.Event
	var cfg trace.CheckerConfig
	switch {
	case *demo:
		var err error
		events, cfg, err = recordDemo(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "modcheck: %v\n", err)
			os.Exit(1)
		}
	case flag.NArg() == 1:
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "modcheck: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		events, err = trace.ReadTrace(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "modcheck: %v\n", err)
			os.Exit(1)
		}
		cfg = trace.CheckerConfig{AllowUnflushedTail: true}
	default:
		flag.Usage()
		os.Exit(2)
	}

	violations := trace.Check(events, cfg)
	fmt.Printf("modcheck: %d events, %d violations\n", len(events), len(violations))
	for i, v := range violations {
		if i == 20 {
			fmt.Printf("... and %d more\n", len(violations)-20)
			break
		}
		fmt.Println("  " + v.Error())
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

// recordDemo traces a mixed MOD workload covering all five structures and
// every commit flavor.
func recordDemo(outPath string) ([]trace.Event, trace.CheckerConfig, error) {
	rec := trace.NewRecorder()
	devCfg := pmem.DefaultConfig(128 << 20)
	devCfg.Tracer = rec
	db, _, err := core.Open(devCfg)
	if err != nil {
		return nil, trace.CheckerConfig{}, err
	}
	defer db.Close()
	store := db.Store()
	m, _ := store.Map("m")
	v, _ := store.Vector("v")
	q, _ := store.Queue("q")
	st, _ := store.Stack("s")
	for i := 0; i < 500; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		m.Set(key, []byte("value"))
		v.Push(uint64(i))
		q.Enqueue(uint64(i))
		st.Push(uint64(i))
	}
	for i := 0; i < 250; i++ {
		q.Dequeue()
		st.Pop()
		v.Swap(uint64(i), uint64(499-i))
		m.Delete([]byte(fmt.Sprintf("key-%d", i)))
	}
	// Group commits: single-root batches (one fence per epoch) and
	// multi-root batches (publication as a staged group).
	for i := 0; i < 50; i++ {
		b := store.NewBatch()
		for j := 0; j < 8; j++ {
			b.MapSet(m, []byte(fmt.Sprintf("batch-%d-%d", i, j)), []byte("bv"))
		}
		b.Commit()
		b = store.NewBatch()
		b.MapDelete(m, []byte(fmt.Sprintf("batch-%d-0", i)))
		b.QueueEnqueue(q, uint64(i))
		b.VectorPush(v, uint64(i))
		b.StackPush(st, uint64(i))
		b.Commit()
	}
	store.Sync()
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return nil, trace.CheckerConfig{}, err
		}
		defer f.Close()
		if _, err := rec.WriteTo(f); err != nil {
			return nil, trace.CheckerConfig{}, err
		}
		fmt.Printf("modcheck: wrote trace to %s\n", outPath)
	}
	return rec.Events(), store.CheckerConfig(), nil
}

// corruptKey and corruptVal are the -corrupt history's step-i key and
// value.
func corruptKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func corruptVal(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

// runCorrupt is the media-fault smoke (DESIGN.md §13): build a
// committed selective-map history, snapshot the durable image, and for
// each trial inject a media fault — 1–3 random bit flips, a torn
// 8-byte store, or a scrambled (dead) line — into a fresh copy of the
// image, then reopen it with verify-on-open and salvage enabled. Every
// trial must end in one of:
//
//   - detection: the open fails with ErrCorrupted, the damage report
//     names an unsalvaged (quarantined) root, or a read trips a typed
//     corruption panic;
//   - salvage: the damaged root is rolled back to its checkpoint and the
//     surviving state is an exact value-correct prefix of the history;
//   - clean: the fault landed in dead heap space and every operation
//     reads back byte-exact.
//
// A recovered store serving a wrong value without any of the above is a
// silent wrong read and fails the run.
//
// Faults are aimed at the heap's block area.
func runCorrupt(ops, trials int) error {
	if ops < 4 {
		ops = 4
	}
	if trials < 1 {
		trials = 1
	}
	openOpts := func(imgs [][]byte) []core.Option {
		return []core.Option{
			core.WithSelective(4),
			core.WithExistingImages(imgs), core.WithVerify(), core.WithSalvage(),
		}
	}

	// Build the committed history once. base is the pristine formatted
	// image torn stores revert to; img is the committed image each trial
	// damages a copy of.
	cfg := pmem.DefaultConfig(16 << 20)
	db, _, err := core.Open(cfg, core.WithSelective(4))
	if err != nil {
		return err
	}
	snap := func() []byte { return db.Store().Device().Snapshot() }
	m, err := db.Map("corrupt")
	if err != nil {
		return err
	}
	db.Sync()
	base := snap()
	if ops%4 == 0 {
		ops++ // leave a pending record past the last checkpoint fold
	}
	for i := 0; i < ops; i++ {
		m.Set(corruptKey(i), corruptVal(i))
	}
	db.Sync()
	img := snap()
	lo, hi := db.Store().Heap().DataBounds()
	st := db.Store()
	slot, err := st.Heap().RootSlot("corrupt")
	if err != nil {
		return err
	}
	_, recHead, recCount := funcds.SelectiveExt(st.Heap(), st.Heap().Root(slot))
	db.Close()

	// Deterministic salvage trial first: damage a covered, non-pointer
	// byte of the pending record chain. Verification must flag the root
	// and salvage must roll it back to the checkpoint — random faults
	// below almost never land here, so aim one on purpose.
	if recCount == 0 {
		return fmt.Errorf("no pending record to aim the salvage trial at")
	}
	dmg := append([]byte(nil), img...)
	dmg[recHead+15] ^= 0x08
	db2, info, err := core.Open(cfg, openOpts([][]byte{dmg})...)
	if err != nil {
		return fmt.Errorf("salvage trial: open failed entirely: %w", err)
	}
	outcome, err := corruptProbe(db2, ops, info)
	db2.Close()
	if err != nil {
		return fmt.Errorf("salvage trial: %w", err)
	}
	if outcome != "salvaged" {
		return fmt.Errorf("salvage trial: outcome %q, want salvaged", outcome)
	}

	detected, salvaged, clean := 0, 1, 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)*1_000_003 + 0xC0FFEE))
		addr := func() pmem.Addr { return lo + pmem.Addr(rng.Int63n(int64(hi-lo))) }
		var plan pmem.FaultPlan
		var class string
		switch trial % 3 {
		case 0:
			class = "bit-flip"
			for n := 1 + rng.Intn(3); n > 0; n-- {
				plan.FlipBit(addr(), uint8(rng.Intn(8)))
			}
		case 1:
			class = "torn-store"
			plan.TearStore(addr())
		default:
			class = "dead-line"
			plan.KillLine(addr())
		}
		dmg := append([]byte(nil), img...)
		plan.ApplyToImage(dmg, base)

		db2, info, err := core.Open(cfg, openOpts([][]byte{dmg})...)
		if err != nil {
			if !errors.Is(err, core.ErrCorrupted) {
				return fmt.Errorf("trial %d (%s): open failed untyped: %w", trial, class, err)
			}
			detected++
			continue
		}
		outcome, err := corruptProbe(db2, ops, info)
		db2.Close()
		if err != nil {
			return fmt.Errorf("trial %d (%s): %w", trial, class, err)
		}
		switch outcome {
		case "detected":
			detected++
		case "salvaged":
			salvaged++
		default:
			clean++
		}
	}
	fmt.Printf("modcheck: media-fault smoke: %d ops, %d trials: %d detected, %d salvaged, %d clean, 0 silent wrong reads\n",
		ops, trials+1, detected, salvaged, clean)
	return nil
}

// corruptProbe classifies one reopened trial: "detected" (quarantine or
// a typed corruption panic on read), "salvaged" (exact-prefix rollback),
// or "clean" (byte-exact full state). Any other observable state is an
// error — a silent wrong read.
func corruptProbe(db *core.DB, ops int, info core.RecoveryInfo) (outcome string, err error) {
	defer func() {
		if r := recover(); r != nil {
			switch r.(type) {
			case *alloc.CorruptionPanic, *pmem.MediaError:
				outcome, err = "detected", nil
			default:
				panic(r)
			}
		}
	}()
	wantSalvaged := false
	for _, d := range info.Damaged {
		if d.Salvaged {
			wantSalvaged = true
		}
	}
	m, err := db.Map("corrupt")
	if errors.Is(err, core.ErrCorrupted) {
		return "detected", nil
	}
	if err != nil {
		return "", fmt.Errorf("rebind failed untyped: %w", err)
	}
	// Presence must be an exact value-correct prefix of the history.
	k := 0
	for i := 0; i < ops; i++ {
		got, ok := m.Get(corruptKey(i))
		if ok && i == k {
			if string(got) != string(corruptVal(i)) {
				return "", fmt.Errorf("silent wrong read: key %d = %q, want %q", i, got, corruptVal(i))
			}
			k++
		} else if ok {
			return "", fmt.Errorf("non-prefix state: key %d present but key %d missing", i, k)
		}
	}
	if k < ops {
		if !wantSalvaged {
			return "", fmt.Errorf("clean open lost %d committed ops without a salvage report", ops-k)
		}
		return "salvaged", nil
	}
	if wantSalvaged {
		return "salvaged", nil
	}
	return "clean", nil
}
