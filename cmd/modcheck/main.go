// Modcheck verifies a recorded persistent-memory event trace against the
// MOD correctness invariants (§5.4): out-of-place updates only, every
// write flushed before the next fence, atomic commit writes, and no
// reuse of freed memory before an ordering point.
//
// Usage:
//
//	modcheck [-demo] [-durable] [-corrupt] [trace.bin]
//
// With -demo it records a fresh trace from a mixed MOD workload and
// checks it (writing it to the optional file argument). With -durable
// it runs a durable-linearizability smoke instead: a sequential history
// of one-root and multi-root commits over shared roots is crash-injected
// at PM-write granularity, and every recovered image must be an exact
// committed prefix of the history that contains at least every step
// whose commit a fence covered before the crash cut. With -corrupt it
// runs the media-fault smoke: random bit flips, torn stores, and dead
// lines are injected into a committed image, which is reopened with
// verify-on-open — every trial must end in typed detection, an
// exact-prefix salvage, or a byte-exact clean state; a silent wrong read
// fails the run. Otherwise it reads a binary trace previously written
// with trace.Recorder.WriteTo.
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
	durable := flag.Bool("durable", false, "run the durable-linearizability crash-injection smoke")
	durOps := flag.Int("ops", 32, "operation count for the -durable history")
	durStride := flag.Int("stride", 7, "inject a crash every Nth PM write in -durable mode")
	corrupt := flag.Bool("corrupt", false, "run the media-fault corruption smoke")
	trials := flag.Int("trials", 64, "fault-injection trials in -corrupt mode")
	flag.Parse()

	if *durable {
		if err := runDurable(*durOps, *durStride); err != nil {
			fmt.Fprintf(os.Stderr, "modcheck: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *corrupt {
		if err := runCorrupt(*durOps, *trials); err != nil {
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
	// multi-root batches (publication through the batch record).
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

// durKey and durVal are the deterministic step-i key/value of the
// -durable history.
func durKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func durVal(i int) []byte { return []byte(fmt.Sprintf("val-%06d", i)) }

// durRoots names the -durable history's maps. Roots 0 and 1 are shared
// by every kind of step; root 2 only by the three-root batches.
var durRoots = []string{"durable", "durable-b", "durable-c"}

// durStepRoots returns the roots step i writes its key to, which with
// durAsync also decides how it commits. Steps cycle through five kinds:
// a Map.Set (alternating between the two shared roots), a
// CommitUnrelated over both, a Map.Set, a three-root Batch, and a
// one-root CommitAsync + Wait — so every multi-root step's record names
// roots that one-root steps republish right before and after it, and an
// async round stages a publication on a root a CAS or a record just
// moved.
func durStepRoots(i int) []int {
	switch i % 5 {
	case 1:
		return []int{0, 1}
	case 3:
		return []int{0, 1, 2}
	default:
		return []int{i / 2 % 2}
	}
}

// durAsync reports whether step i is an async one-root submission, which
// its Wait acknowledges durable.
func durAsync(i int) bool { return i%5 == 4 }

// durApply runs step i of the history.
func durApply(db *core.DB, maps []*core.Map, i int) error {
	roots := durStepRoots(i)
	switch {
	case durAsync(i):
		b := db.Batch()
		b.MapSet(maps[roots[0]], durKey(i), durVal(i))
		tk := b.CommitAsync()
		tk.Wait()
		return tk.Err()
	case len(roots) == 1:
		maps[roots[0]].Set(durKey(i), durVal(i))
	case len(roots) == 2:
		st := db.Store()
		ups := make([]core.Update, len(roots))
		for j, r := range roots {
			v, _ := maps[r].PureSet(durKey(i), durVal(i))
			ups[j] = core.Update{DS: maps[r], Shadows: []core.Version{v}}
		}
		var err error
		st.FASE(func() { err = st.CommitUnrelated(ups...) })
		return err
	default:
		b := db.Batch()
		for _, r := range roots {
			b.MapSet(maps[r], durKey(i), durVal(i))
		}
		b.Commit()
	}
	return nil
}

// durBuild opens a fresh store, creates (and syncs) the history's maps,
// and returns them. PM writes observed by a tracer installed after this
// point index only the measured history.
func durBuild() (*pmem.Device, *core.DB, []*core.Map, error) {
	cfg := pmem.DefaultConfig(64 << 20)
	cfg.TrackDurable = true
	dev := pmem.New(cfg)
	db, _, err := core.Open(cfg, core.WithDevices(dev))
	if err != nil {
		return nil, nil, nil, err
	}
	maps := make([]*core.Map, len(durRoots))
	for r, nm := range durRoots {
		if maps[r], err = db.Map(nm); err != nil {
			return nil, nil, nil, err
		}
	}
	db.Sync()
	return dev, db, maps, nil
}

// runDurable is the durable-linearizability smoke: run a sequential
// history of steps — Map.Sets on two shared roots, interleaved with
// CommitUnrelated over both, three-root Batches and one-root
// CommitAsync submissions — crash at every
// stride-th PM-write index, recover, and check two properties against
// each image:
//
//  1. Safety — the recovered maps are an *exact* committed prefix of the
//     history: the keys of steps 0..k-1 present on every root they
//     wrote, with their values, nothing else, for some k. No torn or
//     reordered state is ever visible — a multi-root step is on all of
//     its roots or on none.
//  2. Durable linearizability — k covers every step whose publication a
//     fence covered before the crash cut. Step i's root swaps (one, or
//     several through the batch record) are made durable by the next
//     fence, which executes before step i+1's last PM write; so once
//     step i+1 has fully executed, step i must survive any crash. An
//     async step is acknowledged durable when its Wait returns — its
//     round staged the publication ahead of its own fence — so once it
//     has fully executed it survives too, with every step before it. The
//     floor is therefore (completed steps at the cut) - 1, or the last
//     completed async step's count if that is more.
func runDurable(ops, stride int) error {
	if ops < 2 {
		ops = 2
	}
	if stride < 1 {
		stride = 1
	}

	// Dry run: record the cumulative PM-write index at the end of each step.
	dev, db, maps, err := durBuild()
	if err != nil {
		return err
	}
	base := dev.Stats().Writes
	wEnd := make([]uint64, ops)
	for i := 0; i < ops; i++ {
		if err := durApply(db, maps, i); err != nil {
			return err
		}
		wEnd[i] = dev.Stats().Writes - base
	}
	total := wEnd[ops-1]

	injections := 0
	for inj := 1; inj <= int(total); inj += stride {
		injections++
		dev, db, maps, err := durBuild()
		if err != nil {
			return err
		}
		tr := pmem.NewCrashCountdown(dev, inj, pmem.CrashEvictRandom, 0xD00D^uint64(inj))
		dev.SetTracer(tr)
		for i := 0; i < ops; i++ {
			if err := durApply(db, maps, i); err != nil {
				return err
			}
		}
		dev.SetTracer(nil)

		cfg2 := pmem.DefaultConfig(64 << 20)
		dev2 := pmem.NewFromImage(cfg2, tr.Image())
		st2, _, err := core.Open(cfg2, core.WithDevices(dev2), core.WithAttach())
		if err != nil {
			return fmt.Errorf("inj %d: recovery failed: %w", inj, err)
		}
		maps2 := make([]*core.Map, len(durRoots))
		for r, nm := range durRoots {
			if maps2[r], err = st2.Map(nm); err != nil {
				return fmt.Errorf("inj %d: rebind of %s failed: %w", inj, nm, err)
			}
		}

		// Exact-prefix check: k is the first step missing from any root
		// it wrote; every earlier step must read back its value, and
		// nothing of step k or later may be present.
		k := 0
	prefix:
		for ; k < ops; k++ {
			for _, r := range durStepRoots(k) {
				got, ok := maps2[r].Get(durKey(k))
				if !ok {
					break prefix
				}
				if string(got) != string(durVal(k)) {
					return fmt.Errorf("inj %d: step %d recovered on %s with value %q, want %q",
						inj, k, durRoots[r], got, durVal(k))
				}
			}
		}
		for r, m := range maps2 {
			want := 0
			for i := 0; i < k; i++ {
				for _, sr := range durStepRoots(i) {
					if sr == r {
						want++
					}
				}
			}
			if got := m.Len(); got != uint64(want) {
				return fmt.Errorf("inj %d: %s holds %d keys, want the %d of the %d-step prefix (a torn or reordered step)",
					inj, durRoots[r], got, want, k)
			}
		}

		// Fence-coverage floor.
		completed := 0
		for i := 0; i < ops && wEnd[i] <= uint64(inj); i++ {
			completed++
		}
		floor := max(completed-1, 0)
		for i := 0; i < completed; i++ {
			if durAsync(i) {
				floor = i + 1
			}
		}
		if k < floor {
			return fmt.Errorf("inj %d: recovered prefix %d steps, but %d steps were fence-covered or acknowledged before the cut",
				inj, k, floor)
		}

		// The recovered store must remain writable.
		maps2[0].Set([]byte("post-crash"), []byte("ok"))
		if got, ok := maps2[0].Get([]byte("post-crash")); !ok || string(got) != "ok" {
			return fmt.Errorf("inj %d: recovered store lost a post-crash write", inj)
		}
		st2.Sync()
	}
	fmt.Printf("modcheck: durable-linearizability smoke: %d steps (Map.Set, CommitUnrelated, 3-root Batch, one-root CommitAsync), %d PM writes, %d injections (stride %d), all recovered states exact fence-covered prefixes\n",
		ops, total, injections, stride)
	return nil
}

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
// Faults are aimed at the heap's block area and at freeAim bytes of free
// space above it: the span the 64 KiB commit-log block of heap layouts up
// to v5 used to take at the bottom of the heap, so a trial number damages
// the block it always did. Aimed at the block area alone, 64 trials hit
// the hole DESIGN.md §13 records — a selective structure's checkpoint
// nodes carry no checksum (ROADMAP item 1b); drop the slack with it.
func runCorrupt(ops, trials int) error {
	const freeAim = 64<<10 + pmem.LineSize
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
		m.Set(durKey(i), durVal(i))
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
		addr := func() pmem.Addr {
			x := rng.Int63n(freeAim + int64(hi-lo))
			if x < freeAim {
				return hi + pmem.Addr(x)
			}
			return lo + pmem.Addr(x-freeAim)
		}
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
		got, ok := m.Get(durKey(i))
		if ok && i == k {
			if string(got) != string(durVal(i)) {
				return "", fmt.Errorf("silent wrong read: key %d = %q, want %q", i, got, durVal(i))
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
