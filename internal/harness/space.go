package harness

import (
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmdkds"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/stm"
)

// Table3 measures the growth in memory consumption when doubling each
// datastructure from N to 2N elements (paper Table 3, N = 1M).
//
// Methodology note (see DESIGN.md §3): the paper's ratios are only
// mutually consistent if the additional N inserts retain superseded
// versions — multi-versioning with structural sharing. Phase one builds N
// elements with normal reclamation (a compact single version); phase two
// inserts N more with reclamation disabled on the MOD side, so the ratio
// captures how much memory the structure's shadows cost relative to its
// compact size. Structural sharing keeps map/set/stack/queue near 2x
// while the vector's per-push path copies blow up by two orders of
// magnitude — the paper's 131x. The PMDK baselines reclaim normally in
// both phases.
func Table3(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "table3",
		Title: "Memory consumed at 2N elements relative to N (paper Table 3)",
		Note: fmt.Sprintf("N = %d (paper: 1M). Paper ratios - MOD: map 1.87x set 2.08x stack 2.25x queue 1.67x vector 131x; PMDK: 1.5-2x. "+
			"The retained regime (superseded versions kept across the doubling) is the only reading consistent with the paper's vector row; "+
			"see DESIGN.md §3.", scale.Table3N),
		Header: []string{"structure", "engine", "regime", "bytes@N", "bytes@2N", "ratio"},
	}
	n := scale.Table3N
	for _, structure := range []string{"map", "set", "stack", "queue", "vector"} {
		for _, retain := range []bool{false, true} {
			atN, at2N, err := modDoubling(structure, n, retain)
			if err != nil {
				return nil, err
			}
			regime := "reclaimed"
			if retain {
				regime = "retained"
			}
			t.AddRow(structure, "mod", regime, fmt.Sprintf("%d", atN), fmt.Sprintf("%d", at2N), f2(float64(at2N)/float64(atN)))
		}
		atN, at2N, err := pmdkDoubling(structure, n)
		if err != nil {
			return nil, err
		}
		t.AddRow(structure, "pmdk", "reclaimed", fmt.Sprintf("%d", atN), fmt.Sprintf("%d", at2N), f2(float64(at2N)/float64(atN)))
	}
	return t, nil
}

// modDoubling builds N elements with reclamation, then N more — with
// reclamation still on, or retaining superseded versions — returning live
// bytes at both points.
func modDoubling(structure string, n int, retainVersions bool) (atN, at2N uint64, err error) {
	arena := int64(n)*4096 + (64 << 20)
	db, _, err := core.Open(pmem.DefaultConfig(arena))
	if err != nil {
		return 0, 0, err
	}
	store := db.Store()
	heap := store.Heap()
	base := heap.Stats().LiveBytes // store metadata, not structure
	insert, err := modInserter(store, structure)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		insert(uint64(i))
	}
	store.Sync()
	atN = heap.Stats().LiveBytes - base
	heap.DisableReclaim = retainVersions
	for i := n; i < 2*n; i++ {
		insert(uint64(i))
	}
	store.Sync()
	return atN, heap.Stats().LiveBytes - base, nil
}

func modInserter(store *core.Store, structure string) (func(uint64), error) {
	switch structure {
	case "map":
		m, err := store.Map("t3")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { m.Set(key8(i), val32(i)) }, nil
	case "set":
		s, err := store.Set("t3")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { s.Insert(key8(i)) }, nil
	case "stack":
		s, err := store.Stack("t3")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { s.Push(i) }, nil
	case "queue":
		q, err := store.Queue("t3")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { q.Enqueue(i) }, nil
	case "vector":
		v, err := store.Vector("t3")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { v.Push(i) }, nil
	}
	return nil, fmt.Errorf("unknown structure %q", structure)
}

// pmdkDoubling builds N then 2N elements on the STM baseline with normal
// reclamation throughout.
func pmdkDoubling(structure string, n int) (atN, at2N uint64, err error) {
	arena := int64(n)*1024 + (64 << 20)
	dev := pmem.New(pmem.DefaultConfig(arena))
	heap := alloc.Format(dev)
	tx := stm.New(dev, heap, stm.ModeV15)
	base := heap.Stats().LiveBytes // transaction log, not structure
	var insert func(uint64)
	switch structure {
	case "map":
		m, err := pmdkds.NewHashmap(tx, "t3", uint64(2*n))
		if err != nil {
			return 0, 0, err
		}
		insert = func(i uint64) { m.Set(key8(i), val32(i)) }
	case "set":
		s, err := pmdkds.NewHashset(tx, "t3", uint64(2*n))
		if err != nil {
			return 0, 0, err
		}
		insert = func(i uint64) { s.Insert(key8(i)) }
	case "stack":
		s, err := pmdkds.NewStack(tx, "t3")
		if err != nil {
			return 0, 0, err
		}
		insert = func(i uint64) { s.Push(i) }
	case "queue":
		q, err := pmdkds.NewQueue(tx, "t3")
		if err != nil {
			return 0, 0, err
		}
		insert = func(i uint64) { q.Enqueue(i) }
	case "vector":
		v, err := pmdkds.NewVector(tx, "t3")
		if err != nil {
			return 0, 0, err
		}
		insert = func(i uint64) { v.Push(i) }
	default:
		return 0, 0, fmt.Errorf("unknown structure %q", structure)
	}
	for i := 0; i < n; i++ {
		insert(uint64(i))
	}
	atN = heap.Stats().LiveBytes - base
	for i := n; i < 2*n; i++ {
		insert(uint64(i))
	}
	return atN, heap.Stats().LiveBytes - base, nil
}

// SpaceOverhead measures the extra memory one update allocates relative
// to the live structure at N elements — the §6.5 claim that a shadow
// needs 0.00002-0.00004x extra memory, far below naive shadow paging's 2x.
func SpaceOverhead(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "spaceoverhead",
		Title:  "Shadow space per update at N elements (paper §6.5)",
		Note:   fmt.Sprintf("N = %d. Paper: <0.01%% per update; naive shadow paging needs 100%%.", scale.Table3N),
		Header: []string{"structure", "live-bytes", "update-bytes", "overhead"},
	}
	n := scale.Table3N
	for _, structure := range []string{"map", "set", "stack", "queue", "vector"} {
		arena := int64(n)*2048 + (64 << 20)
		db, _, err := core.Open(pmem.DefaultConfig(arena))
		if err != nil {
			return nil, err
		}
		store := db.Store()
		heap := store.Heap()
		base := heap.Stats().LiveBytes
		insert, err := modInserter(store, structure)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			insert(uint64(i))
		}
		store.Sync()
		live := heap.Stats().LiveBytes - base
		before := heap.Stats().CumBytes
		insert(uint64(n + 1))
		grew := heap.Stats().CumBytes - before
		t.AddRow(structure, fmt.Sprintf("%d", live), fmt.Sprintf("%d", grew), pct(float64(grew)/float64(live)))
	}
	return t, nil
}

// AblationFlushConcurrency reruns MOD map inserts under decreasing flush
// concurrency caps, isolating how much of MOD's win comes from letting
// flushes overlap (§3's motivation).
func AblationFlushConcurrency(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "ablation-conc",
		Title:  "MOD map inserts vs flush concurrency cap (ablation)",
		Note:   "cap=1 forces every flush to serialize as if individually fenced.",
		Header: []string{"max-concurrency", "sim-ms", "ns/op", "slowdown-vs-32"},
	}
	n := scale.Ops
	var base float64
	for _, cap := range []int{32, 16, 8, 4, 2, 1} {
		cfg := pmem.DefaultConfig(int64(n)*1536 + (64 << 20))
		cfg.FlushMaxConcurrency = cap
		db, _, err := core.Open(cfg)
		if err != nil {
			return nil, err
		}
		store := db.Store()
		dev := store.Device()
		m, err := store.Map("abl")
		if err != nil {
			return nil, err
		}
		start := dev.Clock()
		for i := 0; i < n; i++ {
			m.Set(key8(uint64(i)), val32(uint64(i)))
		}
		elapsed := dev.Clock() - start
		if cap == 32 {
			base = elapsed
		}
		t.AddRow(fmt.Sprintf("%d", cap), ms(elapsed), f1(elapsed/float64(n)), f2(elapsed/base))
	}
	return t, nil
}

// AblationNaiveShadow compares MOD's structurally shared vector update
// against naive shadow paging (copy the whole array out of place, flush
// it, swap one pointer) — the overhead Functional Shadowing exists to
// avoid (§4.1).
func AblationNaiveShadow(scale Scale) (*Table, error) {
	t := &Table{
		ID:     "ablation-naive",
		Title:  "Vector update: structural sharing vs naive shadow paging (ablation)",
		Note:   "Both are one fence per update; the naive shadow copies the full array each time.",
		Header: []string{"variant", "elements", "updates", "sim-ms", "bytes-allocated"},
	}
	n := uint64(4096)
	updates := 512

	// MOD trie vector with path copying.
	{
		db, _, err := core.Open(pmem.DefaultConfig(256 << 20))
		if err != nil {
			return nil, err
		}
		store := db.Store()
		dev := store.Device()
		v, err := store.Vector("abl")
		if err != nil {
			return nil, err
		}
		for i := uint64(0); i < n; i++ {
			v.Push(i)
		}
		store.Sync()
		before := store.Heap().Stats().CumBytes
		start := dev.Clock()
		for i := 0; i < updates; i++ {
			v.Update(uint64(i)%n, uint64(i))
		}
		elapsed := dev.Clock() - start
		grew := store.Heap().Stats().CumBytes - before
		t.AddRow("structural-sharing", fmt.Sprintf("%d", n), fmt.Sprintf("%d", updates), ms(elapsed), fmt.Sprintf("%d", grew))
	}

	// Naive shadow paging: whole-array copy per update.
	{
		dev := pmem.New(pmem.DefaultConfig(256 << 20))
		heap := alloc.Format(dev)
		funcds.RegisterWalkers(heap)
		slot, err := heap.RootSlot("abl")
		if err != nil {
			return nil, err
		}
		size := int(n) * 8
		cur := heap.Alloc(size, 0)
		buf := make([]byte, size)
		dev.Write(cur, buf)
		dev.FlushRange(cur, size)
		heap.SetRoot(slot, cur)
		dev.Sfence()
		before := heap.Stats().CumBytes
		start := dev.Clock()
		for i := 0; i < updates; i++ {
			shadow := heap.Alloc(size, 0)
			dev.Read(cur, buf)
			idx := (i % int(n)) * 8
			buf[idx] = byte(i)
			dev.Write(shadow, buf)
			dev.FlushRange(shadow, size)
			heap.Fence()
			heap.SetRoot(slot, shadow)
			heap.Release(cur)
			cur = shadow
		}
		elapsed := dev.Clock() - start
		grew := heap.Stats().CumBytes - before
		t.AddRow("naive-shadow", fmt.Sprintf("%d", n), fmt.Sprintf("%d", updates), ms(elapsed), fmt.Sprintf("%d", grew))
	}
	return t, nil
}
