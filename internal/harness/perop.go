package harness

import (
	"encoding/binary"
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmdkds"
	"github.com/mod-ds/mod/internal/pmem"
	"github.com/mod-ds/mod/internal/stm"
)

// Fig10 measures ordering (fences per operation) and flushing (flushes
// per operation) for each update operation under MOD and PMDK v1.5 —
// the scatter plot of paper Fig. 10.
func Fig10(scale Scale) (*Table, error) {
	t := &Table{
		ID:    "fig10",
		Title: "Fences and flushes per update operation (paper Fig. 10)",
		Note: "Paper: MOD always 1 fence/op; PMDK 3-11 fences and 4-23 flushes; " +
			"MOD queue-pop occasionally reverses a list (flush burst); MOD vector flushes more lines than PMDK " +
			"(far more in the paper, whose leaf is 32 elements; twice as many with this repo's one-line leaf).",
		Header: []string{"operation", "engine", "fences/op", "flushes/op"},
	}
	ops := []string{"map-insert", "set-insert", "queue-push", "queue-pop", "stack-push", "stack-pop", "vector-write", "vec-swap"}
	for _, op := range ops {
		for _, engine := range []string{"mod", "pmdk-v1.5"} {
			fences, flushes, err := measureOp(op, engine, scale.PerOpSamples)
			if err != nil {
				return nil, fmt.Errorf("measuring %s/%s: %w", op, engine, err)
			}
			t.AddRow(op, engine, f2(fences), f2(flushes))
		}
	}
	return t, nil
}

func key8(i uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, i)
	return b
}

func val32(i uint64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint64(b, i)
	return b
}

// measureOp runs n iterations of one named operation and returns fences
// and flushes per operation, excluding setup.
func measureOp(op, engine string, n int) (fencesPerOp, flushesPerOp float64, err error) {
	arena := int64(n)*2048 + (64 << 20)

	var dev pmem.Backend
	var run func(i uint64)
	if engine == "mod" {
		db, _, err := core.Open(pmem.DefaultConfig(arena))
		if err != nil {
			return 0, 0, err
		}
		store := db.Store()
		dev = store.Device()
		run, err = modOp(store, op, n)
		if err != nil {
			return 0, 0, err
		}
	} else {
		dev = pmem.New(pmem.DefaultConfig(arena))
		heap := alloc.Format(dev)
		tx := stm.New(dev, heap, stm.ModeV15)
		run, err = pmdkOp(tx, op, n)
		if err != nil {
			return 0, 0, err
		}
	}
	before := dev.Stats()
	for i := 0; i < n; i++ {
		run(uint64(i))
	}
	delta := dev.Stats().Sub(before)
	return float64(delta.Fences) / float64(n), float64(delta.Flushes) / float64(n), nil
}

func modOp(store *core.Store, op string, n int) (func(uint64), error) {
	switch op {
	case "map-insert":
		m, err := store.Map("perop")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { m.Set(key8(i), val32(i)) }, nil
	case "set-insert":
		s, err := store.Set("perop")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { s.Insert(key8(i)) }, nil
	case "queue-push":
		q, err := store.Queue("perop")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { q.Enqueue(i) }, nil
	case "queue-pop":
		q, err := store.Queue("perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			q.Enqueue(uint64(i))
		}
		return func(uint64) { q.Dequeue() }, nil
	case "stack-push":
		s, err := store.Stack("perop")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { s.Push(i) }, nil
	case "stack-pop":
		s, err := store.Stack("perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			s.Push(uint64(i))
		}
		return func(uint64) { s.Pop() }, nil
	case "vector-write":
		v, err := store.Vector("perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v.Push(uint64(i))
		}
		return func(i uint64) { v.Update(i%uint64(n), i) }, nil
	case "vec-swap":
		v, err := store.Vector("perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v.Push(uint64(i))
		}
		return func(i uint64) { v.Swap(i%uint64(n), (i*7)%uint64(n)) }, nil
	}
	return nil, fmt.Errorf("unknown per-op benchmark %q", op)
}

func pmdkOp(tx *stm.TX, op string, n int) (func(uint64), error) {
	switch op {
	case "map-insert":
		m, err := pmdkds.NewHashmap(tx, "perop", uint64(n))
		if err != nil {
			return nil, err
		}
		return func(i uint64) { m.Set(key8(i), val32(i)) }, nil
	case "set-insert":
		s, err := pmdkds.NewHashset(tx, "perop", uint64(n))
		if err != nil {
			return nil, err
		}
		return func(i uint64) { s.Insert(key8(i)) }, nil
	case "queue-push":
		q, err := pmdkds.NewQueue(tx, "perop")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { q.Enqueue(i) }, nil
	case "queue-pop":
		q, err := pmdkds.NewQueue(tx, "perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			q.Enqueue(uint64(i))
		}
		return func(uint64) { q.Dequeue() }, nil
	case "stack-push":
		s, err := pmdkds.NewStack(tx, "perop")
		if err != nil {
			return nil, err
		}
		return func(i uint64) { s.Push(i) }, nil
	case "stack-pop":
		s, err := pmdkds.NewStack(tx, "perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			s.Push(uint64(i))
		}
		return func(uint64) { s.Pop() }, nil
	case "vector-write":
		v, err := pmdkds.NewVector(tx, "perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v.Push(uint64(i))
		}
		return func(i uint64) { v.Update(i%uint64(n), i) }, nil
	case "vec-swap":
		v, err := pmdkds.NewVector(tx, "perop")
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			v.Push(uint64(i))
		}
		return func(i uint64) { v.Swap(i%uint64(n), (i*7)%uint64(n)) }, nil
	}
	return nil, fmt.Errorf("unknown per-op benchmark %q", op)
}
