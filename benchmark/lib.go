package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/mod-ds/mod/internal/core"
	"github.com/mod-ds/mod/internal/pmem"
)

// The lib-* workloads drive the embedded library from one goroutine:
// core.Open, then handles (Basic interface), Pure*/Commit* (Composition
// interface) and Batch.

const preloadBatch = 256 // operations per preload Batch commit

// libInstance is one set-up library workload.
type libInstance interface {
	stack() *stack
	model() *model
	// exec performs o against the store, bracketing the call into core
	// with tr, and reports whether what it read back was what the model
	// expected.
	exec(o *op, tr *opTrace) bool
	// view reads a store holding this workload's roots.
	view(db *core.DB) (view, error)
}

// libSpec sizes one library workload.
type libSpec struct {
	mmap bool
	// setup opens the store and preloads it.
	setup func(e *env, wrap func(pmem.Backend) pmem.Backend) (libInstance, generator, error)
	// segOps operations make a timed segment; a run times at least
	// countSegs segments, and the count metrics (fences, flushes, bytes
	// and simulated time per operation) are taken over exactly the first
	// countSegs, so that they repeat bit for bit with the same seed no
	// matter how many more segments the host had time for.
	segOps, countSegs int
	probes            probeShape
}

// prepare advances the model over ops and notes in each read what it must
// return. The workload runs on one goroutine, so the outcome of every
// operation is known before it is issued and the timed loop only compares.
func prepare(ops []op, m *model) {
	for i := range ops {
		o := &ops[i]
		switch o.kind {
		case opGet:
			o.val = m.kv[o.key]
			continue // not a FASE: the model's undo stays that of the last write
		case opVecSwap:
			o.u, o.u2 = m.vec[o.idx], m.vec[o.idx2]
		}
		m.apply(*o)
	}
}

// libCounts are counter deltas over the count window of a run.
type libCounts struct {
	ops int64
	dev pmem.Stats
}

// measureLib runs timed segments until both seconds of timed work and
// spec.countSegs segments are done.
func measureLib(inst libInstance, gen generator, spec libSpec, seconds float64, tr *opTrace) (segs []segment, counts libCounts, failed int64) {
	store := inst.stack().db.Store()
	dev0 := store.Stats()
	var worked time.Duration
	for len(segs) < spec.countSegs || worked.Seconds() < seconds {
		ops := take(gen, spec.segOps)
		prepare(ops, inst.model())
		lat := make([]int64, len(ops))
		t0 := time.Now()
		for i := range ops {
			s := time.Now()
			ok := inst.exec(&ops[i], tr)
			e := time.Now()
			lat[i] = int64(e.Sub(s))
			tr.clientOp(s, e)
			if !ok {
				failed++
			}
		}
		d := time.Since(t0)
		worked += d
		segs = append(segs, segment{ops: len(ops), dur: d, lat: lat})
		if len(segs) == spec.countSegs {
			counts = libCounts{ops: int64(spec.countSegs * spec.segOps), dev: store.Stats().Sub(dev0)}
		}
	}
	return segs, counts, failed
}

// ---- lib-map-write, lib-map-read, lib-map-mmap ----

type libMap struct {
	st  *stack
	m   *core.Map
	mod *model
}

func (x *libMap) stack() *stack { return x.st }
func (x *libMap) model() *model { return x.mod }

func (x *libMap) exec(o *op, tr *opTrace) bool {
	switch o.kind {
	case opGet:
		tr.enter()
		got, ok := x.m.Get(o.kb)
		tr.leave(opGet)
		return ok == (o.val != nil) && bytes.Equal(got, o.val)
	case opSet:
		tr.enter()
		x.m.Set(o.kb, o.val)
		tr.leave(opSet)
	case opDelete:
		tr.enter()
		removed := x.m.Delete(o.kb)
		tr.leave(opDelete)
		return removed
	}
	return true
}

func (x *libMap) view(db *core.DB) (view, error) {
	m, err := db.Map("bench")
	if err != nil {
		return view{}, err
	}
	return view{get: m.Get, mapLen: m.Len}, nil
}

// setupLibMap opens a store with one Map root and preloads keys 0..n-1
// through Batch commits.
func setupLibMap(e *env, mmap bool, n int, wrap func(pmem.Backend) pmem.Backend) (*libMap, error) {
	st, err := openStack(mmap, e.dir, wrap)
	if err != nil {
		return nil, err
	}
	m, err := st.db.Map("bench")
	if err != nil {
		st.close()
		return nil, err
	}
	x := &libMap{st: st, m: m, mod: newModel()}
	vals := preloadValues(e.seed, n)
	for i := 0; i < n; i += preloadBatch {
		b := st.db.Batch()
		for k := i; k < min(i+preloadBatch, n); k++ {
			b.MapSet(m, keyBytes(k), vals[k])
			x.mod.kv[k] = vals[k]
		}
		b.Commit()
	}
	return x, nil
}

func libMapSpec(mmap bool, preload, segOps, countSegs int, gen func(seed int64, preload int) generator) *libSpec {
	return &libSpec{
		mmap: mmap, segOps: segOps, countSegs: countSegs, probes: probeShape{mapKeys: preload},
		setup: func(e *env, wrap func(pmem.Backend) pmem.Backend) (libInstance, generator, error) {
			x, err := setupLibMap(e, mmap, preload, wrap)
			if err != nil {
				return nil, nil, err
			}
			return x, gen(e.seed, preload), nil
		},
	}
}

// ---- lib-compose ----

const (
	composeVecLen   = 100_000
	composeMapKeys  = 10_000
	composeQueueLen = 1_000
)

type libCompose struct {
	st  *stack
	vec *core.Vector
	m   *core.Map
	q   *core.Queue
	mod *model
}

func (x *libCompose) stack() *stack { return x.st }
func (x *libCompose) model() *model { return x.mod }

func (x *libCompose) exec(o *op, tr *opTrace) bool {
	store := x.st.db.Store()
	ok := true
	tr.enter()
	switch o.kind {
	case opVecSwap:
		cur := x.vec.Current()
		a, b := cur.Get(o.idx), cur.Get(o.idx2)
		ok = a == o.u && b == o.u2
		s1 := cur.Update(o.idx, b)
		s2 := s1.Update(o.idx2, a)
		ok = store.CommitSingle(x.vec, s1, s2) == nil && ok
	case opUnrelated:
		v, s := o.sub[0], o.sub[1]
		mv, _ := x.m.PureSet(s.kb, s.val)
		ok = store.CommitUnrelated(
			core.Update{DS: x.vec, Shadows: []core.Version{x.vec.PureUpdate(v.idx, v.u)}},
			core.Update{DS: x.m, Shadows: []core.Version{mv}}) == nil
	case opBatch:
		b := x.st.db.Batch()
		for _, s := range o.sub {
			switch s.kind {
			case opVecUpdate:
				b.VectorUpdate(x.vec, s.idx, s.u)
			case opSet:
				b.MapSet(x.m, s.kb, s.val)
			case opEnqueue:
				b.QueueEnqueue(x.q, s.u)
			case opDequeue:
				b.QueueDequeue(x.q)
			}
		}
		b.Commit()
	}
	tr.leave(o.kind)
	return ok
}

func (x *libCompose) view(db *core.DB) (view, error) {
	vec, err := db.Vector("vec")
	if err != nil {
		return view{}, err
	}
	m, err := db.Map("map")
	if err != nil {
		return view{}, err
	}
	q, err := db.Queue("queue")
	if err != nil {
		return view{}, err
	}
	return view{
		get: m.Get, mapLen: m.Len,
		vec:   func() []uint64 { return vec.Current().Elements() },
		queue: func() []uint64 { return q.Current().Elements() },
	}, nil
}

func setupLibCompose(e *env, wrap func(pmem.Backend) pmem.Backend) (libInstance, generator, error) {
	st, err := openStack(false, e.dir, wrap)
	if err != nil {
		return nil, nil, err
	}
	x := &libCompose{st: st, mod: newModel()}
	if x.vec, err = st.db.Vector("vec"); err == nil {
		if x.m, err = st.db.Map("map"); err == nil {
			x.q, err = st.db.Queue("queue")
		}
	}
	if err != nil {
		st.close()
		return nil, nil, fmt.Errorf("bind roots: %w", err)
	}
	rng := newRNG(e.seed, "preload-vec")
	vals := preloadValues(e.seed, composeMapKeys)
	// One preload step per element of the longest structure; each Batch
	// carries whatever structures still have elements to load.
	b, n := st.db.Batch(), 0
	flush := func() {
		b.Commit()
		b, n = st.db.Batch(), 0
	}
	for i := 0; i < composeVecLen; i++ {
		v := rng.Uint64()
		b.VectorPush(x.vec, v)
		x.mod.vec = append(x.mod.vec, v)
		n++
		if i < composeMapKeys {
			b.MapSet(x.m, keyBytes(i), vals[i])
			x.mod.kv[i] = vals[i]
			n++
		}
		if i < composeQueueLen {
			b.QueueEnqueue(x.q, uint64(i))
			x.mod.queue = append(x.mod.queue, uint64(i))
			n++
		}
		if n >= preloadBatch {
			flush()
		}
	}
	flush()
	return x, newComposeGen(e.seed, composeVecLen, composeMapKeys, composeQueueLen), nil
}
