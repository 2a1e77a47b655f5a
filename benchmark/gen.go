package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
)

// Everything the program under test sees is generated here, and all of
// it is a pure function of -seed: the same seed gives the same keys,
// values and operation order, so device counters on the single-goroutine
// workloads repeat exactly.

const valueSize = 64

// keyBytes formats key number i as the 12-byte key "key-%08d".
func keyBytes(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

// streamSeed derives an independent generator seed for a named stream
// (preload, timed ops, connection n) from the run's -seed.
func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return int64(h.Sum64() >> 1)
}

func newRNG(seed int64, stream string) *rand.Rand {
	return rand.New(rand.NewSource(streamSeed(seed, stream)))
}

func randValue(rng *rand.Rand) []byte {
	v := make([]byte, valueSize)
	rng.Read(v)
	return v
}

type opKind uint8

const (
	opGet opKind = iota
	opSet
	opDelete
	opVecUpdate
	opEnqueue
	opDequeue
	// Composite FASEs: their members are in op.sub.
	opVecSwap   // CommitSingle of two chained vector updates
	opUnrelated // CommitUnrelated of one vector update and one map set
	opBatch     // synchronous Batch.Commit of 8 members
	opMulti     // MULTI / 4 x SET / EXEC
)

// op is one generated operation. Only the fields its kind uses are set.
type op struct {
	kind opKind
	key  int    // map key number (what the model is keyed by)
	kb   []byte // the key's bytes (what the store is given); filled in by take
	val  []byte // map value
	idx  uint64 // vector index
	idx2 uint64 // second vector index (opVecSwap)
	u    uint64 // vector or queue value
	u2   uint64 // opVecSwap: with u, the two elements the model expects to find
	sub  []op
}

// generator yields the next operation of a workload's stream.
type generator interface{ next() op }

// mapWriteGen is the lib-map-write / lib-map-mmap mix: 80 % Set of an
// existing key (uniform), 10 % Set of a new key, 10 % Delete of the
// oldest new key still present, so the map's size is stationary.
type mapWriteGen struct {
	rng     *rand.Rand
	preload int
	nextNew int
	live    []int // new keys inserted and not yet deleted, oldest first
}

func newMapWriteGen(seed int64, preload int) *mapWriteGen {
	return &mapWriteGen{rng: newRNG(seed, "ops"), preload: preload, nextNew: preload}
}

func (g *mapWriteGen) next() op {
	r := g.rng.Intn(10)
	switch {
	case r < 8:
		return op{kind: opSet, key: g.rng.Intn(g.preload), val: randValue(g.rng)}
	case r == 9 && len(g.live) > 0:
		k := g.live[0]
		g.live = g.live[1:]
		return op{kind: opDelete, key: k}
	default:
		k := g.nextNew
		g.nextNew++
		g.live = append(g.live, k)
		return op{kind: opSet, key: k, val: randValue(g.rng)}
	}
}

// missBase is the first key number no workload ever inserts; lookups
// meant to miss draw from [missBase, ...).
const missBase = 50_000_000

// mapReadGen is the lib-map-read mix: 95 % Get with Zipf(1.1) popularity
// of which one in ten asks for a key that was never inserted, 5 % Set of
// an existing key (uniform).
type mapReadGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	preload int
}

func newMapReadGen(seed int64, preload int) *mapReadGen {
	rng := newRNG(seed, "ops")
	return &mapReadGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(preload-1)), preload: preload}
}

func (g *mapReadGen) next() op {
	if g.rng.Intn(20) == 0 {
		return op{kind: opSet, key: g.rng.Intn(g.preload), val: randValue(g.rng)}
	}
	k := int(g.zipf.Uint64())
	if g.rng.Intn(10) == 0 {
		k += missBase
	}
	return op{kind: opGet, key: k}
}

// composeGen is the lib-compose mix of FASEs over a vector, a map and a
// queue: 50 % vec-swap, 30 % CommitUnrelated(vector update + map set),
// 20 % an 8-member batch (4 vector updates, 2 map sets, 1 enqueue,
// 1 dequeue — so the queue's length is stationary).
type composeGen struct {
	rng             *rand.Rand
	vecLen, mapKeys int
	enqueued        uint64 // next value to enqueue
}

func newComposeGen(seed int64, vecLen, mapKeys, queueLen int) *composeGen {
	return &composeGen{rng: newRNG(seed, "ops"), vecLen: vecLen, mapKeys: mapKeys, enqueued: uint64(queueLen)}
}

func (g *composeGen) vecUpdate() op {
	return op{kind: opVecUpdate, idx: uint64(g.rng.Intn(g.vecLen)), u: g.rng.Uint64()}
}

func (g *composeGen) mapSet() op {
	return op{kind: opSet, key: g.rng.Intn(g.mapKeys), val: randValue(g.rng)}
}

func (g *composeGen) next() op {
	r := g.rng.Intn(10)
	switch {
	case r < 5:
		return op{kind: opVecSwap, idx: uint64(g.rng.Intn(g.vecLen)), idx2: uint64(g.rng.Intn(g.vecLen))}
	case r < 8:
		return op{kind: opUnrelated, sub: []op{g.vecUpdate(), g.mapSet()}}
	default:
		sub := []op{g.vecUpdate(), g.vecUpdate(), g.vecUpdate(), g.vecUpdate(), g.mapSet(), g.mapSet(),
			{kind: opEnqueue, u: g.enqueued}, {kind: opDequeue}}
		g.enqueued++
		return op{kind: opBatch, sub: sub}
	}
}

// srvSetGen is one srv-set connection's stream: 100 % SET with Zipf(1.1)
// popularity. Connection c of n owns the keys congruent to c mod n, so
// the two writers contend on roots and on the committer but never on one
// key, and the model of what was acknowledged stays exact.
type srvSetGen struct {
	rng     *rand.Rand
	zipf    *rand.Zipf
	conn, n int
}

func newSrvSetGen(seed int64, keys, conn, n int) *srvSetGen {
	rng := newRNG(seed, fmt.Sprintf("conn%d", conn))
	return &srvSetGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(keys/n-1)), conn: conn, n: n}
}

func (g *srvSetGen) next() op {
	return op{kind: opSet, key: int(g.zipf.Uint64())*g.n + g.conn, val: randValue(g.rng)}
}

// srvMixedGen is the srv-mixed-open stream: 90 % GET, 10 % writes of
// which every 8th is a MULTI/EXEC of 4 SETs; keys are Zipf(1.1).
type srvMixedGen struct {
	rng    *rand.Rand
	zipf   *rand.Zipf
	writes int
}

func newSrvMixedGen(seed int64, keys int) *srvMixedGen {
	rng := newRNG(seed, "conn0")
	return &srvMixedGen{rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(keys-1))}
}

func (g *srvMixedGen) set() op {
	return op{kind: opSet, key: int(g.zipf.Uint64()), val: randValue(g.rng)}
}

func (g *srvMixedGen) next() op {
	if g.rng.Intn(10) != 0 {
		return op{kind: opGet, key: int(g.zipf.Uint64())}
	}
	g.writes++
	if g.writes%8 == 0 {
		return op{kind: opMulti, sub: []op{g.set(), g.set(), g.set(), g.set()}}
	}
	return g.set()
}

// preloadValues returns the values keys 0..n-1 are preloaded with.
func preloadValues(seed int64, n int) [][]byte {
	rng := newRNG(seed, "preload")
	vals := make([][]byte, n)
	for i := range vals {
		vals[i] = randValue(rng)
	}
	return vals
}

// take draws the next n operations of g and materializes their key bytes,
// so that a timed region formats nothing.
func take(g generator, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = g.next()
		fillKeys(&ops[i])
	}
	return ops
}

func fillKeys(o *op) {
	switch o.kind {
	case opGet, opSet, opDelete:
		o.kb = keyBytes(o.key)
	}
	for i := range o.sub {
		fillKeys(&o.sub[i])
	}
}
