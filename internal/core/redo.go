package core

import "github.com/mod-ds/mod/internal/pmem"

// A redo record makes several 8-byte root-cell swaps one atomic step
// (DESIGN.md §7). It is the only multi-root commit mechanism: a store's
// two batch-record slots (batch.go) carry Batch and CommitUnrelated
// publications within one heap, and the shard manifest (sharded.go) is
// the same record in the metadata region with a shard index per entry.
// Layout, from base:
//
//	+0   status   (0 never used; a sequence number = live; the sequence
//	              number with redoRetired set = retired)
//	+8   count    (number of entries)
//	+16  checksum (fnv1a over the sequence number, count, and entries)
//	+24  entries: count × {[shard u64,] root cell addr u64, cell word u64}
//
// An entry's cell word is what its swap writes: the new version's address
// under the root's next publication counter (alloc's NextCellWord), so
// recovery can tell a swap that never reached PM from one a later
// publication of the root has overwritten, and rolls forward only the
// first kind (alloc's SwapLanded, ReplaySwap).
//
// The checksum binds the body to one specific commit: it covers the
// sequence number the status word carries, so recovery acts on a record
// only when the durable status, count, and entries all belong to the same
// commit — independent of how the record's fields straddle cache lines
// under partial eviction. A retired status keeps its sequence number, so
// a store reopened over old bodies numbers its next commits past them.
//
// The two placements differ in where the commit point is. The manifest
// stages its body, fences, then writes the status (commit) and fences
// again: the durable status is its commit point. A batch-record slot
// stages status and body together under one fence (stage with live set)
// and has no status-only commit point: recovery decides such a record
// from the root cells it names (Store.replayRecord).
//
// The codec writes, flushes and parses; it never fences. Each placement
// keeps its own fence schedule: a batch-record slot retires at the next
// ordering point whose fence covered its swaps, the manifest's retirement
// is fenced at once (§9).
type redoRecord struct {
	dev     pmem.Backend
	base    pmem.Addr
	max     int  // entry capacity
	sharded bool // entries lead with a shard word (the manifest)
}

// redoEntry is one root-cell swap: cell on shard's device takes word. An
// unsharded record neither stores nor reads shard.
type redoEntry struct {
	shard int
	cell  pmem.Addr
	word  uint64
}

const (
	redoRetired = uint64(1) << 63 // status flag: retired, sequence number kept
	redoHdrSize = 24
)

func (r redoRecord) entryWords() int {
	if r.sharded {
		return 3
	}
	return 2
}

// redoChecksum hashes the sequence number, the count, and the entry
// words. A record validates only if the durable status, count, and
// entries are exactly what one commit wrote.
func redoChecksum(words []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range words {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	if h == 0 {
		h = 1
	}
	return h
}

// stage writes the body — entries, count, and the checksum binding them
// to seq — and flushes it. With live set it also writes seq into the
// status word, inside the same flush (a batch-record slot); otherwise the
// status is left alone for commit to write behind the caller's fence (the
// manifest).
func (r redoRecord) stage(seq uint64, entries []redoEntry, live bool) {
	words := make([]uint64, 0, 2+3*len(entries))
	words = append(words, seq, uint64(len(entries)))
	for _, e := range entries {
		if r.sharded {
			words = append(words, uint64(e.shard))
		}
		words = append(words, uint64(e.cell), e.word)
	}
	for i, w := range words[2:] {
		r.dev.WriteU64(r.base+redoHdrSize+pmem.Addr(i*8), w)
	}
	r.dev.WriteU64(r.base+8, uint64(len(entries)))
	r.dev.WriteU64(r.base+16, redoChecksum(words))
	from := r.base + 8
	if live {
		r.dev.WriteU64(r.base, seq)
		from = r.base
	}
	r.dev.FlushRange(from, int(r.base+8-from)+8*len(words))
}

// commit writes seq into the status word and flushes it: the manifest's
// atomic commit point once the caller's fence makes it durable.
func (r redoRecord) commit(seq uint64) {
	r.dev.WriteU64(r.base, seq)
	r.dev.Clwb(r.base)
}

// retire marks the record of commit seq retired and flushes the status.
// The caller must have fenced the record's swaps first, so the retired
// status can never become durable while a swap is not.
func (r redoRecord) retire(seq uint64) { r.commit(seq | redoRetired) }

// read parses the record after a crash. It returns the status's sequence
// number (0 for a never-used record), whether the status still reads live
// — the record must be acted on and then retired — and, only when the
// checksum binds the durable body to that live status, the entries. A
// live status over a body that fails the checksum is a record torn
// against another commit's write: act on none of it.
func (r redoRecord) read() (seq uint64, entries []redoEntry, live bool) {
	status := r.dev.ReadU64(r.base)
	seq = status &^ redoRetired
	if status == 0 || status&redoRetired != 0 {
		return seq, nil, false
	}
	count := r.dev.ReadU64(r.base + 8)
	if count < 1 || count > uint64(r.max) {
		return seq, nil, true
	}
	ew := r.entryWords()
	words := make([]uint64, 2, 2+int(count)*ew)
	words[0], words[1] = seq, count
	for i := 0; i < int(count)*ew; i++ {
		words = append(words, r.dev.ReadU64(r.base+redoHdrSize+pmem.Addr(i*8)))
	}
	if redoChecksum(words) != r.dev.ReadU64(r.base+16) {
		return seq, nil, true
	}
	entries = make([]redoEntry, count)
	for i := range entries {
		w := words[2+i*ew:][:ew]
		if r.sharded {
			entries[i].shard = int(w[0])
		}
		entries[i].cell, entries[i].word = pmem.Addr(w[ew-2]), w[ew-1]
	}
	return seq, entries, true
}
