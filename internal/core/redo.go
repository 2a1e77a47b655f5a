package core

import "github.com/mod-ds/mod/internal/pmem"

// A redo record makes several 8-byte root-cell swaps one atomic step
// (DESIGN.md §7). It is the only multi-root commit mechanism: a store's
// batch record (batch.go) carries Batch and CommitUnrelated publications
// within one heap, and the shard manifest (sharded.go) is the same record
// in the metadata region with a shard index per entry. Layout, from base:
//
//	+0   status   (0 idle; a nonzero sequence number = committed —
//	              the 8-byte status write is the atomic commit point)
//	+8   count    (number of entries)
//	+16  checksum (fnv1a over the sequence number, count, and entries)
//	+24  entries: count × {[shard u64,] root cell addr u64, version u64}
//
// The checksum binds the body to one specific commit: it covers the
// sequence number that the commit point will write into the status word,
// so recovery replays only when the durable status, count, and entries
// all belong to the same commit — independent of how the record's fields
// straddle cache lines under partial eviction.
//
// The codec writes, flushes and parses; it never fences. Each placement
// keeps its own fence schedule: the in-heap record's retirement rides the
// heap's next commit fence, the manifest's is fenced at once (§9).
type redoRecord struct {
	dev     pmem.Backend
	base    pmem.Addr
	max     int  // entry capacity
	sharded bool // entries lead with a shard word (the manifest)
}

// redoEntry is one root-cell swap: cell on shard's device takes final.
// An unsharded record neither stores nor reads shard.
type redoEntry struct {
	shard int
	cell  pmem.Addr
	final pmem.Addr
}

const (
	redoStatusIdle = 0
	redoHdrSize    = 24
)

func (r redoRecord) entryWords() int {
	if r.sharded {
		return 3
	}
	return 2
}

// redoChecksum hashes the sequence number, the count, and the entry
// words. The checksum is durable before the committed status, so a
// record that validates is exactly the one the crashed commit wrote.
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
// to seq — and flushes it, leaving the status word alone. The caller
// fences before commit, so a crash in between recovers none of it.
func (r redoRecord) stage(seq uint64, entries []redoEntry) {
	words := make([]uint64, 0, 2+3*len(entries))
	words = append(words, seq, uint64(len(entries)))
	for _, e := range entries {
		if r.sharded {
			words = append(words, uint64(e.shard))
		}
		words = append(words, uint64(e.cell), uint64(e.final))
	}
	for i, w := range words[2:] {
		r.dev.WriteU64(r.base+redoHdrSize+pmem.Addr(i*8), w)
	}
	r.dev.WriteU64(r.base+8, uint64(len(entries)))
	r.dev.WriteU64(r.base+16, redoChecksum(words))
	r.dev.FlushRange(r.base+8, 8*len(words))
}

// commit writes seq into the status word and flushes it: the atomic
// commit point once the caller's fence makes it durable.
func (r redoRecord) commit(seq uint64) {
	r.dev.WriteU64(r.base, seq)
	r.dev.Clwb(r.base)
}

// retire returns the status word to idle and flushes it. The caller must
// have fenced the redone swaps first, so the idle status can never become
// durable while a swap is not.
func (r redoRecord) retire() { r.commit(redoStatusIdle) }

// read parses the record after a crash. It returns the entries to redo —
// nil unless the status holds a committed sequence number whose checksum
// validates the body — and whether the status word needs retiring. A
// mismatch means the status is a stale leftover of a commit that already
// completed its swaps, torn against a later commit's partially durable
// body: discard it.
func (r redoRecord) read() (entries []redoEntry, dirty bool) {
	seq := r.dev.ReadU64(r.base)
	if seq == redoStatusIdle {
		return nil, false
	}
	count := r.dev.ReadU64(r.base + 8)
	if count < 1 || count > uint64(r.max) {
		return nil, true
	}
	ew := r.entryWords()
	words := make([]uint64, 2, 2+int(count)*ew)
	words[0], words[1] = seq, count
	for i := 0; i < int(count)*ew; i++ {
		words = append(words, r.dev.ReadU64(r.base+redoHdrSize+pmem.Addr(i*8)))
	}
	if redoChecksum(words) != r.dev.ReadU64(r.base+16) {
		return nil, true
	}
	entries = make([]redoEntry, count)
	for i := range entries {
		w := words[2+i*ew:][:ew]
		if r.sharded {
			entries[i].shard = int(w[0])
		}
		entries[i].cell, entries[i].final = pmem.Addr(w[ew-2]), pmem.Addr(w[ew-1])
	}
	return entries, true
}
