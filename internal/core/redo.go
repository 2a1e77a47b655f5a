package core

import "github.com/mod-ds/mod/internal/pmem"

// A redo record makes several 8-byte root-cell swaps on different shards
// one atomic step (DESIGN.md §9). It serves one placement, the shard
// manifest in the metadata region of a sharded store (sharded.go); a
// multi-root commit within one heap is a staged group instead (batch.go).
// Layout, from base:
//
//	+0   status   (0 never used; a sequence number = committed; the
//	              sequence number with redoRetired set = retired)
//	+8   count    (number of entries)
//	+16  checksum (fnv1a over the sequence number, count, and entries)
//	+24  entries: count × {shard u64, root cell addr u64, cell word u64}
//
// An entry's cell word is what its swap writes: the new version's address
// under the root's next publication counter (alloc's NextCellWord), so
// recovery can tell a swap that never reached PM from one a later
// publication of the root has overwritten, and rolls forward only the
// first kind (alloc's ReplaySwap).
//
// The checksum binds the body to one specific commit: it covers the
// sequence number the status word carries, so recovery acts on a record
// only when the durable status, count, and entries all belong to the same
// commit — independent of how the record's fields straddle cache lines
// under partial eviction. A retired status keeps its sequence number.
//
// The manifest stages its body, fences, then writes the status (commit)
// and fences again: the durable status is its commit point. The codec
// writes, flushes and parses; it never fences.
type redoRecord struct {
	dev  pmem.Backend
	base pmem.Addr
	max  int // entry capacity
}

// redoEntry is one root-cell swap: cell on shard's device takes word.
type redoEntry struct {
	shard int
	cell  pmem.Addr
	word  uint64
}

const (
	redoRetired    = uint64(1) << 63 // status flag: retired, sequence number kept
	redoHdrSize    = 24
	redoEntryWords = 3
)

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
// to seq — and flushes it, leaving the status for commit to write behind
// the caller's fence.
func (r redoRecord) stage(seq uint64, entries []redoEntry) {
	words := make([]uint64, 0, 2+redoEntryWords*len(entries))
	words = append(words, seq, uint64(len(entries)))
	for _, e := range entries {
		words = append(words, uint64(e.shard), uint64(e.cell), e.word)
	}
	for i, w := range words[2:] {
		r.dev.WriteU64(r.base+redoHdrSize+pmem.Addr(i*8), w)
	}
	r.dev.WriteU64(r.base+8, uint64(len(entries)))
	r.dev.WriteU64(r.base+16, redoChecksum(words))
	r.dev.FlushRange(r.base+8, 8*len(words))
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
// number (0 for a never-used record), whether the status still reads
// committed — the record must be acted on and then retired — and, only
// when the checksum binds the durable body to that status, the entries. A
// committed status over a body that fails the checksum is a record torn
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
	words := make([]uint64, 2, 2+int(count)*redoEntryWords)
	words[0], words[1] = seq, count
	for i := 0; i < int(count)*redoEntryWords; i++ {
		words = append(words, r.dev.ReadU64(r.base+redoHdrSize+pmem.Addr(i*8)))
	}
	if redoChecksum(words) != r.dev.ReadU64(r.base+16) {
		return seq, nil, true
	}
	entries = make([]redoEntry, count)
	for i := range entries {
		w := words[2+i*redoEntryWords:]
		entries[i] = redoEntry{shard: int(w[0]), cell: pmem.Addr(w[1]), word: w[2]}
	}
	return seq, entries, true
}
