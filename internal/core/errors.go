package core

import "errors"

// Sentinel errors. Store operations wrap these with context via
// fmt.Errorf("...: %w", ...), so callers dispatch with errors.Is — the
// server layer (internal/server) maps them onto protocol error replies
// without string matching.
var (
	// ErrReservedRootName is returned when binding a datastructure under
	// a root name with the "__mod_" prefix, which is reserved for the
	// store's own roots.
	ErrReservedRootName = errors.New("reserved root name")

	// ErrWrongRootKind is returned when binding a datastructure over a
	// root that already holds a different structure kind (e.g. a Vector
	// binder on a root created as a Map). Map and Set share the CHAMP
	// header layout and are interchangeable at this level.
	ErrWrongRootKind = errors.New("root holds a different structure kind")

	// ErrStoreClosed is returned by operations on a closed store: binds
	// after Close, and CommitAsync tickets submitted after Close resolve
	// with it instead of hanging.
	ErrStoreClosed = errors.New("store is closed")

	// ErrShardCount is returned for an invalid shard count (< 1, or more
	// than one group word can count every root of), for an empty region
	// set, when the region count contradicts the requested shard count,
	// and when a region's heap records another place in its store's
	// region set than the one it was opened at (a missing, swapped or
	// duplicated shard, or a single heap among shards).
	ErrShardCount = errors.New("invalid shard count")

	// ErrRegionTooLarge is returned by Open for a heap region beyond the
	// reach of the 4-byte references trie nodes store
	// (funcds.MaxHeapBytes, 32 GiB): partition a larger store across
	// regions with WithShards.
	ErrRegionTooLarge = errors.New("heap region exceeds the 32 GiB reach of a node reference")

	// ErrCorrupted is returned (wrapped, usually inside a
	// *CorruptionError carrying the damaged root's coordinates) when
	// media damage is detected: a checksum mismatch, an unreadable line,
	// a malformed block header, or a truncated image. Operations on a
	// quarantined root keep returning it until the damage is repaired.
	ErrCorrupted = errors.New("corrupted data detected")

	// ErrConcurrentWriter is returned by Commit* when the base version a
	// shadow chain was built on is no longer the committed version — the
	// signature of two logical writers racing on one root through the
	// Composition interface, which requires one writer per root between
	// Pure* and Commit*. The commit publishes nothing; the caller should
	// rebuild its shadows from the current version and retry. (The Basic
	// interface never returns this: its optimistic commit path retries
	// internally.)
	ErrConcurrentWriter = errors.New("concurrent writer: base version is stale")
)
