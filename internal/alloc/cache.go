package alloc

import (
	"sync"

	"github.com/mod-ds/mod/internal/pmem"
)

// DRAM node cache (DESIGN.md §10). Selective persistence keeps funcds
// navigation nodes volatile-clean in PM; this cache fronts their reads so
// lookups and structural copies walk DRAM instead of re-reading the
// simulated PM media. Entries are immutable byte snapshots keyed by
// payload address: a cached node is a committed (or edit-sealed) node,
// and the only way its bytes change is through free-and-reallocate, which
// invalidates the entry (freeBlock) — in-flight edit-owned nodes bypass
// the cache entirely (ReadCached's edit argument).
//
// The cache is a correctness-neutral performance layer: simulated PM
// reads always see the latest bytes, so a miss or a disabled cache only
// costs the cache-hierarchy/PM latency, never staleness.
type nodeCache struct {
	mu sync.RWMutex
	m  map[pmem.Addr][]byte
}

func (c *nodeCache) get(a pmem.Addr) ([]byte, bool) {
	c.mu.RLock()
	b, ok := c.m[a]
	c.mu.RUnlock()
	return b, ok
}

func (c *nodeCache) put(a pmem.Addr, b []byte) {
	c.mu.Lock()
	c.m[a] = b
	c.mu.Unlock()
}

func (c *nodeCache) invalidate(a pmem.Addr) {
	c.mu.Lock()
	delete(c.m, a)
	c.mu.Unlock()
}

func (c *nodeCache) reset() {
	c.mu.Lock()
	c.m = make(map[pmem.Addr][]byte)
	c.mu.Unlock()
}

// EnableNodeCache switches on the DRAM node cache for every handle of
// this heap. Idempotent; safe to call at any point, though callers
// normally enable it right after Format/Open.
func (h *Heap) EnableNodeCache() {
	c := &nodeCache{m: make(map[pmem.Addr][]byte)}
	h.sh.cache.CompareAndSwap(nil, c)
}

// NodeCacheEnabled reports whether the DRAM node cache is on.
func (h *Heap) NodeCacheEnabled() bool { return h.sh.cache.Load() != nil }

// ReadCached reads n payload bytes of the node at payload addr a through
// the DRAM node cache. A hit is timed as a DRAM-backed hierarchy walk
// (pmem.Device.ReadDRAM): hot lines still hit L1, and a full miss costs
// DRAM latency instead of the PM media read a device access would risk.
// A miss reads the device and populates the cache. Nodes owned by ed
// (still being mutated in place this FASE) bypass the cache, as does
// everything when the cache is disabled; those reads land in sc. The
// returned slice is shared — with the cache, or with sc's next user —
// and must be decoded before the next read and never mutated. Every node
// read descends through here, so this is where the address — usually
// decoded from a parent node's bytes — is required to be a block's, and
// the block to pass its lazy post-recovery check (VerifyRef).
func (h *Heap) ReadCached(a pmem.Addr, n int, ed *Edit, sc *Scratch) []byte {
	h.VerifyRef(a)
	c := h.sh.cache.Load()
	if c == nil || (ed != nil && ed.Owns(a)) {
		buf := sc.Bytes(n)
		h.dev.Read(a, buf)
		return buf
	}
	if b, ok := c.get(a); ok && len(b) >= n {
		h.dev.ReadDRAM(a, n)
		return b[:n]
	}
	buf := make([]byte, n)
	h.dev.Read(a, buf)
	c.put(a, buf)
	return buf
}

// invalidateCached drops the cache entry for payload addr a, if any.
func (h *Heap) invalidateCached(a pmem.Addr) {
	if c := h.sh.cache.Load(); c != nil {
		c.invalidate(a)
	}
}

// resetCache empties the node cache (recovery start).
func (h *Heap) resetCache() {
	if c := h.sh.cache.Load(); c != nil {
		c.reset()
	}
}
