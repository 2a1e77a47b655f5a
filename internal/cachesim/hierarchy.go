package cachesim

// Hierarchy models the full cache stack of the paper's machine (Table 1:
// 32 KB L1D, 1 MB L2, 33 MB shared L3). Where an access hits determines
// the latency the device charges; without the outer levels, every L1 miss
// would pay the full PM latency and pointer-chasing structures would be
// overcharged at sub-paper working-set sizes.
//
// All levels are inclusive, LRU, write-allocate. A Hierarchy is not safe
// for concurrent use: it models a single shared cache stack, and its one
// user — the simulated device — touches it only inside the critical
// section that already serializes the arena.

// Level geometry (bytes, ways) for L2 and L3.
const (
	L2SizeBytes = 1 << 20
	L2Ways      = 16
	L3SizeBytes = 32 << 20
	L3Ways      = 16
)

// Where identifies the level that served an access.
type Where int

// Access outcomes, nearest to farthest.
const (
	InL1 Where = iota
	InL2
	InL3
	InMem
)

// level is one set-associative cache level.
type level struct {
	sets int
	ways int
	tags []uint64 // line+1; 0 invalid
	age  []uint64 // larger = more recently used
	tick uint64
}

func newLevel(sizeBytes, ways int) *level {
	sets := sizeBytes / LineSize / ways
	return &level{
		sets: sets,
		ways: ways,
		tags: make([]uint64, sets*ways),
		age:  make([]uint64, sets*ways),
	}
}

// access probes and fills the level, reporting a hit.
func (l *level) access(line uint64) bool {
	set := int(line % uint64(l.sets))
	base := set * l.ways
	tag := line + 1
	l.tick++
	victim := base
	best := l.age[base]
	for w := 0; w < l.ways; w++ {
		i := base + w
		if l.tags[i] == tag {
			l.age[i] = l.tick
			return true
		}
		if l.tags[i] == 0 {
			victim = i
			best = 0
			continue
		}
		if l.age[i] < best {
			best = l.age[i]
			victim = i
		}
	}
	l.tags[victim] = tag
	l.age[victim] = l.tick
	return false
}

// HierarchyStats counts hits per level.
type HierarchyStats struct {
	L1Hits, L2Hits, L3Hits, MemAccesses uint64
}

// Sub returns s - base counter-wise.
func (s HierarchyStats) Sub(base HierarchyStats) HierarchyStats {
	return HierarchyStats{
		L1Hits:      s.L1Hits - base.L1Hits,
		L2Hits:      s.L2Hits - base.L2Hits,
		L3Hits:      s.L3Hits - base.L3Hits,
		MemAccesses: s.MemAccesses - base.MemAccesses,
	}
}

// Add returns s + o counter-wise, for aggregating region-split devices.
func (s HierarchyStats) Add(o HierarchyStats) HierarchyStats {
	return HierarchyStats{
		L1Hits:      s.L1Hits + o.L1Hits,
		L2Hits:      s.L2Hits + o.L2Hits,
		L3Hits:      s.L3Hits + o.L3Hits,
		MemAccesses: s.MemAccesses + o.MemAccesses,
	}
}

// Hierarchy is the three-level cache model.
type Hierarchy struct {
	l1    *L1
	l2    *level
	l3    *level
	stats HierarchyStats
}

// NewHierarchy returns an empty cache stack.
func NewHierarchy() *Hierarchy {
	return &Hierarchy{l1: NewL1(), l2: newLevel(L2SizeBytes, L2Ways), l3: newLevel(L3SizeBytes, L3Ways)}
}

// Access touches the line and returns the level that served it, filling
// all nearer levels.
func (h *Hierarchy) Access(line uint64, write bool) Where {
	if h.l1.Access(line, write) {
		h.stats.L1Hits++
		return InL1
	}
	if h.l2.access(line) {
		h.stats.L2Hits++
		return InL2
	}
	if h.l3.access(line) {
		h.stats.L3Hits++
		return InL3
	}
	h.stats.MemAccesses++
	return InMem
}

// L1Stats returns the L1D hit/miss counters (the Fig. 11 metric).
func (h *Hierarchy) L1Stats() Stats { return h.l1.Stats() }

// Stats returns per-level counters.
func (h *Hierarchy) Stats() HierarchyStats { return h.stats }
