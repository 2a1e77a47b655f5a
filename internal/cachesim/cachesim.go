// Package cachesim models the L1 data cache of the paper's test machine
// (Table 1: 32 KB, 64 B lines; Cascade Lake L1D is 8-way set associative).
// It exists to regenerate Fig. 11 (L1D miss ratios) and to give pointer-
// chasing functional datastructures their cache-pressure cost (§6.5).
//
// The model is a write-allocate, LRU, physically-indexed cache over line
// indices. It tracks hits and misses; replacement writebacks are not
// modeled separately because the paper's flushing costs are charged
// explicitly via clwb/sfence.
package cachesim

// Geometry of the modeled L1D.
const (
	SizeBytes = 32 << 10
	LineSize  = 64
	Ways      = 8
	Sets      = SizeBytes / LineSize / Ways
)

// Stats counts cache accesses.
type Stats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRatio returns misses / accesses, or 0 for an idle cache.
func (s Stats) MissRatio() float64 {
	if t := s.Accesses(); t > 0 {
		return float64(s.Misses) / float64(t)
	}
	return 0
}

// Sub returns s - base, counter-wise.
func (s Stats) Sub(base Stats) Stats {
	return Stats{Hits: s.Hits - base.Hits, Misses: s.Misses - base.Misses}
}

// Add returns s + o, counter-wise, for aggregating region-split devices.
func (s Stats) Add(o Stats) Stats {
	return Stats{Hits: s.Hits + o.Hits, Misses: s.Misses + o.Misses}
}

// L1 is a set-associative cache over 64-byte line indices.
type L1 struct {
	tags  [Sets][Ways]uint64 // line index + 1; 0 = invalid
	age   [Sets][Ways]uint64 // larger = more recently used
	tick  uint64
	stats Stats
}

// NewL1 returns an empty cache.
func NewL1() *L1 { return &L1{} }

// Access touches the given line and reports whether it hit. A miss fills
// the line, evicting the LRU way of its set. The write flag only affects
// accounting semantics for callers; the fill policy is write-allocate
// either way.
func (c *L1) Access(line uint64, write bool) bool {
	set := line % Sets
	tag := line + 1
	c.tick++
	ways := &c.tags[set]
	ages := &c.age[set]
	for w := 0; w < Ways; w++ {
		if ways[w] == tag {
			ages[w] = c.tick
			c.stats.Hits++
			return true
		}
	}
	// Miss: replace LRU (or first invalid) way.
	victim := 0
	best := ages[0]
	for w := 0; w < Ways; w++ {
		if ways[w] == 0 {
			victim = w
			break
		}
		if ages[w] < best {
			best = ages[w]
			victim = w
		}
	}
	ways[victim] = tag
	ages[victim] = c.tick
	c.stats.Misses++
	return false
}

// Contains reports whether the line is currently cached, without updating
// LRU state or stats.
func (c *L1) Contains(line uint64) bool {
	set := line % Sets
	tag := line + 1
	for w := 0; w < Ways; w++ {
		if c.tags[set][w] == tag {
			return true
		}
	}
	return false
}

// Stats returns the access counters.
func (c *L1) Stats() Stats { return c.stats }

// Reset clears contents and counters.
func (c *L1) Reset() { *c = L1{} }
