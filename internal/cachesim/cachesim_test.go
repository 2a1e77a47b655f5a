package cachesim

import "testing"

func TestColdMissThenHit(t *testing.T) {
	c := NewL1()
	if c.Access(5, false) {
		t.Fatal("first access must miss")
	}
	if !c.Access(5, true) {
		t.Fatal("second access must hit")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestSetConflictEvictsLRU(t *testing.T) {
	c := NewL1()
	// Fill one set with Ways conflicting lines (stride = Sets lines).
	for w := 0; w < Ways; w++ {
		c.Access(uint64(w)*Sets, false)
	}
	// Touch line 0 so it is the MRU way.
	c.Access(0, false)
	// Insert one more conflicting line: should evict the LRU (line Sets).
	c.Access(uint64(Ways)*Sets, false)
	if !c.Contains(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(Sets) {
		t.Fatal("LRU line not evicted")
	}
}

func TestDistinctSetsDoNotConflict(t *testing.T) {
	c := NewL1()
	for ln := uint64(0); ln < Sets; ln++ {
		c.Access(ln, false)
	}
	for ln := uint64(0); ln < Sets; ln++ {
		if !c.Contains(ln) {
			t.Fatalf("line %d evicted without set pressure", ln)
		}
	}
}

func TestMissRatio(t *testing.T) {
	c := NewL1()
	for i := 0; i < 10; i++ {
		c.Access(1, false)
	}
	got := c.Stats().MissRatio()
	if got != 0.1 {
		t.Fatalf("MissRatio = %v, want 0.1", got)
	}
	if (Stats{}).MissRatio() != 0 {
		t.Fatal("empty stats must have zero miss ratio")
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := NewL1()
	lines := uint64(2 * SizeBytes / LineSize)
	for pass := 0; pass < 2; pass++ {
		for ln := uint64(0); ln < lines; ln++ {
			c.Access(ln, false)
		}
	}
	if r := c.Stats().MissRatio(); r < 0.9 {
		t.Fatalf("sequential thrash miss ratio = %v, want ≈1", r)
	}
}

func TestReset(t *testing.T) {
	c := NewL1()
	c.Access(1, true)
	c.Reset()
	if c.Stats().Accesses() != 0 || c.Contains(1) {
		t.Fatal("Reset must clear contents and stats")
	}
}

func TestStatsSub(t *testing.T) {
	c := NewL1()
	c.Access(1, false)
	base := c.Stats()
	c.Access(1, false)
	c.Access(2, false)
	d := c.Stats().Sub(base)
	if d.Hits != 1 || d.Misses != 1 {
		t.Fatalf("delta = %+v", d)
	}
}

// LRU ages must keep ordering ways correctly when the access counter
// passes 2^32 — minutes of simulated traffic. A counter that wraps there
// makes the most recently used lines look oldest, and every set then
// evicts its hottest way.
func TestLRUSurvivesTickPassing32Bits(t *testing.T) {
	const nearWrap = 1<<32 - 4

	c := NewL1()
	c.tick = nearWrap
	for w := 0; w < Ways; w++ { // fills one set; the counter passes 2^32 on the way
		c.Access(uint64(w)*Sets, false)
	}
	c.Access(0, false)                 // line 0 is now the most recently used
	c.Access(uint64(Ways)*Sets, false) // one more conflicting line: evicts the LRU
	if !c.Contains(0) {
		t.Error("L1 evicted its most recently used line after the counter passed 2^32")
	}
	if c.Contains(Sets) {
		t.Error("L1 kept its least recently used line after the counter passed 2^32")
	}

	l := newLevel(L2SizeBytes, L2Ways)
	l.tick = nearWrap
	stride := uint64(l.sets)
	for w := 0; w < l.ways; w++ {
		l.access(uint64(w) * stride)
	}
	l.access(0)
	l.access(uint64(l.ways) * stride) // evicts the LRU way, which must be line `stride`
	if !l.access(0) {
		t.Error("level evicted its most recently used line after the counter passed 2^32")
	}
	if l.access(stride) {
		t.Error("level kept its least recently used line after the counter passed 2^32")
	}
}
