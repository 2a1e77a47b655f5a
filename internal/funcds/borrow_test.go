package funcds

import (
	"fmt"
	"math/bits"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// White-box tests of borrowed path copies (alloc/borrow.go) at the copy
// sites: what a copy does and does not count, node by node. The
// randomized model test lives with the allocator (alloc/borrow_test.go).

// pathOf returns the trie nodes a lookup of key visits in version m, root
// first.
func pathOf(h *alloc.Heap, m Map, key []byte) []pmem.Addr {
	var path []pmem.Addr
	hash := hash64(key)
	node := m.root()
	for shift := uint(0); node != pmem.Nil; shift += mapBits {
		path = append(path, node)
		if h.Tag(node) == TagMapCollision {
			break
		}
		var n mapNode
		readMapNode(h, nil, nil, node, nodePrefix(shift), &n)
		bit := uint32(1) << ((hash >> shift) & mapMask)
		if n.nodeMap&bit == 0 {
			break
		}
		node = n.children()[bits.OnesCount32(n.nodeMap&(bit-1))]
	}
	return path
}

// refsOf returns every reference the trie node at a holds.
func refsOf(h *alloc.Heap, a pmem.Addr) []pmem.Addr {
	var out []pmem.Addr
	w := walkMapNode
	switch h.Tag(a) {
	case TagMapRoot:
		w = walkMapRoot
	case TagMapCollision:
		w = walkMapCollision
	}
	w(h, a, nil, func(c pmem.Addr) { out = append(out, c) })
	return out
}

// TestPathCopyBorrowsSiblings: one Set of an existing key on a map three
// levels deep copies three nodes and counts none of the ~90 references
// they carry over — each unchanged sibling still has the one count its
// original parent gave it while both versions are live — and once the old
// version is released and reclaimed the new one simply owns them: one
// count each, no record left, as if it had counted them all along.
func TestPathCopyBorrowsSiblings(t *testing.T) {
	for _, bound := range []bool{false, true} {
		t.Run(fmt.Sprintf("edit=%v", bound), func(t *testing.T) {
			h := newTestHeap(t)
			cur := NewMap(h).Addr()
			const keys = 3000
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
			for i := 0; i < keys; i += benchLoad {
				ed := h.BeginEdit()
				m := MapAt(h, cur).WithEdit(ed)
				for k := i; k < min(i+benchLoad, keys); k++ {
					m, _ = m.Set(key(k), []byte("old"))
				}
				commit(h, ed, &cur, m.Addr())
			}
			h.Drain()
			old := MapAt(h, cur)
			k := key(1234)
			oldPath := pathOf(h, old, k)
			if len(oldPath) < 3 {
				t.Fatalf("key sits %d levels deep, want at least 3: load more keys", len(oldPath))
			}

			var ed *alloc.Edit
			if bound {
				ed = h.BeginEdit()
			}
			next, replaced := old.WithEdit(ed).Set(k, []byte("new"))
			if bound {
				ed.Seal()
			}
			if !replaced {
				t.Fatal("key was not present")
			}
			newPath := pathOf(h, next, k)
			if len(newPath) != len(oldPath) {
				t.Fatalf("path length changed: %d -> %d", len(oldPath), len(newPath))
			}
			if got := h.Stats().Borrows; got != len(newPath) {
				t.Errorf("%d borrow records for %d copied nodes", got, len(newPath))
			}
			siblings := 0
			for lvl := range newPath {
				if newPath[lvl] == oldPath[lvl] {
					t.Fatalf("level %d was not copied", lvl)
				}
				was := map[pmem.Addr]bool{}
				for _, c := range refsOf(h, oldPath[lvl]) {
					was[c] = true
				}
				for _, c := range refsOf(h, newPath[lvl]) {
					if was[c] {
						siblings++
					}
					// Shared or new, nothing on the path has a second count:
					// the copy holds what it shares uncounted.
					if got := h.RefCount(c); got != 1 {
						t.Errorf("level %d: reference %#x has count %d with both versions live, want 1", lvl, uint64(c), got)
					}
				}
			}
			if siblings < 40 {
				t.Fatalf("only %d references carried over on the path: not the shape this test is about", siblings)
			}

			// Commit: the old version goes, the new one owns what they shared.
			h.Fence()
			h.Release(old.Addr())
			h.Drain()
			if got := h.Stats().Borrows; got != 0 {
				t.Errorf("%d borrow records after the old version was reclaimed", got)
			}
			for lvl, a := range oldPath {
				if h.RefCount(a) != 0 {
					t.Errorf("level %d: superseded node %#x still has count %d", lvl, uint64(a), h.RefCount(a))
				}
			}
			for lvl, a := range newPath {
				for _, c := range refsOf(h, a) {
					if got := h.RefCount(c); got != 1 {
						t.Errorf("level %d: reference %#x has count %d after the commit, want 1", lvl, uint64(c), got)
					}
				}
			}
			if v, ok := next.Get(k); !ok || string(v) != "new" {
				t.Errorf("key reads %q, %v after the commit", v, ok)
			}
			if v, ok := next.Get(key(77)); !ok || string(v) != "old" {
				t.Errorf("an untouched key reads %q, %v after the commit", v, ok)
			}
		})
	}
}

// TestVectorCopyBorrowsSiblings is the same observation on a vector
// update, and on the vec-swap shape — two chained updates whose middle
// version is released first, so its nodes die while both borrowing and
// lent and the final version has to count what it shares after all.
func TestVectorCopyBorrowsSiblings(t *testing.T) {
	h := newTestHeap(t)
	cur := NewVector(h).Addr()
	n := 3 * vecSpan[2] // a root of height 3 over three full subtrees
	for i := 0; i < int(n); i += benchLoad {
		ed := h.BeginEdit()
		v := VectorAt(h, cur).WithEdit(ed)
		for k := 0; k < min(benchLoad, int(n)-i); k++ {
			v = v.Push(uint64(i + k))
		}
		commit(h, ed, &cur, v.Addr())
	}
	h.Drain()
	base := VectorAt(h, cur)
	var root vecRoot
	readRoot(h, nil, nil, base.Addr(), &root)
	rootKids := root.kids()
	if root.height != 3 {
		t.Fatalf("a %d-element vector has height %d, want 3", n, root.height)
	}

	s1 := base.Update(5, 55)
	if got := h.Stats().Borrows; got != int(root.height) {
		t.Fatalf("%d borrow records after one update, want %d: the root and one node per interior level", got, root.height)
	}
	for i, c := range rootKids[1:] {
		if c != pmem.Nil && h.RefCount(c) != 1 {
			t.Errorf("root child %d has count %d with two versions live, want 1", i+1, h.RefCount(c))
		}
	}
	settled := h.Stats().Settled
	other := 2*vecSpan[2] + 5 // the root's last subtree: only the root is copied twice
	s2 := s1.Update(other, 77)
	h.Fence()
	h.Release(s1.Addr()) // the middle version first
	if got := h.Stats().Settled - settled; got != 1 {
		t.Errorf("releasing the middle of a chain settled %d copies, want the root's", got)
	}
	h.Release(base.Addr())
	h.Drain()
	if got := h.Stats().Borrows; got != 0 {
		t.Errorf("%d borrow records after both older versions were reclaimed", got)
	}
	readRoot(h, nil, nil, s2.Addr(), &root)
	for i, c := range root.kids() {
		if c != pmem.Nil && h.RefCount(c) != 1 {
			t.Errorf("root child %d has count %d once only the last version is left, want 1", i, h.RefCount(c))
		}
	}
	if s2.Get(5) != 55 || s2.Get(other) != 77 || s2.Get(6) != 6 {
		t.Errorf("vector reads %d, %d, %d", s2.Get(5), s2.Get(other), s2.Get(6))
	}
}
