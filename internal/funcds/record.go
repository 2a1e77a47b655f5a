package funcds

import (
	"encoding/binary"
	"fmt"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/pmem"
)

// Selective persistence (DESIGN.md §10, after "Don't Persist All"):
// a selective structure keeps its navigation nodes volatile-clean — block
// headers durable, payloads unflushed — and persists only a minimal core:
//
//   - the structure header itself (always fully flushed), extended with
//     [ckptHdr u64][recHead u64][recCount u64] after the base fields (a
//     map's or a vector's one base field names its root, volatile like the
//     rest of its trie);
//   - leaf payloads (a map's binding blocks), which record cells reference;
//   - a cons-list of fixed-size operation records, newest first, that
//     logically replays every update since the last checkpoint.
//
// ckptHdr points at a checkpoint clone: a durable plain version — a
// map's or a vector's root itself, a normal-tagged copy of a stack's or a
// queue's header — whose entire subtree is durable and sealed. The
// base fields are navigation words (alloc.Heap.RegisterNavigation):
// recovery and verification follow only the checkpoint and the record
// chain, so recovered state is rebuilt by replaying the chain (oldest
// first) onto the checkpoint and never depends on a navigation node. Once
// the chain reaches the store's checkpoint interval, the commit path
// seals the live volatile crown into a fresh checkpoint and resets the
// chain (PrepareCheckpoint), all ordered by the commit's one fence.

// selExtSize is the selective header extension appended after a
// structure's base fields: [ckptHdr u64][recHead u64][recCount u64].
// selRootBase is the base field of a selective map's or vector's header:
// its live root.
const (
	selExtSize  = 24
	selRootBase = 8
)

// Record cell layout (TagRecord, durable): [prev u64][kind u64][a u64][b u64].
const (
	recordSize = 32
	recOffPrev = 0
	recOffKind = 8
	recOffA    = 16
	recOffB    = 24
)

// Record kinds. Operand a of the map kinds is a binding block (the record
// cell holds a reference on it), and b is zero; the other kinds' operands
// are raw values.
const (
	RecMapSet    uint64 = 1 + iota // a=the binding the set installed
	RecMapDelete                   // a=the binding the delete removed
	RecVecPush                     // a=value
	RecVecUpdate                   // a=index, b=value
	RecStackPush                   // a=value
	RecStackPop                    // (no operands)
	RecQueuePush                   // a=value
	RecQueuePop                    // (no operands)

	recKindMax = RecQueuePop
)

// EncodeRecord renders a record cell's payload bytes.
func EncodeRecord(prev pmem.Addr, kind, a, b uint64) []byte {
	buf := make([]byte, recordSize)
	putRecord(buf, prev, kind, a, b)
	return buf
}

func putRecord(buf []byte, prev pmem.Addr, kind, a, b uint64) {
	binary.LittleEndian.PutUint64(buf[recOffPrev:], uint64(prev))
	binary.LittleEndian.PutUint64(buf[recOffKind:], kind)
	binary.LittleEndian.PutUint64(buf[recOffA:], a)
	binary.LittleEndian.PutUint64(buf[recOffB:], b)
}

// DecodeRecord parses a record cell's payload, validating the kind and the
// kind-specific operand shape. It is the recovery-replay decoder and a
// fuzz target (FuzzRecoveryRecord).
func DecodeRecord(buf []byte) (prev pmem.Addr, kind, a, b uint64, err error) {
	if len(buf) < recordSize {
		return 0, 0, 0, 0, fmt.Errorf("funcds: record cell truncated: %d bytes", len(buf))
	}
	prev = pmem.Addr(binary.LittleEndian.Uint64(buf[recOffPrev:]))
	kind = binary.LittleEndian.Uint64(buf[recOffKind:])
	a = binary.LittleEndian.Uint64(buf[recOffA:])
	b = binary.LittleEndian.Uint64(buf[recOffB:])
	if kind == 0 || kind > recKindMax {
		return 0, 0, 0, 0, fmt.Errorf("funcds: record kind %d out of range", kind)
	}
	switch kind {
	case RecMapSet, RecMapDelete:
		if a == uint64(pmem.Nil) || b != 0 {
			return 0, 0, 0, 0, fmt.Errorf("funcds: map record operands %#x/%#x, want a binding and zero", a, b)
		}
	case RecStackPop, RecQueuePop:
		if a != 0 || b != 0 {
			return 0, 0, 0, 0, fmt.Errorf("funcds: pop record carries operands")
		}
	}
	return prev, kind, a, b, nil
}

// newRecord allocates, links, and flushes one durable record cell. The
// cell takes its own references: prev, and the binding of the map kinds. The caller owns the returned cell's initial reference (normally
// transferred into the header's recHead field).
func newRecord(h *alloc.Heap, ed *alloc.Edit, prev pmem.Addr, kind, a, b uint64) pmem.Addr {
	r := nodeAlloc(h, ed, recordSize, TagRecord, false)
	buf := ed.Scratch().Bytes(recordSize)
	putRecord(buf, prev, kind, a, b)
	h.Device().Write(r, buf)
	flushNode(h, ed, r, recordSize, false)
	if prev != pmem.Nil {
		h.Retain(prev)
	}
	if kind == RecMapSet || kind == RecMapDelete {
		h.Retain(pmem.Addr(a))
	}
	return r
}

// readRecord loads a record cell, panicking on corruption (durable cells
// are validated by DecodeRecord during recovery instead).
func readRecord(h *alloc.Heap, r pmem.Addr) (prev pmem.Addr, kind, a, b uint64) {
	buf := make([]byte, recordSize)
	h.Device().Read(r, buf)
	prev, kind, a, b, err := DecodeRecord(buf)
	if err != nil {
		panic(err)
	}
	return prev, kind, a, b
}

func walkRecord(h *alloc.Heap, r pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	dev := h.Device()
	if prev := pmem.Addr(dev.ReadU64(r + recOffPrev)); prev != pmem.Nil {
		visit(prev)
	}
	if kind := dev.ReadU64(r + recOffKind); kind == RecMapSet || kind == RecMapDelete {
		visit(pmem.Addr(dev.ReadU64(r + recOffA)))
	}
}

// IsSelective reports whether the header at hdr is a selectively
// persisted structure.
func IsSelective(h *alloc.Heap, hdr pmem.Addr) bool {
	return hdr != pmem.Nil && layout[h.Tag(hdr)].base != 0
}

// SelectiveExt returns the checkpoint clone, record chain head, and
// pending record count of the selective header at hdr (Nil, Nil, 0 when
// hdr is not a selective structure). Fault-injection harnesses use it to
// aim damage at the chain a salvage must survive.
func SelectiveExt(h *alloc.Heap, hdr pmem.Addr) (ckpt, recHead pmem.Addr, recCount uint64) {
	if hdr == pmem.Nil {
		return pmem.Nil, pmem.Nil, 0
	}
	base := layout[h.Tag(hdr)].base
	if base == 0 {
		return pmem.Nil, pmem.Nil, 0
	}
	return readSelExt(h, hdr, base)
}

// readSelExt reads the selective extension of the header at hdr.
func readSelExt(h *alloc.Heap, hdr pmem.Addr, base int) (ckpt, recHead pmem.Addr, recCount uint64) {
	dev := h.Device()
	a := hdr + pmem.Addr(base)
	return pmem.Addr(dev.ReadU64(a)), pmem.Addr(dev.ReadU64(a + 8)), dev.ReadU64(a + 16)
}

// writeSelExt writes the selective extension (flushing is the caller's
// concern: flushNode/recordEdit on the whole header, or an explicit
// FlushRange on the ext region).
func writeSelExt(h *alloc.Heap, hdr pmem.Addr, base int, ckpt, recHead pmem.Addr, recCount uint64) {
	dev := h.Device()
	a := hdr + pmem.Addr(base)
	dev.WriteU64(a, uint64(ckpt))
	dev.WriteU64(a+8, uint64(recHead))
	dev.WriteU64(a+16, recCount)
}

// walkSelExt visits what recovery follows from a selective header: the
// checkpoint clone and the record chain head. The base layout's live
// pointers are its navigation words, registered apart.
func walkSelExt(base int) alloc.Walker {
	return func(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
		ckpt, recHead, _ := readSelExt(h, a, base)
		if ckpt != pmem.Nil {
			visit(ckpt)
		}
		if recHead != pmem.Nil {
			visit(recHead)
		}
	}
}

// walkSelRoot visits a selective map's or vector's base field, its live
// root.
func walkSelRoot(h *alloc.Heap, a pmem.Addr, _ *alloc.Scratch, visit func(pmem.Addr)) {
	if root := pmem.Addr(h.Device().ReadU64(a)); root != pmem.Nil {
		visit(root)
	}
}

// setSelRoot produces a selective header of tag — a map's or a vector's —
// naming newRoot, with rec installed at the head of its record chain: an
// in-place rewrite when hdr is edit-owned (releasing its references to a
// displaced old root and to the old chain head, which rec now holds), a
// fresh header otherwise, which becomes a second parent of the checkpoint
// and, when the update went in place below it, of the root. The
// references on newRoot and rec transfer in; it returns the header.
func setSelRoot(h *alloc.Heap, ed *alloc.Edit, hdr pmem.Addr, tag uint8, newRoot, oldRoot, rec pmem.Addr) pmem.Addr {
	dev := h.Device()
	ckpt, oldRec, recCount := readSelExt(h, hdr, selRootBase)
	if ed.Owns(hdr) {
		dev.WriteU64(hdr, uint64(newRoot))
		writeSelExt(h, hdr, selRootBase, ckpt, rec, recCount+1)
		recordEdit(ed, hdr, selRootBase+selExtSize, false)
		if oldRec != pmem.Nil {
			h.Release(oldRec)
		}
		if newRoot != oldRoot {
			h.Release(oldRoot)
		}
		return hdr
	}
	if newRoot == oldRoot {
		h.Retain(newRoot)
	}
	a := nodeAlloc(h, ed, selRootBase+selExtSize, tag, false)
	dev.WriteU64(a, uint64(newRoot))
	writeSelExt(h, a, selRootBase, ckpt, rec, recCount+1)
	flushNode(h, ed, a, selRootBase+selExtSize, false)
	h.Retain(ckpt)
	return a
}

// Crown lists the navigation nodes of the selective structure at hdr
// that no fold has sealed (alloc.Heap.IsVolatile, a DRAM mark), children
// before parents: what its next fold seals, in that order. Descent prunes
// at sealed nodes: a mark clears only after the node's seal, which comes
// after its subtree's, so a concurrent fold's fence orders every flush
// below a cleared mark (DESIGN.md §10). The descent follows the layout
// table's walkers from the header's navigation words, and a binding is
// never volatile, so it prunes there too.
func Crown(h *alloc.Heap, hdr pmem.Addr) []pmem.Addr {
	nav := layout[h.Tag(hdr)].nav
	if nav == nil {
		return nil
	}
	var out []pmem.Addr
	var sc alloc.Scratch
	seen := make(map[pmem.Addr]struct{})
	var rec func(a pmem.Addr)
	rec = func(a pmem.Addr) {
		if _, ok := seen[a]; ok || !h.IsVolatile(a) {
			return
		}
		seen[a] = struct{}{}
		if walk := layout[h.Tag(a)].walk; walk != nil {
			// A walker reads through sc, which the descent reuses: take
			// the children before descending.
			var kids []pmem.Addr
			walk(h, a, &sc, func(c pmem.Addr) { kids = append(kids, c) })
			for _, c := range kids {
				rec(c)
			}
		}
		out = append(out, a)
	}
	nav(h, hdr, &sc, rec)
	return out
}

// NeedsCheckpoint reports whether the selective structure at hdr has
// accumulated every records — the interval of the store committing it —
// and must checkpoint at this commit. Plain structures never do.
func NeedsCheckpoint(h *alloc.Heap, hdr pmem.Addr, every uint64) bool {
	base := layout[h.Tag(hdr)].base
	if base == 0 {
		return false
	}
	_, _, recCount := readSelExt(h, hdr, base)
	return recCount >= every
}

// PrepareCheckpoint runs the in-FASE half of a checkpoint on the final
// shadow header of the committing FASE (which therefore was allocated
// within it): it seals every crown node, children first (checksum
// stamped, header and payload flushed, volatile mark cleared), snapshots
// the live state into a fresh durable checkpoint clone, and resets the
// record chain. The commit's one fence, which every caller issues before
// its root swap, makes all of it durable together: until that swap lands,
// recovery rebuilds from the previous checkpoint and chain and sweeps the
// sealed crown with every other navigation node.
func PrepareCheckpoint(h *alloc.Heap, hdr pmem.Addr) {
	row := layout[h.Tag(hdr)]
	base := row.base
	if base == 0 {
		return
	}
	dev := h.Device()
	for _, a := range Crown(h, hdr) {
		h.SealNode(a, h.PayloadSize(a))
	}

	// The checkpoint is the live state as a durable plain version: a map's
	// or a vector's is its root itself, now sealed, which gains a
	// reference; a stack's or a queue's is a copy of its header's base
	// fields under the normal tag, which gains a reference on everything it
	// names. Either way every navigation node live now is in the
	// checkpoint's subtree.
	var clone pmem.Addr
	if row.plain == 0 {
		clone = pmem.Addr(dev.ReadU64(hdr))
		h.Retain(clone)
	} else {
		clone = h.AllocNode(base, row.plain)
		buf := make([]byte, base)
		dev.Read(hdr, buf)
		dev.Write(clone, buf)
		h.SealNode(clone, base)
		row.nav(h, hdr, new(alloc.Scratch), h.Retain)
	}

	oldCkpt, oldRec, _ := readSelExt(h, hdr, base)
	writeSelExt(h, hdr, base, clone, pmem.Nil, 0)
	dev.FlushRange(hdr+pmem.Addr(base), selExtSize)
	// The ext rewrite changed sealed payload bytes: recompute the header's
	// checksum. Before the owning edit seals this is a no-op (the word is
	// still zero, and Seal will stamp the final bytes); after it, the
	// reseal keeps the published header verifiable.
	h.ResealNode(hdr)
	if oldCkpt != pmem.Nil {
		h.Release(oldCkpt)
	}
	if oldRec != pmem.Nil {
		h.Release(oldRec)
	}
}

// RebuildSelective reconstructs the selective structure at hdr after
// recovery, which swept every navigation node no checkpoint names: it
// replays the record chain (oldest first) onto the checkpoint clone and
// returns a fresh selective header whose checkpoint is the replayed state.
// The caller publishes the new header (root swap + fence), then drops the
// old one's navigation (DropNavigation) and releases it. replayed is the
// number of records applied.
func RebuildSelective(h *alloc.Heap, hdr pmem.Addr) (newHdr pmem.Addr, replayed int, err error) {
	tag := h.Tag(hdr)
	base := layout[tag].base
	if base == 0 {
		return hdr, 0, fmt.Errorf("funcds: rebuild of non-selective header %#x (tag %d)", uint64(hdr), tag)
	}
	ckpt, recHead, recCount := readSelExt(h, hdr, base)
	if ckpt == pmem.Nil {
		return hdr, 0, fmt.Errorf("funcds: selective header %#x has no checkpoint", uint64(hdr))
	}

	// Collect the chain newest-first and reverse into replay order. A
	// mismatched length means a corrupt chain: the store must not open.
	chain := make([]pmem.Addr, 0, recCount)
	for r := recHead; r != pmem.Nil; {
		chain = append(chain, r)
		prev, _, _, _ := readRecord(h, r)
		r = prev
	}
	if uint64(len(chain)) != recCount {
		return hdr, 0, fmt.Errorf("funcds: record chain of %#x has %d cells, header says %d", uint64(hdr), len(chain), recCount)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}

	ed := h.BeginEdit()
	var final pmem.Addr
	switch tag {
	case TagMapHdrSel:
		m := MapAt(h, ckpt).WithEdit(ed)
		for _, r := range chain {
			_, kind, a, _ := readRecord(h, r)
			// A nil scratch reads the key into a slice of its own.
			key, _ := pairAt(h, nil, pmem.Addr(a))
			switch kind {
			case RecMapSet:
				// The replayed trie shares the record's binding.
				h.Retain(pmem.Addr(a))
				m, _ = m.setPair(key, nil, pmem.Addr(a))
			case RecMapDelete:
				m, _ = m.Delete(key)
			default:
				return hdr, 0, fmt.Errorf("funcds: record kind %d in map chain", kind)
			}
		}
		final = m.Addr()
	case TagVecHdrSel:
		v := VectorAt(h, ckpt).WithEdit(ed)
		for _, r := range chain {
			_, kind, a, b := readRecord(h, r)
			switch kind {
			case RecVecPush:
				v = v.Push(a)
			case RecVecUpdate:
				v = v.Update(a, b)
			default:
				return hdr, 0, fmt.Errorf("funcds: record kind %d in vector chain", kind)
			}
		}
		final = v.Addr()
	case TagStackHdrSel:
		s := StackAt(h, ckpt).WithEdit(ed)
		for _, r := range chain {
			_, kind, a, _ := readRecord(h, r)
			switch kind {
			case RecStackPush:
				s = s.Push(a)
			case RecStackPop:
				s, _, _ = s.Pop()
			default:
				return hdr, 0, fmt.Errorf("funcds: record kind %d in stack chain", kind)
			}
		}
		final = s.Addr()
	case TagQueueHdrSel:
		q := QueueAt(h, ckpt).WithEdit(ed)
		for _, r := range chain {
			_, kind, a, _ := readRecord(h, r)
			switch kind {
			case RecQueuePush:
				q = q.Push(a)
			case RecQueuePop:
				q, _, _ = q.Pop()
			default:
				return hdr, 0, fmt.Errorf("funcds: record kind %d in queue chain", kind)
			}
		}
		final = q.Addr()
	}
	ed.Seal()
	if final == ckpt {
		// No records replayed: the replayed state IS the checkpoint — it
		// gains a reference as the new header's clone.
		h.Retain(final)
	}

	// Fresh selective header over the replayed state, which doubles as its
	// checkpoint (entirely durable, empty chain).
	return selHdrOver(h, final, tag), len(chain), nil
}

// DropNavigation writes Nil into the navigation words of the selective
// header at hdr, which recovery did not follow and may have swept, so
// that releasing the header cascades only through what recovery counted.
// The header must be unreachable from every durable root: the bytes are
// neither flushed nor resealed.
func DropNavigation(h *alloc.Heap, hdr pmem.Addr) {
	h.Device().Zero(hdr, layout[h.Tag(hdr)].base)
}

// selHdrOver builds a fresh sealed selective header of the given tag
// whose base fields copy the (fully durable) structure at state — or, for
// a map or a vector, name state's root — and whose checkpoint is state itself,
// with an empty record chain. The state reference transfers in; live
// pointers gain a reference each.
func selHdrOver(h *alloc.Heap, state pmem.Addr, tag uint8) pmem.Addr {
	row := layout[tag]
	base := row.base
	hdr := h.AllocNode(base+selExtSize, tag)
	dev := h.Device()
	buf := make([]byte, base)
	if row.plain == 0 {
		binary.LittleEndian.PutUint64(buf, uint64(state))
	} else {
		dev.Read(state, buf)
	}
	dev.Write(hdr, buf)
	writeSelExt(h, hdr, base, state, pmem.Nil, 0)
	h.SealNode(hdr, base+selExtSize)
	row.nav(h, hdr, new(alloc.Scratch), h.Retain)
	return hdr
}

// chainDamage walks the record chain from recHead, verifying every cell's
// block checksum, decoded shape, and (for map kinds) binding block. It
// returns nil when the chain verifies end to end with exactly recCount
// cells, and the damage description otherwise. All reads go through
// verification-safe paths, so a poisoned line classifies as damage
// instead of panicking.
func chainDamage(h *alloc.Heap, recHead pmem.Addr, recCount uint64) error {
	var n uint64
	for r := recHead; r != pmem.Nil; {
		if n >= recCount {
			return fmt.Errorf("funcds: record chain longer than header count %d", recCount)
		}
		if err := h.VerifyBlock(r); err != nil {
			return err
		}
		buf := make([]byte, recordSize)
		h.Device().Read(r, buf)
		prev, kind, a, _, err := DecodeRecord(buf)
		if err != nil {
			return err
		}
		if kind == RecMapSet || kind == RecMapDelete {
			if err := h.VerifyBlock(pmem.Addr(a)); err != nil {
				return err
			}
		}
		n++
		r = prev
	}
	if n != recCount {
		return fmt.Errorf("funcds: record chain has %d cells, header says %d", n, recCount)
	}
	return nil
}

// SalvageSelective rebuilds the selective structure at hdr tolerating a
// damaged record chain: when every record cell (and its binding)
// verifies, it replays the chain exactly like RebuildSelective; when the
// chain is damaged, it discards all of it and rolls the structure back to
// its last checkpoint — the committed-prefix guarantee shrinks to the
// checkpoint boundary, but nothing corrupt is ever replayed. dropped
// reports how many records the rollback discarded (per the header's
// count). Either way the checkpoint's whole subtree must verify first: a
// replay copies the nodes on its paths into fresh, freshly sealed ones, so
// damage there would pass any check of the result.
func SalvageSelective(h *alloc.Heap, hdr pmem.Addr) (newHdr pmem.Addr, replayed int, dropped uint64, err error) {
	tag := h.Tag(hdr)
	base := layout[tag].base
	if base == 0 {
		return hdr, 0, 0, fmt.Errorf("funcds: salvage of non-selective header %#x (tag %d)", uint64(hdr), tag)
	}
	ckpt, recHead, recCount := readSelExt(h, hdr, base)
	if ckpt == pmem.Nil {
		return hdr, 0, 0, fmt.Errorf("funcds: selective header %#x has no checkpoint", uint64(hdr))
	}
	if err := h.VerifyTree(ckpt); err != nil {
		return hdr, 0, 0, err
	}
	if damage := chainDamage(h, recHead, recCount); damage == nil {
		newHdr, replayed, err = RebuildSelective(h, hdr)
		return newHdr, replayed, 0, err
	}
	// Damaged chain: roll back to the checkpoint. The clone keeps its
	// reference through the new header's ckpt field plus one for serving
	// as the live state.
	h.Retain(ckpt)
	return selHdrOver(h, ckpt, tag), 0, recCount, nil
}
