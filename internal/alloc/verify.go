package alloc

import (
	"fmt"

	"github.com/mod-ds/mod/internal/pmem"
)

// Verification (DESIGN.md §13). Power-loss recovery trusts the durable
// image: every fence-covered byte is assumed to read back as written.
// Media faults break that assumption, so this file adds the two read-back
// checks the corruption-resilient open builds on:
//
//   - VerifyRoot walks one root's reachable nodes eagerly, checking every
//     node's header and checksum BEFORE descending through its pointers —
//     a corrupt node's garbage children are never dereferenced, so damage
//     is contained to an accurate report instead of a wild read.
//   - ArmLazyVerify taints every checksummed block after recovery;
//     VerifyOnRead then checks a tainted block the first time a
//     structure read touches it, and raises a typed CorruptionPanic that
//     the serving layer converts to an error reply.
//
// Both paths read through the raw arena view (pmem.Device.Bytes): the
// checks model scrub machinery reading around the poisoned-line ECC, so
// they classify dead lines via RangeDead instead of crashing on them.

// DataBounds returns the heap's block area [lo, hi): the first header
// address above the superblock and root directory, and the current bump
// top. This is exactly the range node checksums protect; fault-injection
// sweeps target it.
func (h *Heap) DataBounds() (lo, hi pmem.Addr) { return heapBase, h.sh.top }

// BlockError describes one damaged block found by verification.
type BlockError struct {
	Addr   pmem.Addr // payload address of the damaged block
	Tag    uint8     // block tag as read (possibly itself damaged)
	Reason string
}

func (e *BlockError) Error() string {
	return fmt.Sprintf("alloc: corrupt block %#x (tag %d): %s", uint64(e.Addr), e.Tag, e.Reason)
}

// CorruptionPanic is the typed panic value raised by a lazy on-read
// verification failure deep inside a structure read path that has no
// error return. The serving layer recovers it and answers with a
// corruption error instead of crashing.
type CorruptionPanic struct {
	Block BlockError
}

func (p *CorruptionPanic) Error() string { return p.Block.Error() }

// verifyNode checks the block at payload without descending: bounds, a
// readable and well-formed header, and — when the checksum word is
// present — a matching CRC over the covered payload. It returns the
// parsed tag for the caller's walk.
func (h *Heap) verifyNode(payload pmem.Addr) (tag uint8, err *BlockError) {
	defer h.dev.BeginRecovery()()
	hdr := payload - headerSize
	if payload < heapBase+headerSize || hdr >= h.sh.top {
		return 0, &BlockError{Addr: payload, Reason: "pointer outside heap"}
	}
	if line, dead := h.dev.RangeDead(hdr, headerSize); dead {
		return 0, &BlockError{Addr: payload, Reason: fmt.Sprintf("unreadable header line %#x", uint64(line))}
	}
	raw := h.dev.Bytes(hdr, headerSize)
	w0 := leU64(raw[:8])
	stride, tag, allocated, ok := unpackHeader(w0)
	switch {
	case !ok:
		return 0, &BlockError{Addr: payload, Reason: fmt.Sprintf("bad header word %#x", w0)}
	case !allocated:
		return 0, &BlockError{Addr: payload, Tag: tag, Reason: "pointer into free block"}
	case stride < headerSize+8 || hdr+pmem.Addr(stride) > h.sh.top:
		return 0, &BlockError{Addr: payload, Tag: tag, Reason: fmt.Sprintf("implausible stride %d", stride)}
	}
	n, crc, has := unpackCheck(leU64(raw[8:]))
	if !has {
		// No checksum (a legacy allocation, or a navigation node no fold
		// has sealed): the header parse above is the only structural check
		// available.
		return tag, nil
	}
	if n < 0 || n > int(stride)-headerSize {
		return 0, &BlockError{Addr: payload, Tag: tag, Reason: fmt.Sprintf("checksum covers %d bytes of a %d-byte block", n, stride)}
	}
	if line, dead := h.dev.RangeDead(hdr, headerSize+n); dead {
		return 0, &BlockError{Addr: payload, Tag: tag, Reason: fmt.Sprintf("unreadable line %#x", uint64(line))}
	}
	if got := h.nodeCRC(hdr, n); got != crc {
		return 0, &BlockError{Addr: payload, Tag: tag, Reason: fmt.Sprintf("checksum mismatch (stored %#x, computed %#x)", crc, got)}
	}
	return tag, nil
}

// VerifyBlock checks the single block at payload — bounds, readable
// well-formed header, checksum when present — without descending through
// its pointers. It never panics: poisoned lines classify as errors.
func (h *Heap) VerifyBlock(payload pmem.Addr) error {
	if _, berr := h.verifyNode(payload); berr != nil {
		return berr
	}
	return nil
}

func leU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// VerifyRoot eagerly verifies every durable node reachable from the root
// in slot, verify-before-descend. It returns nil for an empty or fully
// healthy root and a *BlockError (wrapped walker panics included) for a
// damaged one. Dead lines under the root cell itself are reported too.
func (h *Heap) VerifyRoot(slot int) (err error) {
	if line, dead := h.dev.RangeDead(rootEntryAddr(slot), rootEntrySize); dead {
		return &BlockError{Addr: rootEntryAddr(slot), Reason: fmt.Sprintf("unreadable root cell line %#x", uint64(line))}
	}
	endScan := h.dev.BeginRecovery()
	root := cellAddr(leU64(h.dev.Bytes(h.RootCellAddr(slot), 8)))
	endScan()
	return h.VerifyTree(root)
}

// VerifyTree eagerly verifies every node reachable from root as VerifyRoot
// does, for a version no root cell names: a selective structure's
// checkpoint, which salvage must trust before it replays or rolls back
// onto it. Nil is an empty, healthy tree.
func (h *Heap) VerifyTree(root pmem.Addr) (err error) {
	if root == pmem.Nil {
		return nil
	}
	// Walkers read through the normal device path; a media fault or torn
	// header there panics, which this wrapper converts into the same
	// error shape as a direct check failure.
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case *pmem.MediaError:
				err = &BlockError{Addr: v.Addr, Reason: "media error during walk"}
			case *CorruptionPanic:
				err = &v.Block
			default:
				err = &BlockError{Addr: root, Reason: fmt.Sprintf("walk failed: %v", r)}
			}
		}
	}()
	visited := make(map[pmem.Addr]struct{})
	stack := []pmem.Addr{root}
	var sc Scratch
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := visited[a]; seen {
			continue
		}
		visited[a] = struct{}{}
		tag, berr := h.verifyNode(a)
		if berr != nil {
			return berr
		}
		// Tags without a registered walker are opaque leaf blocks (raw
		// blobs, the store's anchor records): recovery's mark pass treats
		// them the same way. verifyNode above already checked their
		// header and checksum; there is nothing to descend into. Nor is
		// there through navigation words, which recovery never follows.
		w := h.sh.walkers[tag]
		if w == nil {
			continue
		}
		w(h, a, &sc, func(child pmem.Addr) {
			if child != pmem.Nil {
				stack = append(stack, child)
			}
		})
	}
	return nil
}

// VerifyRoots verifies every claimed root slot and returns the damaged
// ones as slot -> error (empty map: fully healthy heap).
func (h *Heap) VerifyRoots() map[int]error {
	damaged := make(map[int]error)
	endScan := h.dev.BeginRecovery()
	defer endScan()
	for slot := 0; slot < RootSlots; slot++ {
		if leU64(h.dev.Bytes(rootEntryAddr(slot), 8)) == 0 {
			continue
		}
		if err := h.VerifyRoot(slot); err != nil {
			damaged[slot] = err
		}
	}
	return damaged
}

// ArmLazyVerify taints every checksummed live block in the heap so the
// first post-recovery read of each one re-verifies it (VerifyOnRead).
// The scan is a linear chain walk — no pointer chasing, so it is safe to
// run on a heap that was recovered without eager verification. Call once
// after Recover, before the heap serves reads.
func (h *Heap) ArmLazyVerify() {
	defer h.dev.BeginRecovery()()
	sh := h.sh
	var tainted int64
	addr := pmem.Addr(heapBase)
	for addr+headerSize <= sh.top {
		raw := h.dev.Bytes(addr, headerSize)
		stride, _, allocated, ok := unpackHeader(leU64(raw[:8]))
		if !ok || stride < headerSize+8 || addr+pmem.Addr(stride) > sh.top {
			break // recovery already normalized the chain; stop at damage
		}
		if allocated && leU64(raw[8:])&hdrHasCRC != 0 {
			if s := sh.blocks.tracked(addr + headerSize); s != nil && s.Load()&slotTaint == 0 {
				s.Add(slotTaint)
				tainted++
			}
		}
		addr += pmem.Addr(stride)
	}
	sh.taintCount.Add(tainted)
}

// VerifyRef is VerifyOnRead for an address decoded from a node's bytes —
// a 4-byte reference (funcds) — rather than handed out by the heap: it
// first requires that a block start there. A damaged node that carries no
// checksum (an eager Alloc, or a navigation node no fold has sealed yet,
// DESIGN.md §10) can decode to any 8-aligned address; reading through one that is outside the heap or
// inside another block would serve that memory as a key or a length, so
// it raises the same typed panic a checksum mismatch does. The lookup is
// the block table's arithmetic (table.go), no device access.
func (h *Heap) VerifyRef(payload pmem.Addr) {
	h.CheckRef(payload)
	h.VerifyOnRead(payload)
}

// CheckRef is the first half of VerifyRef alone — a block starts at
// payload, or the typed panic — for a reference that is carried into a
// path copy without being read through.
func (h *Heap) CheckRef(payload pmem.Addr) {
	if h.sh.blocks.tracked(payload) == nil {
		panic(nonBlockRef(payload))
	}
}

func nonBlockRef(payload pmem.Addr) *CorruptionPanic {
	return &CorruptionPanic{Block: BlockError{Addr: payload, Reason: "reference to a non-block address"}}
}

// VerifyOnRead checks the block at payload if it is tainted (recovered
// but not yet re-verified) and panics with a *CorruptionPanic on mismatch.
// The taint clears only after a successful verification, so a damaged
// block stays tainted and every read of it — by any reader, through any
// snapshot or root that shares it — panics, and a reader racing the first
// verification verifies too rather than return before it is done. The
// fast path — no tainted blocks remain, the steady state — is one atomic
// load; while some remain, an untainted block costs one more. Hooked into
// the shared node-read and binding-read funnels.
func (h *Heap) VerifyOnRead(payload pmem.Addr) {
	sh := h.sh
	if sh.taintCount.Load() == 0 {
		return
	}
	s := sh.blocks.slot(payload)
	if s == nil || s.Load()&slotTaint == 0 {
		return
	}
	if _, berr := h.verifyNode(payload); berr != nil {
		panic(&CorruptionPanic{Block: *berr})
	}
	for {
		v := s.Load()
		if v&slotTaint == 0 {
			return // a racing reader's verification cleared it
		}
		if s.CompareAndSwap(v, v&^slotTaint) {
			sh.taintCount.Add(-1)
			return
		}
	}
}
