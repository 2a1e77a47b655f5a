package core

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/mod-ds/mod/internal/alloc"
	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// Corruption matrix (DESIGN.md §13): the media-fault counterpart of the
// crash matrix. Each cell commits a workload, damages the durable image
// with one fault class — bit flips, torn 8-byte stores, unreadable
// lines — and reopens with verification and salvage enabled. The single
// acceptable outcomes are:
//
//   - the open fails with a clean error (damage hit recovery metadata),
//   - the open reports the damage and quarantines the root,
//   - a selective root is salvaged and serves a consistent earlier state
//     with the dropped operations reported, or
//   - the fault missed everything reachable and reads serve exactly a
//     committed state.
//
// What must NEVER happen is a silent wrong read: a clean open, no damage
// report, and a state that was never committed.

var cmFaultClasses = []string{"bitflip", "torn", "deadline"}

func cmTrials() int {
	if testing.Short() {
		return 3
	}
	return 6
}

// cmOpen opens a damaged single-heap device with verification and
// salvage; Open converts recovery panics (scrambled block chains,
// poisoned lines) into errors.
func cmOpen(dev *pmem.Device, opts ...Option) (*Store, []DamagedRoot, error) {
	db, info, err := Open(pmem.Config{}, append([]Option{WithDevices(dev), WithAttach(), WithSalvage()}, opts...)...)
	if err != nil {
		return nil, nil, err
	}
	return db.Store(), info.Damaged, nil
}

// cmPlan builds one deterministic fault plan of the given class aimed at
// the heap block area [lo, hi).
func cmPlan(fc string, rng *rand.Rand, lo, hi pmem.Addr) *pmem.FaultPlan {
	plan := &pmem.FaultPlan{}
	pick := func() pmem.Addr { return lo + pmem.Addr(rng.Int63n(int64(hi-lo))) }
	switch fc {
	case "bitflip":
		for k, n := 0, 1+rng.Intn(3); k < n; k++ {
			plan.FlipBit(pick(), uint8(rng.Intn(8)))
		}
	case "torn":
		plan.TearStore(pick())
	case "deadline":
		plan.KillLine(pick())
	}
	return plan
}

// cmExpect carries the dry-run state sets a reopen is checked against.
type cmExpect struct {
	// allowed holds the committed-prefix states: the only states a clean,
	// undamaged reopen may serve.
	allowed map[string]bool
	// intermediates additionally holds every per-op state since the
	// structure was bound, the committed prefix's included: a salvage
	// rollback lands on a fold checkpoint, which is a consistent per-op
	// state but (in edit/batch modes) not necessarily a committed one, and
	// may have been taken before the probed window.
	intermediates map[string]bool
	final         string
}

// cmPrefix applies the committed prefix's ops, recording in seen — when
// it is not nil — the state before the first and after each.
func cmPrefix(ops matrixOps, seen map[string]bool) {
	if seen != nil {
		seen[mxJoin(ops.dump())] = true
	}
	for i := 0; i < mxPrefix; i++ {
		ops.basic(i)
		if seen != nil {
			seen[mxJoin(ops.dump())] = true
		}
	}
}

// cmCheckReopen reopens the damaged device and classifies the outcome.
// It fails the test on the one forbidden outcome: serving a state that
// is neither committed nor a reported salvage rollback.
func cmCheckReopen(t *testing.T, st matrixStructure, dev2 *pmem.Device, exp cmExpect, label string) {
	t.Helper()
	s2, damaged, err := cmOpen(dev2, st.opts()...)
	if err != nil {
		return // detected: damaged image failed the open cleanly
	}
	salvaged := false
	var dropped uint64
	for _, d := range damaged {
		if !d.Salvaged {
			return // detected: root quarantined, binds answer ErrCorrupted
		}
		salvaged = true
		dropped += d.DroppedOps
	}
	ops2 := st.mustBind(t, s2, "mx")
	got := mxJoin(ops2.dump())
	if salvaged {
		if !exp.intermediates[got] {
			t.Fatalf("%s: salvaged root serves a state that never existed:\n%q", label, got)
		}
		if got != exp.final && dropped == 0 {
			t.Fatalf("%s: salvage rolled back state without reporting dropped ops", label)
		}
	} else if !exp.allowed[got] {
		t.Fatalf("%s: silent wrong read — clean open, no damage report, uncommitted state:\n%q", label, got)
	}
	// The store must stay usable. A poisoned line handed back out by the
	// allocator may surface as a typed media/corruption panic — degraded
	// but detected, never silent.
	func() {
		defer func() {
			switch r := recover(); r.(type) {
			case nil, *pmem.MediaError, *alloc.CorruptionPanic:
			default:
				panic(r)
			}
		}()
		ops2.basic(900)
		if after := mxJoin(ops2.dump()); after == got {
			t.Fatalf("%s: store inert after damaged reopen", label)
		}
	}()
}

// TestCorruptionMatrixSingleStore sweeps structure x commit discipline x
// fault class on a fully committed image: random faults aimed at the
// heap block area, reopened with verify+salvage.
func TestCorruptionMatrixSingleStore(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	for _, st := range matrixStructures() {
		for _, mode := range []string{"perop", "edit", "batch"} {
			for _, fc := range cmFaultClasses {
				st, mode, fc := st, mode, fc
				t.Run(st.name+"/"+mode+"/"+fc, func(t *testing.T) {
					// build records the states the prefix passes through
					// in seen, when it is not nil.
					build := func(seen map[string]bool) (*Store, matrixOps, *Map, *pmem.Device) {
						dev := pmem.New(cfg)
						s := newStore(dev)
						ops, marker := mxOpenRow(t, st, s)
						cmPrefix(ops, seen)
						s.Sync()
						return s, ops, marker, dev
					}

					// Dry run 1, always per-op: collects every intermediate
					// state a salvage rollback may legally land on.
					intermediates := map[string]bool{}
					s, ops, _, _ := build(intermediates)
					for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
						ops.basic(i)
						intermediates[mxJoin(ops.dump())] = true
					}
					perOpFinal := mxJoin(ops.dump())

					// Dry run 2, in the actual mode: produces the committed
					// image the faults are injected into and the committed-
					// prefix states a clean reopen may serve.
					s, ops, marker, dev := build(nil)
					allowed := map[string]bool{mxJoin(ops.dump()): true}
					switch mode {
					case "perop":
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							ops.basic(i)
							allowed[mxJoin(ops.dump())] = true
						}
					case "edit":
						b := s.NewBatch()
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							ops.batch(b, i)
						}
						b.Commit()
					case "batch":
						b := s.NewBatch()
						for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
							ops.batch(b, i)
						}
						b.MapSet(marker, mxMarkerKey, []byte("present"))
						b.Commit()
					}
					final := mxJoin(ops.dump())
					allowed[final] = true
					if final != perOpFinal {
						t.Fatalf("mode %q final state diverges from per-op application", mode)
					}
					s.Sync()
					exp := cmExpect{allowed: allowed, intermediates: intermediates, final: final}
					lo, hi := s.heap.DataBounds()
					img := dev.Snapshot()

					for trial := 0; trial < cmTrials(); trial++ {
						seed := int64(trial)*1_000_003 + int64(len(st.name))*7919 + int64(len(mode))*131 + int64(len(fc))
						plan := cmPlan(fc, rand.New(rand.NewSource(seed)), lo, hi)
						dimg := append([]byte(nil), img...)
						plan.ApplyToImage(dimg, nil)
						dev2 := pmem.NewFromImage(pmem.DefaultConfig(4<<20), dimg)
						plan.Apply(dev2)
						cmCheckReopen(t, st, dev2, exp, st.name+"/"+mode+"/"+fc)
					}
				})
			}
		}
	}
}

// TestCorruptionAfterCrashImage composes the two failure models: a power
// loss mid-FASE (crash countdown at the window midpoint) followed by a
// media fault in the captured image. The reopen must detect the damage
// or serve a committed prefix — never a blend.
func TestCorruptionAfterCrashImage(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	for _, st := range matrixStructures() {
		if st.name != "map" && st.name != "map-sel" && st.name != "vector" {
			continue
		}
		for _, fc := range cmFaultClasses {
			st, fc := st, fc
			t.Run(st.name+"/crash+"+fc, func(t *testing.T) {
				// build records the states the prefix passes through in
				// seen, when it is not nil.
				build := func(seen map[string]bool) (*Store, matrixOps, *pmem.Device) {
					dev := pmem.New(cfg)
					db, _, err := Open(cfg, append([]Option{WithDevices(dev)}, st.opts()...)...)
					if err != nil {
						t.Fatal(err)
					}
					s := db.Store()
					ops := st.mustBind(t, s, "mx")
					cmPrefix(ops, seen)
					s.Sync()
					return s, ops, dev
				}
				probe := func(ops matrixOps) {
					for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
						ops.basic(i)
					}
				}

				// Dry run: committed per-op states and the window's write count.
				exp := cmExpect{intermediates: map[string]bool{}}
				s, ops, dev := build(exp.intermediates)
				exp.allowed = map[string]bool{mxJoin(ops.dump()): true}
				writesBase := dev.Stats().Writes
				for i := mxPrefix; i < mxPrefix+mxProbe; i++ {
					ops.basic(i)
					exp.allowed[mxJoin(ops.dump())] = true
					exp.intermediates[mxJoin(ops.dump())] = true
				}
				exp.final = mxJoin(ops.dump())
				totalWrites := int(dev.Stats().Writes - writesBase)
				lo, hi := s.heap.DataBounds()

				for trial := 0; trial < cmTrials(); trial++ {
					inj := 1 + (trial*totalWrites)/cmTrials() // spread through the window
					s, ops, dev := build(nil)
					_ = s
					tr := pmem.NewCrashCountdown(dev, inj, pmem.CrashEvictRandom, uint64(inj)*1048573+11)
					dev.SetTracer(tr)
					probe(ops)
					dev.SetTracer(nil)
					img := tr.Image()
					if img == nil {
						t.Fatalf("inj %d: countdown never expired", inj)
					}
					seed := int64(trial)*2654435761 + int64(len(fc))
					plan := cmPlan(fc, rand.New(rand.NewSource(seed)), lo, hi)
					plan.ApplyToImage(img, nil)
					dev2 := pmem.NewFromImage(pmem.DefaultConfig(4<<20), img)
					plan.Apply(dev2)
					cmCheckReopen(t, st, dev2, exp, st.name+"/crash+"+fc)
				}
			})
		}
	}
}

// TestCorruptionShardedDegradedOpen damages the structure root on shard
// 0 of a two-shard store — a guaranteed-reachable, checksummed target —
// and verifies the degraded-open contract: the healthy shard serves, the
// damaged root is either quarantined (plain structure) or salvaged
// (selective), and the damage report names the right shard.
func TestCorruptionShardedDegradedOpen(t *testing.T) {
	cfg := pmem.DefaultConfig(4 << 20)
	cfg.TrackDurable = true
	for _, st := range matrixStructures() {
		if st.name != "map" && st.name != "map-sel" {
			continue
		}
		st := st
		t.Run(st.name, func(t *testing.T) {
			ss := openShards(t, cfg, 2, st.opts()...)
			ops := st.mustBind(t, ss.Shard(0), "mx")
			marker, err := ss.Shard(1).Map("mx-marker")
			if err != nil {
				t.Fatal(err)
			}
			marker.Set(mxMarkerKey, []byte("present"))
			exp := map[string]bool{}
			// One op past the probe window leaves a selective structure
			// with a pending record (checkpointEvery=2 folds on even
			// counts) — the chain a salvage rollback must drop.
			for i := 0; i < mxPrefix+mxProbe+1; i++ {
				ops.basic(i)
				exp[mxJoin(ops.dump())] = true
			}
			ss.Sync()

			h0 := ss.Shard(0).heap
			slot, err := h0.RootSlot("mx")
			if err != nil {
				t.Fatal(err)
			}
			root := h0.Root(slot)
			if root == pmem.Nil {
				t.Fatal("structure root not claimed")
			}
			plan := &pmem.FaultPlan{}
			if st.name == "map-sel" {
				// Damage a pending record cell: the root header stays
				// trustworthy, so salvage can roll back to the checkpoint.
				_, recHead, recCount := funcds.SelectiveExt(h0, root)
				if recHead == pmem.Nil || recCount == 0 {
					t.Fatal("no pending record to damage")
				}
				// Flip in the kind word's high byte: CRC-covered, but not a
				// pointer the recovery mark pass would chase into the weeds.
				plan.FlipBit(recHead+15, 3)
			} else {
				// Damage the root header's covered payload: nothing to
				// salvage from, the root must quarantine.
				plan.FlipBit(root, 3)
			}

			devs := ss.Regions().Devices()
			imgs := make([][]byte, len(devs))
			for i, d := range devs {
				imgs[i] = d.Snapshot()
			}
			plan.ApplyToImage(imgs[0], nil)

			ss2, info, err := Open(cfg, append([]Option{WithExistingImages(imgs), WithSalvage()}, st.opts()...)...)
			if err != nil {
				t.Fatalf("degraded open failed entirely: %v", err)
			}
			damaged := info.Damaged
			if len(damaged) == 0 {
				t.Fatal("flipped root payload bit went undetected")
			}
			for _, d := range damaged {
				if d.Shard != 0 {
					t.Fatalf("damage misattributed to shard %d", d.Shard)
				}
			}
			// The healthy shard serves regardless of shard 0's damage.
			marker2, err := ss2.Shard(1).Map("mx-marker")
			if err != nil {
				t.Fatalf("healthy shard refused bind: %v", err)
			}
			if v, ok := marker2.Get(mxMarkerKey); !ok || string(v) != "present" {
				t.Fatalf("healthy shard lost data: %q %v", v, ok)
			}
			if st.name == "map-sel" {
				// Selective root: salvage must have repaired it in place.
				if !damaged[0].Salvaged {
					t.Fatalf("selective root not salvaged: %v", damaged[0].Err)
				}
				if damaged[0].DroppedOps == 0 {
					t.Fatal("rollback salvage reported zero dropped ops")
				}
				ops2 := st.mustBind(t, ss2.Shard(0), "mx")
				if got := mxJoin(ops2.dump()); !exp[got] {
					t.Fatalf("salvaged root serves uncommitted state:\n%q", got)
				}
			} else {
				// Plain root: quarantined, bind answers ErrCorrupted.
				if damaged[0].Salvaged {
					t.Fatal("plain structure claims salvage")
				}
				if _, err := ss2.Shard(0).Map("mx"); err == nil {
					t.Fatal("bind to quarantined root succeeded")
				} else if !errors.Is(err, ErrCorrupted) {
					t.Fatalf("bind error not ErrCorrupted: %v", err)
				}
			}
		})
	}
}
