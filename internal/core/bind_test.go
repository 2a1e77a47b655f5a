package core

import (
	"errors"
	"testing"

	"github.com/mod-ds/mod/internal/funcds"
	"github.com/mod-ds/mod/internal/pmem"
)

// binderKind is one structure as the binder matrix drives it: the header
// tag of each flavor and its Store, Parent and DB binders.
type binderKind struct {
	name       string
	plain, sel uint8
	root       func(*Store, string) (Datastructure, error)
	field      func(*Parent, string) (Datastructure, error)
	routed     func(*DB, string) (Datastructure, error)
}

func bk[H Datastructure](name string, plain, sel uint8, root func(*Store, string) (H, error), field func(*Parent, string) (H, error), routed func(*DB, string) (H, error)) binderKind {
	ds := func(h H, err error) (Datastructure, error) {
		if err != nil {
			return nil, err
		}
		return h, nil
	}
	return binderKind{
		name: name, plain: plain, sel: sel,
		root:   func(s *Store, n string) (Datastructure, error) { return ds(root(s, n)) },
		field:  func(p *Parent, n string) (Datastructure, error) { return ds(field(p, n)) },
		routed: func(db *DB, n string) (Datastructure, error) { return ds(routed(db, n)) },
	}
}

var binderKinds = []binderKind{
	bk("map", funcds.TagMapRoot, funcds.TagMapHdrSel, (*Store).Map, (*Parent).Map, (*DB).Map),
	bk("set", funcds.TagMapRoot, funcds.TagMapHdrSel, (*Store).Set, (*Parent).Set, (*DB).Set),
	bk("vector", funcds.TagVecRoot, funcds.TagVecHdrSel, (*Store).Vector, (*Parent).Vector, (*DB).Vector),
	bk("stack", funcds.TagStackHdr, funcds.TagStackHdrSel, (*Store).Stack, (*Parent).Stack, (*DB).Stack),
	bk("queue", funcds.TagQueueHdr, funcds.TagQueueHdrSel, (*Store).Queue, (*Parent).Queue, (*DB).Queue),
}

// TestBindersAcrossKindsAndFlavors covers all fifteen binders — five
// kinds × {Store root, Parent field, DB-routed root} — on a plain store
// and on one opened WithSelective: the header flavor each creates (a
// Parent field is plain on either store), rebinding returning the
// existing version, a reopen with the other flavor keeping every
// existing root's flavor while new roots take the reopened store's,
// ErrWrongRootKind across kinds, ErrReservedRootName from the root-name
// binders (Parent field names are not root names) and ErrStoreClosed
// from every binder.
func TestBindersAcrossKindsAndFlavors(t *testing.T) {
	cfg := pmem.DefaultConfig(2 << 20)
	cfg.TrackDurable = true
	flavorOpts := func(sel bool) []Option {
		if sel {
			return []Option{WithShards(2), WithSelective(0)}
		}
		return []Option{WithShards(2)}
	}
	tagOf := func(ds Datastructure) uint8 {
		h := ds.base()
		return h.st.heap.Tag(h.currentAddr())
	}
	for ki, k := range binderKinds {
		other := binderKinds[2] // a kind over different header tags
		if ki >= 2 {
			other = binderKinds[0]
		}
		for _, route := range []string{"store", "parent", "db"} {
			for _, sel := range []bool{false, true} {
				name := k.name + "/" + route + "/plain"
				if sel {
					name = k.name + "/" + route + "/sel"
				}
				t.Run(name, func(t *testing.T) {
					db, _, err := Open(cfg, flavorOpts(sel)...)
					if err != nil {
						t.Fatal(err)
					}
					var p *Parent
					bind := func(db *DB, k binderKind, name string) (Datastructure, error) {
						switch route {
						case "store":
							return k.root(db.Shard(0), name)
						case "parent":
							var err error
							if p, err = db.Shard(0).Parent("p", "f", "g"); err != nil {
								return nil, err
							}
							return k.field(p, name)
						}
						return k.routed(db, name)
					}
					flavor := func(sel bool) uint8 {
						if sel && route != "parent" {
							return k.sel
						}
						return k.plain
					}

					h, err := bind(db, k, "f")
					if err != nil {
						t.Fatal(err)
					}
					if got := tagOf(h); got != flavor(sel) {
						t.Fatalf("created header tag %d, want %d", got, flavor(sel))
					}
					h2, err := bind(db, k, "f")
					if err != nil {
						t.Fatal(err)
					}
					if h2.base().currentAddr() != h.base().currentAddr() {
						t.Fatal("rebinding did not return the existing version")
					}
					if _, err := bind(db, other, "f"); !errors.Is(err, ErrWrongRootKind) {
						t.Fatalf("binding %s as %s: %v, want ErrWrongRootKind", k.name, other.name, err)
					}
					if route == "parent" {
						if _, err := db.Shard(0).Parent("__mod_p", "f"); !errors.Is(err, ErrReservedRootName) {
							t.Fatalf("reserved parent name: %v, want ErrReservedRootName", err)
						}
					} else if _, err := bind(db, k, "__mod_f"); !errors.Is(err, ErrReservedRootName) {
						t.Fatalf("reserved root name: %v, want ErrReservedRootName", err)
					}

					// Reopen with the other flavor: the existing structure
					// keeps its own, a new one takes the reopened store's.
					db.Sync()
					imgs := db.CrashImages(pmem.CrashFencedOnly, 1)
					db2, _, err := Open(cfg, append(flavorOpts(!sel), WithExistingImages(imgs))...)
					if err != nil {
						t.Fatal(err)
					}
					if h3, err := bind(db2, k, "f"); err != nil {
						t.Fatal(err)
					} else if got := tagOf(h3); got != flavor(sel) {
						t.Fatalf("rebind after reopen: header tag %d, want %d", got, flavor(sel))
					}
					if h4, err := bind(db2, k, "g"); err != nil {
						t.Fatal(err)
					} else if got := tagOf(h4); got != flavor(!sel) {
						t.Fatalf("new structure after reopen: header tag %d, want %d", got, flavor(!sel))
					}
					db2.Close()

					db.Close()
					var closedErr error
					if route == "parent" {
						_, closedErr = k.field(p, "g") // the Parent bound before Close
					} else {
						_, closedErr = bind(db, k, "g")
					}
					if !errors.Is(closedErr, ErrStoreClosed) {
						t.Fatalf("bind after Close: %v, want ErrStoreClosed", closedErr)
					}
				})
			}
		}
	}
}
