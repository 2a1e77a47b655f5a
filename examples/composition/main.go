// Composition walks through the paper's Fig. 7 use cases for the MOD
// Composition interface: multiple updates to one datastructure, sibling
// datastructures under a parent object, and unrelated datastructures —
// each installed failure-atomically by the matching Commit variant.
package main

import (
	"fmt"
	"log"

	mod "github.com/mod-ds/mod"
)

func main() {
	db, _, err := mod.Open(mod.DefaultDeviceConfig(64 << 20))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// The Composition interface (BeginFASE/Commit*) lives on the
	// concrete Store.
	store := db.Store()
	dev := store.Device()

	// Fig. 7b — multiple updates of a single datastructure: swap two
	// vector elements via two pure updates on successive shadows and one
	// CommitSingle (one fence).
	v, err := store.Vector("v")
	if err != nil {
		log.Fatal(err)
	}
	for i := uint64(0); i < 8; i++ {
		v.Push(i * 100)
	}
	before := dev.Stats()
	store.BeginFASE()
	a, b := v.Get(1), v.Get(6)
	s1 := v.PureUpdate(1, b)
	s2 := s1.Update(6, a)
	store.CommitSingle(v, s1, s2)
	store.EndFASE()
	fmt.Printf("vector swap: v[1]=%d v[6]=%d, fences used: %d\n",
		v.Get(1), v.Get(6), dev.Stats().Sub(before).Fences)

	// Fig. 8c — single updates of sibling datastructures under a common
	// parent: CommitSiblings shadows the parent and swaps one pointer.
	mgr, err := store.Parent("bank", "checking", "savings")
	if err != nil {
		log.Fatal(err)
	}
	checking, _ := mgr.Map("checking")
	savings, _ := mgr.Map("savings")
	checking.Set([]byte("alice"), []byte("100"))
	savings.Set([]byte("alice"), []byte("0"))

	before = dev.Stats()
	store.BeginFASE()
	cShadow, _ := checking.PureSet([]byte("alice"), []byte("40"))
	sShadow, _ := savings.PureSet([]byte("alice"), []byte("60"))
	store.CommitSiblings(mgr,
		mod.Update{DS: checking, Shadows: []mod.Version{cShadow}},
		mod.Update{DS: savings, Shadows: []mod.Version{sShadow}},
	)
	store.EndFASE()
	c, _ := checking.Get([]byte("alice"))
	s, _ := savings.Get([]byte("alice"))
	fmt.Printf("transfer: checking=%s savings=%s, fences used: %d\n",
		c, s, dev.Stats().Sub(before).Fences)

	// Fig. 7c / 8d — single updates of unrelated datastructures: both
	// root swaps are staged as one group in the heap's stage table and
	// installed atomically under the same single ordering point (one
	// fence however many roots).
	v1, _ := store.Vector("v1")
	v2, _ := store.Vector("v2")
	v1.Push(111)
	v2.Push(222)
	before = dev.Stats()
	store.BeginFASE()
	x, y := v1.Get(0), v2.Get(0)
	u1 := v1.PureUpdate(0, y)
	u2 := v2.PureUpdate(0, x)
	store.CommitUnrelated(
		mod.Update{DS: v1, Shadows: []mod.Version{u1}},
		mod.Update{DS: v2, Shadows: []mod.Version{u2}},
	)
	store.EndFASE()
	fmt.Printf("cross-structure swap: v1[0]=%d v2[0]=%d, fences used: %d\n",
		v1.Get(0), v2.Get(0), dev.Stats().Sub(before).Fences)
}
