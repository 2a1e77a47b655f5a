// Package durcheck decides whether a state recovered from a crash image
// is durably linearizable with respect to a recorded history, by a
// memoised Wing–Gong search over small models of MOD's five structures.
//
// A history is a list of ops, each stamped on one clock when it was
// invoked, when it returned and when it was acknowledged durable. A crash
// image is taken at a cut on the same clock. The recovered state passes
// when every op that writes several places is in all of them or in none,
// and it equals the effect of some linearization of a prefix of the
// history that respects real-time order (an op that returned before
// another was invoked is linearized first, and is in the prefix whenever
// the later one is), holds every op acknowledged before the cut and no op
// invoked after it. These are the obligations "The Path to Durable
// Linearizability" (Izraelevitz et al.) states; a failure names the one
// that broke.
package durcheck

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind is a root's abstract type. Every kind is grown by its writes only,
// which is what lets the search prune a branch that has written something
// the recovered state lacks.
type Kind uint8

const (
	Map    Kind = iota // entries "key=value", sorted; a write sets the key
	Set                // keys, sorted; a write inserts
	Vector             // elements in index order; a write appends
	Stack              // elements top first; a write pushes
	Queue              // elements front first; a write enqueues
)

// Effect is one op's write to one root: Key and Val for a Map, Key for a
// Set, Val for the sequence kinds.
type Effect struct {
	Root     int
	Key, Val string
}

// Never is the stamp of an event that has not happened by the cut.
const Never = math.MaxInt64

// Op is one recorded operation.
type Op struct {
	Name                  string
	Effects               []Effect
	Invoke, Response, Ack int64
}

// State is a recovered or modelled state: one canonical entry list per
// root, in the form Kind documents.
type State [][]string

func (s State) String() string {
	parts := make([]string, len(s))
	for i, r := range s {
		parts[i] = "[" + strings.Join(r, " ") + "]"
	}
	return strings.Join(parts, " ")
}

// The named assertions a Violation reports.
const (
	LinearizablePrefix = "recovered-is-linearizable-prefix"
	AckedSurvives      = "acked-survives"
	NotInvokedAbsent   = "not-invoked-absent"
	MultiRootWhole     = "multi-root-whole"
)

// Violation is a failed check: the assertion it broke and what broke it.
type Violation struct {
	Assertion, Detail string
}

func (v *Violation) Error() string { return v.Assertion + ": " + v.Detail }

// Model is the specification of a history's roots: their kinds and their
// state before its first op.
type Model struct {
	Kinds []Kind
	Init  State
}

// maxOps bounds a history: the search keeps its linearized set in a word.
const maxOps = 64

// Check decides the state got, recovered from an image taken at cut,
// against ops. It returns nil or a *Violation.
func (m Model) Check(ops []Op, cut int64, got State) error {
	if len(ops) > maxOps {
		panic(fmt.Sprintf("durcheck: %d ops, at most %d", len(ops), maxOps))
	}
	if len(got) != len(m.Kinds) {
		return &Violation{LinearizablePrefix, fmt.Sprintf("recovered %d roots, the model has %d", len(got), len(m.Kinds))}
	}
	if err := m.whole(ops, got); err != nil {
		return err
	}
	var invoked, acked uint64
	for i, op := range ops {
		if op.Invoke < cut {
			invoked |= 1 << i
		}
		if op.Ack < cut {
			acked |= 1 << i
		}
	}
	switch {
	case m.search(ops, invoked, acked, got):
		return nil
	case m.search(ops, invoked, 0, got):
		return &Violation{AckedSurvives, fmt.Sprintf("%s is a linearizable prefix only without an op acknowledged before the cut (acknowledged, not all present: %s)",
			got, m.names(ops, acked, got, false))}
	case m.search(ops, 1<<len(ops)-1, acked, got):
		return &Violation{NotInvokedAbsent, fmt.Sprintf("%s holds an op invoked after the cut (present: %s)",
			got, m.names(ops, ^invoked, got, true))}
	}
	return &Violation{LinearizablePrefix, fmt.Sprintf("no linearization of a real-time-ordered prefix of the invoked ops reaches %s", got)}
}

// whole checks that every op writing several places is in all of them or
// none. A place another op also writes is left out: its absence may be an
// overwrite.
func (m Model) whole(ops []Op, got State) error {
	for i, op := range ops {
		in, out := 0, 0
		for _, e := range op.Effects {
			if m.shared(ops, i, e) {
				continue
			}
			if m.has(got, e) {
				in++
			} else {
				out++
			}
		}
		if in > 0 && out > 0 {
			return &Violation{MultiRootWhole, fmt.Sprintf("%s is in %d of its %d places in %s", op.Name, in, in+out, got)}
		}
	}
	return nil
}

// shared reports whether an op other than ops[i] writes e's place.
func (m Model) shared(ops []Op, i int, e Effect) bool {
	for j, op := range ops {
		if j == i {
			continue
		}
		for _, f := range op.Effects {
			if f.Root == e.Root && m.place(e) == m.place(f) {
				return true
			}
		}
	}
	return false
}

// place is what identifies an effect's write within its root.
func (m Model) place(e Effect) string {
	if m.Kinds[e.Root] == Map || m.Kinds[e.Root] == Set {
		return e.Key
	}
	return e.Val
}

// has reports whether e's write shows in s.
func (m Model) has(s State, e Effect) bool {
	return slices.Contains(s[e.Root], entry(m.Kinds[e.Root], e))
}

// names lists the ops in mask whose effects all show in got (present) or
// do not all show (!present), for a violation's detail.
func (m Model) names(ops []Op, mask uint64, got State, present bool) string {
	var out []string
	for i, op := range ops {
		if mask&(1<<i) == 0 {
			continue
		}
		all := true
		for _, e := range op.Effects {
			all = all && m.has(got, e)
		}
		if all == present {
			out = append(out, op.Name)
		}
	}
	return "[" + strings.Join(out, ", ") + "]"
}

// search looks for a linearization of a real-time-closed subset of cand,
// holding every op of need, that turns Init into got. It is Wing and
// Gong's depth-first search over the ops whose real-time predecessors are
// all linearized, memoised on the linearized set and the state it reached.
func (m Model) search(ops []Op, cand, need uint64, got State) bool {
	preds := make([]uint64, len(ops))
	for i := range ops {
		for j := range ops {
			if ops[j].Response < ops[i].Invoke {
				preds[i] |= 1 << j
			}
		}
	}
	target := got.String()
	seen := map[string]bool{}
	var dfs func(done uint64, s State) bool
	dfs = func(done uint64, s State) bool {
		str := s.String()
		k := strconv.FormatUint(done, 36) + "|" + str
		if seen[k] {
			return false
		}
		seen[k] = true
		if done&need == need && str == target {
			return true
		}
		if !m.within(s, got) {
			return false
		}
		for i := range ops {
			bit := uint64(1) << i
			if cand&bit == 0 || done&bit != 0 || preds[i]&^done != 0 {
				continue
			}
			if dfs(done|bit, m.apply(s, ops[i])) {
				return true
			}
		}
		return false
	}
	return dfs(0, m.Init)
}

// apply returns s with op's effects written.
func (m Model) apply(s State, op Op) State {
	out := slices.Clone(s)
	for _, e := range op.Effects {
		r, k := slices.Clone(out[e.Root]), m.Kinds[e.Root]
		switch k {
		case Map:
			r = slices.DeleteFunc(r, func(x string) bool { return strings.HasPrefix(x, e.Key+"=") })
			fallthrough
		case Set:
			if v := entry(k, e); !slices.Contains(r, v) {
				r = append(r, v)
			}
			slices.Sort(r)
		case Vector, Queue:
			r = append(r, e.Val)
		case Stack:
			r = append([]string{e.Val}, r...)
		}
		out[e.Root] = r
	}
	return out
}

// within reports whether a state the writes can still grow into got: a
// Set's keys are got's, a sequence is got's oldest elements. (A Map write
// can replace a value, so a Map never prunes.)
func (m Model) within(s, got State) bool {
	for i, r := range s {
		g := got[i]
		switch m.Kinds[i] {
		case Set:
			for _, x := range r {
				if !slices.Contains(g, x) {
					return false
				}
			}
		case Vector, Queue:
			if len(r) > len(g) || !slices.Equal(r, g[:len(r)]) {
				return false
			}
		case Stack:
			if len(r) > len(g) || !slices.Equal(r, g[len(g)-len(r):]) {
				return false
			}
		}
	}
	return true
}

func entry(k Kind, e Effect) string {
	switch k {
	case Map:
		return e.Key + "=" + e.Val
	case Set:
		return e.Key
	}
	return e.Val
}
