package durcheck

import (
	"errors"
	"testing"
)

// Hand-written histories and recovered states. Each bad state must be
// rejected by the named assertion, so a checker that always passes fails
// here, and a known-good concurrent history must be accepted at every cut.

// selfModel is a map (root 0), a queue (root 1) and a set (root 2), all
// empty.
var selfModel = Model{Kinds: []Kind{Map, Queue, Set}, Init: State{nil, nil, nil}}

// op is an op invoked at inv, returned at resp and acknowledged at ack.
func op(name string, inv, resp, ack int64, effs ...Effect) Op {
	return Op{Name: name, Effects: effs, Invoke: inv, Response: resp, Ack: ack}
}

func set(k, v string) Effect { return Effect{Root: 0, Key: k, Val: v} }
func enq(v string) Effect    { return Effect{Root: 1, Val: v} }
func ins(k string) Effect    { return Effect{Root: 2, Key: k} }

// concurrentHistory: two writers. a1 and b1 overlap; a2 follows both; b2
// overlaps a2 and spans the map and the set; c enqueues once after a1.
func concurrentHistory() []Op {
	return []Op{
		op("a1", 0, 10, 20, set("x", "a1"), enq("1")),
		op("b1", 5, 15, 20, set("x", "b1")),
		op("a2", 16, 30, 40, set("y", "a2"), enq("2")),
		op("b2", 25, 35, Never, set("z", "b2"), ins("z")),
		op("c", 11, 12, 20, enq("3")),
	}
}

func TestCheckerAcceptsKnownGoodHistory(t *testing.T) {
	ops := concurrentHistory()
	for _, tc := range []struct {
		cut int64
		got State
	}{
		{1, State{nil, nil, nil}},
		{13, State{{"x=a1"}, {"1", "3"}, nil}},                           // a1, c; b1 not yet
		{13, State{{"x=b1"}, nil, nil}},                                  // b1 alone: a1 is not acknowledged yet
		{21, State{{"x=a1"}, {"1", "3"}, nil}},                           // b1 then a1: a1's value wins
		{21, State{{"x=b1"}, {"1", "3"}, nil}},                           // a1 then b1
		{26, State{{"x=b1", "z=b2"}, {"1", "3"}, {"z"}}},                 // b2 before a2: they overlap
		{50, State{{"x=a1", "y=a2"}, {"1", "3", "2"}, nil}},              // a2 acknowledged, b2 not
		{50, State{{"x=b1", "y=a2", "z=b2"}, {"1", "3", "2"}, {"z"}}},    // everything
		{50, State{{"x=a1", "y=a2", "z=b2"}, {"1", "3", "2"}, {"z"}}},    // everything, b1 first
		{Never, State{{"x=a1", "y=a2", "z=b2"}, {"1", "3", "2"}, {"z"}}}, // after every event
		{17, State{{"x=a1", "y=a2"}, {"1", "3", "2"}, nil}},              // a2 invoked at 16: may be in
		{12, State{{"x=a1"}, {"1"}, nil}},                                // c invoked, not acknowledged
		{11, State{{"x=b1"}, {"1"}, nil}},                                // a1 before b1, c not yet
	} {
		if err := selfModel.Check(ops, tc.cut, tc.got); err != nil {
			t.Errorf("cut %d, %s: %v", tc.cut, tc.got, err)
		}
	}
}

func TestCheckerRejects(t *testing.T) {
	ops := concurrentHistory()
	for _, tc := range []struct {
		name, want string
		cut        int64
		got        State
	}{
		{"lost acked op", AckedSurvives, 21, State{{"x=b1"}, nil, nil}},
		{"real-time inversion", LinearizablePrefix, 13, State{nil, {"3"}, nil}}, // c without a1, which returned before c began
		{"real-time inversion of writes", LinearizablePrefix, 50, State{{"x=a1", "y=a2"}, {"1", "2", "3"}, nil}},
		{"torn multi-root op", MultiRootWhole, 50, State{{"x=a1", "y=a2", "z=b2"}, {"1", "3", "2"}, nil}},
		{"invoked after the cut", NotInvokedAbsent, 14, State{{"x=a1", "y=a2"}, {"1", "3", "2"}, nil}},
		{"permuted queue", LinearizablePrefix, 21, State{{"x=a1"}, {"3", "1"}, nil}},
		{"wrong value", LinearizablePrefix, 21, State{{"x=a2"}, {"1", "3"}, nil}},
		{"missing root", LinearizablePrefix, 21, State{{"x=a1"}, {"1", "3"}}},
	} {
		err := selfModel.Check(ops, tc.cut, tc.got)
		var v *Violation
		if !errors.As(err, &v) || v.Assertion != tc.want {
			t.Errorf("%s: Check = %v, want a %s violation", tc.name, err, tc.want)
		}
	}
}

// seqModel is a map (root 0) and a queue (root 1), both empty.
var seqModel = Model{Kinds: []Kind{Map, Queue}, Init: State{nil, nil}}

// sequentialHistory: one writer sets a=1 then b=2, then enqueues 1, 2, 3;
// each op is acknowledged before the next begins.
func sequentialHistory() []Op {
	var ops []Op
	for i, e := range []Effect{set("a", "1"), set("b", "2"), enq("1"), enq("2"), enq("3")} {
		t := int64(10 * i)
		ops = append(ops, op(e.Key+e.Val, t, t+1, t+2, e))
	}
	return ops
}

// checkRejects requires the state each case recovered at cut to fail the
// case's named assertion.
func checkRejects(t *testing.T, m Model, ops []Op, cut int64, cases map[string]struct {
	want string
	got  State
}) {
	t.Helper()
	for name, tc := range cases {
		err := m.Check(ops, cut, tc.got)
		var v *Violation
		if !errors.As(err, &v) || v.Assertion != tc.want {
			t.Errorf("%s: Check = %v, want a %s violation", name, err, tc.want)
		}
	}
}

// TestCheckerRejectsMapDivergence: with every op acknowledged, a map is
// accepted only with exactly its written keys and their last values.
func TestCheckerRejectsMapDivergence(t *testing.T) {
	ops := sequentialHistory()
	if err := seqModel.Check(ops, 50, State{{"a=1", "b=2"}, {"1", "2", "3"}}); err != nil {
		t.Fatalf("matching map rejected: %v", err)
	}
	checkRejects(t, seqModel, ops, 50, map[string]struct {
		want string
		got  State
	}{
		"wrong value": {LinearizablePrefix, State{{"a=1", "b=wrong"}, {"1", "2", "3"}}},
		"extra key":   {LinearizablePrefix, State{{"a=1", "b=2", "c=3"}, {"1", "2", "3"}}},
		"missing key": {AckedSurvives, State{{"a=1"}, nil}}, // the prefix before b=2
	})
}

// TestCheckerRejectsQueueWrongValues: with every op acknowledged, a queue
// is accepted only with exactly its enqueued values in order.
func TestCheckerRejectsQueueWrongValues(t *testing.T) {
	ops := sequentialHistory()
	if err := seqModel.Check(ops, 50, State{{"a=1", "b=2"}, {"1", "2", "3"}}); err != nil {
		t.Fatalf("matching queue rejected: %v", err)
	}
	checkRejects(t, seqModel, ops, 50, map[string]struct {
		want string
		got  State
	}{
		"wrong value": {LinearizablePrefix, State{{"a=1", "b=2"}, {"1", "2", "999"}}},
		"wrong order": {LinearizablePrefix, State{{"a=1", "b=2"}, {"3", "2", "1"}}},
		"too short":   {AckedSurvives, State{{"a=1", "b=2"}, {"1", "2"}}},
	})
}

// TestCheckerSequenceKinds: a stack reads top first, a vector in order.
func TestCheckerSequenceKinds(t *testing.T) {
	m := Model{Kinds: []Kind{Stack, Vector}, Init: State{{"0"}, {"0"}}}
	ops := []Op{
		op("p1", 0, 1, 2, Effect{Root: 0, Val: "1"}, Effect{Root: 1, Val: "1"}),
		op("p2", 3, 4, 5, Effect{Root: 0, Val: "2"}, Effect{Root: 1, Val: "2"}),
	}
	if err := m.Check(ops, 6, State{{"2", "1", "0"}, {"0", "1", "2"}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Check(ops, 6, State{{"0", "1", "2"}, {"0", "1", "2"}}); err == nil {
		t.Fatal("a stack read bottom first was accepted")
	}
}
