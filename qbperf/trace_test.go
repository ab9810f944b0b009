package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.query", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "owner.query", Start: 10, End: 90},
		// Two overlapping technique-side calls and one disjoint one:
		// their union inside the owner span is [20,50) + [60,70) = 40.
		{ID: 3, Parent: 2, Name: "wire.fetch", Start: 20, End: 40},
		{ID: 4, Parent: 2, Name: "wire.fetch", Start: 30, End: 50},
		{ID: 5, Parent: 2, Name: "wire.plain_search", Start: 60, End: 70},
		// A child running past its parent counts only inside it.
		{ID: 6, Parent: 1, Name: "wire.flush", Start: 85, End: 120},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100 - 80 - 10, // owner [10,90) and flush [85,100) cover [10,100)
		2: 80 - 40,
		3: 20, 4: 20, 5: 10, 6: 35,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
}

func TestCoveredNestedAndEmpty(t *testing.T) {
	p := span{Start: 0, End: 100}
	if got := covered(p, nil); got != 0 {
		t.Errorf("no children: %v", got)
	}
	kids := []span{{Start: 10, End: 80}, {Start: 20, End: 30}, {Start: 90, End: 95}}
	if got := covered(p, kids); got != 75 {
		t.Errorf("nested children: %v, want 75", got)
	}
}

func TestRecorderParentsFollowLayers(t *testing.T) {
	r := newRecorder()
	endOp := r.begin(levelOp, levelOp, "op.query")
	endOwner := r.begin(levelOwner, levelOp, "owner.query")
	endTech := r.begin(levelTech, levelOwner, "technique.search")
	r.begin(levelWire, levelTech, "wire.fetch")()
	// A clear-text call made while the technique span is open still
	// belongs to the owner.
	r.begin(levelWire, levelOwner, "wire.plain_search")()
	endTech()
	endOwner()
	// The client's flush after the owner returned hangs off the op.
	r.begin(levelWire, levelTech, "wire.flush")()
	endOp()
	r.begin(levelWire, levelTech, "wire.ping")() // outside any op

	byName := make(map[string]span)
	for _, s := range r.snapshot() {
		byName[s.Name] = s
	}
	parent := func(child, want string) {
		t.Helper()
		if got := byName[child].Parent; got != byName[want].ID {
			t.Errorf("%s: parent %d, want %s (%d)", child, got, want, byName[want].ID)
		}
	}
	parent("owner.query", "op.query")
	parent("technique.search", "owner.query")
	parent("wire.fetch", "technique.search")
	parent("wire.plain_search", "owner.query")
	parent("wire.flush", "op.query")
	if s := byName["wire.ping"]; s.Parent != 0 || s.Op != 0 {
		t.Errorf("wire.ping outside an op: parent %d op %d", s.Parent, s.Op)
	}
	op := byName["op.query"].ID
	for _, n := range []string{"owner.query", "technique.search", "wire.fetch", "wire.plain_search", "wire.flush"} {
		if byName[n].Op != op {
			t.Errorf("%s: op %d, want %d", n, byName[n].Op, op)
		}
	}
	if got := len(inWindow(r.snapshot(), 0)); got != 6 {
		t.Errorf("inWindow kept %d spans, want the op's 6", got)
	}
}
