package main

import (
	"hash/fnv"
	"strings"
	"testing"

	"gentrius/internal/search"
)

func TestTreeSetIsOrderIndependent(t *testing.T) {
	lines := []string{"((a,b),c,d);", "((a,c),b,d);", "((a,d),b,c);"}
	var fwd, rev treeSet
	for i := range lines {
		fwd.addString(lines[i])
		rev.add([]byte(lines[len(lines)-1-i]))
	}
	if fwd != rev {
		t.Errorf("order changed the digest: %+v vs %+v", fwd, rev)
	}
	h := fnv.New64a()
	h.Write([]byte(lines[0]))
	if got := fnv64a(lines[0]); got != h.Sum64() {
		t.Errorf("fnv64a = %x, hash/fnv = %x", got, h.Sum64())
	}
}

func TestTreeSetSeesDuplicatesAndSubstitutions(t *testing.T) {
	var want, dup, swapped treeSet
	for _, l := range []string{"x", "y", "z"} {
		want.addString(l)
	}
	for _, l := range []string{"x", "y", "y"} { // same count, one tree twice
		dup.addString(l)
	}
	for _, l := range []string{"x", "y", "w"} {
		swapped.addString(l)
	}
	if dup == want || swapped == want {
		t.Errorf("a wrong multiset has the right digest")
	}
	// XOR would cancel a pair of duplicates; the sum does not.
	var two treeSet
	two.addString("y")
	two.addString("y")
	if two.Sum == 0 {
		t.Errorf("duplicates cancelled")
	}
}

func TestCheckNamesTheDifference(t *testing.T) {
	exp := expected{
		Counters: search.Counters{StandTrees: 3, IntermediateStates: 10, DeadEnds: 1},
		Trees:    &treeSet{N: 3, Bytes: 30, Sum: 99},
	}
	good := observed{Counters: exp.Counters, Stop: "exhausted", Trees: &treeSet{N: 3, Bytes: 30, Sum: 99}}
	if p := exp.check(good); p != "" {
		t.Errorf("correct unit rejected: %s", p)
	}
	countOnly := good
	countOnly.Trees = nil
	if p := exp.check(countOnly); p != "" {
		t.Errorf("count-only unit rejected: %s", p)
	}
	cases := map[string]func(o *observed){
		"stop":     func(o *observed) { o.Stop = "tree-limit" },
		"counters": func(o *observed) { o.Counters.DeadEnds++ },
		"trees":    func(o *observed) { o.Trees = &treeSet{N: 3, Bytes: 30, Sum: 98} },
	}
	for want, breakIt := range cases {
		bad := good
		breakIt(&bad)
		if p := exp.check(bad); !strings.HasPrefix(p, want) {
			t.Errorf("broken %s reported as %q", want, p)
		}
	}
}

func TestLedger(t *testing.T) {
	var l ledger
	l.record("t1", nil)
	l.record("t2", []string{"unit a: counters", "unit b: counters"})
	l.record("t2", nil)
	if l.Attempted != 3 || l.Failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1", l.Attempted, l.Failed)
	}
	if len(l.Failures) != 1 || l.Failures[0] != "t2: unit a: counters" {
		t.Errorf("failures %v", l.Failures)
	}
	for i := 0; i < 20; i++ {
		l.record("t1", []string{"x"})
	}
	if l.Failed != 21 || len(l.Failures) != 8 {
		t.Errorf("failed %d kept %d, want 21 and 8", l.Failed, len(l.Failures))
	}
}
