package main

import (
	"reflect"
	"strings"
	"testing"
)

// The pinned indices are exactly what the predicate scan selects. The scan
// enumerates a few hundred corpus datasets, so -short skips it.
func TestPinsMatchScan(t *testing.T) {
	if testing.Short() {
		t.Skip("the predicate scan takes about half a minute")
	}
	for i := range workloads {
		w := &workloads[i]
		got, err := w.scan(len(w.Pins))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w.Pins) {
			t.Errorf("%s: pinned %v, scan selects %v", w.Name, w.Pins, got)
		}
	}
}

// A seed decides every byte of the inputs and nothing about the work.
func TestSeedChangesTextNotWork(t *testing.T) {
	w, err := findWorkload("serve-jobs")
	if err != nil {
		t.Fatal(err)
	}
	digest := func(seed int64) (text string, byName map[string]expected) {
		byName = map[string]expected{}
		for _, in := range w.makeInputs(seed, w.Pins) {
			text += in.Name + "\n" + in.text()
			in := in
			exp, err := oracleRun(&in, true)
			if err != nil {
				t.Fatal(err)
			}
			byName[in.Name] = exp
		}
		return text, byName
	}
	text1, exp1 := digest(1)
	again, _ := digest(1)
	text2, exp2 := digest(2)
	if text1 != again {
		t.Errorf("seed 1 gave two different inputs")
	}
	if text1 == text2 {
		t.Errorf("seeds 1 and 2 gave the same inputs")
	}
	if strings.Contains(text1, "T0") {
		t.Errorf("corpus labels survived the renaming")
	}
	for name, e1 := range exp1 {
		e2, ok := exp2[name]
		if !ok {
			t.Fatalf("seed 2 has no unit %s", name)
		}
		if e1.Counters != e2.Counters || e1.Trees.N != e2.Trees.N || e1.Trees.Bytes != e2.Trees.Bytes {
			t.Errorf("%s: the seed changed the work: %+v vs %+v", name, e1, e2)
		}
		if e1.Trees.Sum == e2.Trees.Sum {
			t.Errorf("%s: the seed did not change the tree output", name)
		}
	}
}
