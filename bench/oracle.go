package main

import (
	"bufio"
	"fmt"
	"os"

	"gentrius/internal/search"
)

// unlimited disables all three stopping rules, so every run enumerates its
// stand to exhaustion and its counters are exact at any thread count.
var unlimited = search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}

// treeSet is an order-independent digest of a multiset of tree lines: how
// many, how many bytes, and the sum of their FNV-64a hashes mod 2^64.
// Parallel runs emit trees in no fixed order, so a sequence hash would not
// compare; a sum does, and unlike XOR it still sees a tree emitted twice.
type treeSet struct {
	N     int64
	Bytes int64
	Sum   uint64
}

// fnv64a is hash/fnv's New64a without the allocation per line.
func fnv64a[T string | []byte](b T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * 1099511628211
	}
	return h
}

func (s *treeSet) add(line []byte) {
	s.N++
	s.Bytes += int64(len(line))
	s.Sum += fnv64a(line)
}

func (s *treeSet) addString(line string) {
	s.N++
	s.Bytes += int64(len(line))
	s.Sum += fnv64a(line)
}

// addFile adds every line of a file written by a stream pass.
func (s *treeSet) addFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		s.add(sc.Bytes())
	}
	return sc.Err()
}

// expected is what the serial oracle found for one unit. Trees is filled
// only on workloads whose passes emit trees.
type expected struct {
	Counters search.Counters
	Trees    *treeSet
}

// oracleRun enumerates one input with the serial engine, called directly
// (the passes go through the public entry points, at one and two threads).
func oracleRun(in *input, withTrees bool) (expected, error) {
	cons, err := parseInput(in)
	if err != nil {
		return expected{}, fmt.Errorf("oracle: %w", err)
	}
	exp := expected{}
	opt := search.Options{InitialTree: -1, Limits: unlimited}
	if withTrees {
		exp.Trees = &treeSet{}
		opt.OnTree = exp.Trees.addString
	}
	res, err := search.Run(cons, opt)
	if err != nil {
		return expected{}, fmt.Errorf("oracle %s: %w", in.Name, err)
	}
	if res.Stop != search.StopExhausted {
		return expected{}, fmt.Errorf("oracle %s: stopped %v", in.Name, res.Stop)
	}
	exp.Counters = res.Counters
	return exp, nil
}

// observed is what one unit of a pass produced, in the oracle's terms.
type observed struct {
	Counters search.Counters
	Stop     string
	Trees    *treeSet // nil when the pass emitted no trees
}

// check compares a pass's unit with the oracle and names the first
// difference; "" means the unit is correct.
func (exp expected) check(got observed) string {
	if got.Stop != search.StopExhausted.String() {
		return "stop " + got.Stop
	}
	if got.Counters != exp.Counters {
		return fmt.Sprintf("counters %+v, oracle %+v", got.Counters, exp.Counters)
	}
	if got.Trees != nil && exp.Trees != nil && *got.Trees != *exp.Trees {
		return fmt.Sprintf("trees %+v, oracle %+v", *got.Trees, *exp.Trees)
	}
	return ""
}

// ledger counts operations: every pass of every variant is one, and it
// fails when any of its units differs from the oracle or errs.
type ledger struct {
	Attempted int
	Failed    int
	Failures  []string // first few, for the report
}

func (l *ledger) record(op string, problems []string) {
	l.Attempted++
	if len(problems) == 0 {
		return
	}
	l.Failed++
	if len(l.Failures) < 8 {
		l.Failures = append(l.Failures, op+": "+problems[0])
	}
}
