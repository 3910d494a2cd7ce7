package dist

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// checkLog verifies what every treeLog must satisfy: one mark per block, and
// each block is whole lines, as many as its mark adds.
func checkLog(t testing.TB, l *treeLog) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.marks) != len(l.blocks) {
		t.Fatalf("%d marks for %d blocks", len(l.marks), len(l.blocks))
	}
	trees := 0
	for i, b := range l.blocks {
		trees += strings.Count(b, "\n")
		if trees != l.marks[i] || (b != "" && !strings.HasSuffix(b, "\n")) {
			t.Fatalf("block %d %q: mark %d, %d lines up to here", i, b, l.marks[i], trees)
		}
	}
}

func TestTreeLogCutsAndPuts(t *testing.T) {
	l := new(treeLog)
	l.Append([]byte("a;\nb;\n"), 2)
	l.Append(nil, 0)
	l.Append([]byte("c;\n"), 1)
	l.Append([]byte("d;\ne;\nf;\n"), 3)
	checkLog(t, l)
	if l.Trees() != 6 || (*treeLog)(nil).Trees() != 0 {
		t.Fatalf("%d trees held, want 6 (and none by a nil log)", l.Trees())
	}

	for _, c := range []struct {
		at, to int
		n      int
		want   string // the blocks, joined
	}{
		{0, 2, 2, "a;\nb;\n"},
		{2, 3, 1, "c;\n"},
		{0, 6, 6, "a;\nb;\nc;\nd;\ne;\nf;\n"},
		{3, 3, 0, ""},
		{0, 0, 0, ""},
		{1, 3, 0, ""}, // inside a block
		{3, 5, 0, ""}, // inside a block
		{3, 7, 0, ""}, // past the end
		{6, 3, 0, ""}, // backwards
		{-1, 3, 0, ""},
	} {
		got := l.Cut(c.at, c.to)
		if got.TreesAt != c.at || got.TreesN != c.n || strings.Join(got.Trees, "") != c.want {
			t.Errorf("Cut(%d, %d) = %+v, want %d trees %q", c.at, c.to, got, c.n, c.want)
		}
	}
	if got := (*treeLog)(nil).Cut(0, 5); got.TreesAt != 0 || got.TreesN != 0 || got.Trees != nil {
		t.Errorf("a nil log cut %+v", got)
	}

	// Refused: nothing changes.
	for _, c := range []struct {
		at     int
		blocks []string
		n      int
	}{
		{1, []string{"x;\n"}, 1},          // no such cut
		{7, []string{"x;\n"}, 1},          // past the end
		{-1, []string{"x;\n"}, 1},         // before the start
		{3, []string{"x;\ny;"}, 1},        // not whole lines
		{3, []string{"x;\n", "y;"}, 1},    // not whole lines
		{3, []string{"x;\n", ""}, 1},      // an empty block
		{3, []string{"x;\ny;\n"}, 1},      // more lines than trees
		{3, []string{"x;\n"}, 2},          // fewer
		{3, []string{"x;\n", "y;\n"}, 1},  // more, over two blocks
		{3, nil, -1},                      // fewer than none
		{3, []string{"x;\n"}, 1 << 62},    // absurd
		{1 << 62, []string{"x;\n"}, 1},    // absurd
		{3, []string{"x;\n"}, -(1 << 62)}, // absurd
	} {
		if l.Put(c.at, c.blocks, c.n) {
			t.Errorf("Put(%d, %q, %d) accepted", c.at, c.blocks, c.n)
		}
	}
	checkLog(t, l)
	if d := l.Cut(0, 6); d.TreesN != 6 {
		t.Fatalf("a refused Put changed the log: %+v", d)
	}

	// Behind a cut: what was there goes. The same Put again changes nothing;
	// one further back drops both.
	for i := 0; i < 2; i++ {
		if !l.Put(3, []string{"x;\n", "y;\nz;\n"}, 3) {
			t.Fatal("Put behind cut 3 refused")
		}
		checkLog(t, l)
		if d := l.Cut(0, 6); l.Trees() != 6 || strings.Join(d.Trees, "") != "a;\nb;\nc;\nx;\ny;\nz;\n" {
			t.Fatalf("after Put at 3: %d trees, %+v", l.Trees(), d)
		}
	}
	for _, c := range []struct {
		at     int
		blocks []string
		n      int
	}{{6, nil, 0}, {4, nil, 0}, {2, []string{"w;\n"}, 1}, {0, nil, 0}} {
		if !l.Put(c.at, c.blocks, c.n) || l.Trees() != c.at+c.n {
			t.Fatalf("Put(%d, %q, %d) refused, or left %d trees", c.at, c.blocks, c.n, l.Trees())
		}
		checkLog(t, l)
	}
}

// TestTreeLogAppendWhileCutting: the engine's collector appends while the
// heartbeat loop cuts, and what was cut stays as it was (go test -race).
func TestTreeLogAppendWhileCutting(t *testing.T) {
	l := new(treeLog)
	sink := l.Append
	const blocks = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < blocks; i++ {
			sink([]byte("t;\nu;\n"), 2)
		}
	}()
	var cuts [][]string
	for at := 0; at < 2*blocks; {
		to := l.Trees()
		d := l.Cut(at, to)
		if d.TreesN != to-at || 2*len(d.Trees) != d.TreesN {
			t.Fatalf("cut (%d, %d] has %d trees in %d blocks", at, to, d.TreesN, len(d.Trees))
		}
		cuts = append(cuts, d.Trees)
		at = to
	}
	wg.Wait()
	checkLog(t, l)
	if all := slices.Concat(cuts...); len(all) != blocks || slices.ContainsFunc(all, func(b string) bool { return b != "t;\nu;\n" }) {
		t.Fatalf("the cuts hold %d blocks, want the %d appended", len(all), blocks)
	}
}
