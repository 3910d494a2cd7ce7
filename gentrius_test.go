package gentrius

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestEnumerateStandQuickstart(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D", "E"})
	c1 := MustParseTree("((A,B),(C,D));", taxa)
	c2 := MustParseTree("((A,B),(C,E));", taxa)
	res, err := EnumerateStand([]*Tree{c1, c2}, Options{
		Threads: 1, InitialTree: UseInitialTreeHeuristic, CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete() {
		t.Fatalf("stop = %v", res.Stop)
	}
	if res.StandTrees < 1 || int(res.StandTrees) != len(res.Trees) {
		t.Fatalf("trees %d, collected %d", res.StandTrees, len(res.Trees))
	}
	// Parallel agrees.
	par, err := EnumerateStand([]*Tree{c1, c2}, Options{
		Threads: 4, InitialTree: UseInitialTreeHeuristic, CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.StandTrees != res.StandTrees {
		t.Fatalf("parallel %d vs serial %d", par.StandTrees, res.StandTrees)
	}
	if par.Threads != 4 || res.Threads != 1 {
		t.Fatal("Threads field wrong")
	}
}

func TestEnumerateFromSpeciesTree(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D", "E", "F"})
	sp := MustParseTree("((A,(B,C)),(D,(E,F)));", taxa)
	m := NewPAM(taxa, 2)
	for _, i := range []int{0, 1, 2, 3} {
		m.Set(i, 0)
	}
	for _, i := range []int{2, 3, 4, 5} {
		m.Set(i, 1)
	}
	res, err := EnumerateFromSpeciesTree(sp, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.StandTrees < 1 {
		t.Fatal("species tree not in its own stand")
	}
	// The species tree must be a member.
	found := false
	res2, err := EnumerateFromSpeciesTree(sp, m, Options{
		Threads: 1, InitialTree: UseInitialTreeHeuristic, CollectTrees: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, nw := range res2.Trees {
		if nw == sp.Newick() {
			found = true
		}
	}
	if !found {
		t.Fatal("species tree missing from its stand")
	}
}

func TestEnumerateErrors(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D", "E"})
	if _, err := EnumerateStand(nil, DefaultOptions()); err == nil {
		t.Fatal("expected error for empty constraints")
	}
	sp := MustParseTree("((A,B),(C,(D,E)));", taxa)
	m := NewPAM(taxa, 1) // empty locus: invalid
	if _, err := EnumerateFromSpeciesTree(sp, m, DefaultOptions()); err == nil {
		t.Fatal("expected PAM validation error")
	}
	m2 := NewPAM(taxa, 1)
	for i := 0; i < 5; i++ {
		m2.Set(i, 0)
	}
	res, err := EnumerateFromSpeciesTree(sp, m2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.StandTrees != 1 {
		t.Fatalf("full PAM should pin the species tree; got %d", res.StandTrees)
	}
}

func TestOnTreeStreaming(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D", "E"})
	c1 := MustParseTree("((A,B),(C,D));", taxa)
	c2 := MustParseTree("((A,B),(C,E));", taxa)
	var got []string
	_, err := EnumerateStand([]*Tree{c1, c2}, Options{
		Threads: 1, InitialTree: UseInitialTreeHeuristic,
		OnTree: func(nw string) { got = append(got, nw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("OnTree never called")
	}
	var gotPar []string
	_, err = EnumerateStand([]*Tree{c1, c2}, Options{
		Threads: 2, InitialTree: UseInitialTreeHeuristic,
		OnTree: func(nw string) { gotPar = append(gotPar, nw) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPar) != len(got) {
		t.Fatalf("parallel OnTree delivered %d, serial %d", len(gotPar), len(got))
	}
}

func TestStoppingRulesSurface(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"})
	// One loose quartet over 10 taxa: a big stand, certain to hit a 3-tree cap.
	c1 := MustParseTree("((A,B),(C,D));", taxa)
	c2 := MustParseTree("((G,H),(I,(J,(E,(F,A)))));", taxa)
	res, err := EnumerateStand([]*Tree{c1, c2}, Options{
		Threads: 1, InitialTree: UseInitialTreeHeuristic, MaxTrees: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stop != StopTreeLimit {
		t.Fatalf("stop = %v, want tree-limit", res.Stop)
	}
	if res.Complete() {
		t.Fatal("Complete() should be false")
	}
	res2, err := EnumerateStand([]*Tree{c1, c2}, Options{
		Threads: 1, InitialTree: UseInitialTreeHeuristic, MaxTime: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stop != StopTimeLimit {
		t.Fatalf("stop = %v, want time-limit", res2.Stop)
	}
}

func TestReadWriteTrees(t *testing.T) {
	in := "((A,B),(C,D));\n# comment\n\n((A,C),(B,D));\n"
	trees, taxa, err := ReadTrees(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 2 || taxa.Len() != 4 {
		t.Fatalf("read %d trees over %d taxa", len(trees), taxa.Len())
	}
	var buf bytes.Buffer
	if err := WriteTrees(&buf, trees); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadTrees(strings.NewReader(buf.String()), taxa)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trees {
		if !back[i].SameTopology(trees[i]) {
			t.Fatal("round trip changed topology")
		}
	}
	if _, _, err := ReadTrees(strings.NewReader("\n#x\n"), nil); err == nil {
		t.Fatal("expected error for empty tree file")
	}
}

func TestReadPAMFacade(t *testing.T) {
	in := "3 2\nA 1 0\nB 1 1\nC 0 1\n"
	m, err := ReadPAM(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTaxa() != 3 || m.NumLoci() != 2 || !m.Has(1, 1) {
		t.Fatal("PAM read wrong")
	}
}

func TestReadTreesThenEnumerate(t *testing.T) {
	// Regression: taxa that first appear in later trees must not leave
	// earlier trees with undersized internal arrays (the reader fits every
	// tree to the universe after the last line).
	in := "((A,B),(C,D));\n((A,B),(C,E));\n((D,E),(A,F));\n"
	cons, _, err := ReadTrees(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := EnumerateStand(cons, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.StandTrees < 1 {
		t.Fatalf("stand = %d", res.StandTrees)
	}
}

// A UTF-8 byte-order mark before the first line is not part of the first
// label (nor does it hide a #NEXUS header), and CRLF line ends are line ends.
func TestReadTreesBOMAndCRLF(t *testing.T) {
	const bom = "\xef\xbb\xbf"
	text := bom + "((A,B),(C,D));\r\n\r\n# comment\r\n((A,C),(B,E));\r\n"
	readers := map[string]func(string) ([]*Tree, *Taxa, error){
		"ReadTrees":     func(s string) ([]*Tree, *Taxa, error) { return ReadTrees(strings.NewReader(s), nil) },
		"ReadTreesAuto": func(s string) ([]*Tree, *Taxa, error) { return ReadTreesAuto(strings.NewReader(s)) },
	}
	for name, read := range readers {
		trees, taxa, err := read(text)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := strings.Join(taxa.Names(), " "); len(trees) != 2 || got != "A B C D E" {
			t.Fatalf("%s: %d trees over %q, want 2 over A B C D E", name, len(trees), got)
		}
	}
	nex := bom + "#NEXUS\r\nBEGIN TREES;\r\n TREE a = ((A,B),(C,D));\r\nEND;\r\n"
	trees, taxa, err := ReadTreesAuto(strings.NewReader(nex))
	if err != nil || len(trees) != 1 || taxa.Len() != 4 {
		t.Fatalf("NEXUS behind a byte-order mark: %d trees, %v", len(trees), err)
	}
}

func TestReadTreesFixedUniverse(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D"})
	if _, _, err := ReadTrees(strings.NewReader("((A,B),(C,D));\n\n((A,B),(C,Z));\n"), taxa); err == nil ||
		!strings.Contains(err.Error(), "line 3:") {
		t.Fatalf("unknown label under a caller's universe: got %v, want a line 3 error", err)
	}
	if taxa.Len() != 4 {
		t.Fatalf("caller's universe grew to %d taxa", taxa.Len())
	}
}

// One tree on one line longer than the scanner's starting buffer and longer
// than 1 MiB reads; a line of nothing but '(' is refused by the nesting cap
// rather than by the stack.
func TestReadTreesLongLines(t *testing.T) {
	const leaves = 1 << 17
	var b strings.Builder
	var balanced func(lo, hi int)
	balanced = func(lo, hi int) {
		if hi-lo == 1 {
			fmt.Fprintf(&b, "t%06d", lo)
			return
		}
		b.WriteByte('(')
		balanced(lo, (lo+hi)/2)
		b.WriteByte(',')
		balanced((lo+hi)/2, hi)
		b.WriteByte(')')
	}
	balanced(0, leaves)
	b.WriteString(";\n")
	if b.Len() <= 1<<20 {
		t.Fatalf("test line is only %d bytes", b.Len())
	}
	trees, taxa, err := ReadTrees(strings.NewReader(b.String()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 1 || trees[0].NumLeaves() != leaves || taxa.Len() != leaves || trees[0].NumEdges() != 2*leaves-3 {
		t.Fatalf("read %d trees, %d leaves, %d taxa", len(trees), trees[0].NumLeaves(), taxa.Len())
	}
	_, _, err = ReadTrees(strings.NewReader("(A,B);\n"+strings.Repeat("(", 120000)), nil)
	if err == nil || !strings.Contains(err.Error(), "line 2:") || !strings.Contains(err.Error(), "nested deeper") {
		t.Fatalf("120000 open groups: got %v, want the nesting cap on line 2", err)
	}
}

// TestReadTreesLinePast64KiB: the scanner's line buffer starts small and
// grows, so a line longer than 64 KiB between two short ones still parses —
// and a small file no longer costs a 64 KiB buffer it never fills.
func TestReadTreesLinePast64KiB(t *testing.T) {
	const leaves = 1 << 13
	var long strings.Builder // a caterpillar: (t000000,(t000001,(...)))
	for i := 0; i < leaves-1; i++ {
		fmt.Fprintf(&long, "(t%06d,", i)
	}
	fmt.Fprintf(&long, "t%06d%s;", leaves-1, strings.Repeat(")", leaves-1))
	if long.Len() <= 64<<10 {
		t.Fatalf("test line is only %d bytes", long.Len())
	}
	in := "(t000000,t000001,t000002);\n" + long.String() + "\n(t000003,t000004,t000005);\n"
	trees, taxa, err := ReadTrees(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(trees) != 3 || taxa.Len() != leaves || trees[1].NumLeaves() != leaves || trees[2].NumLeaves() != 3 {
		t.Fatalf("read %d trees over %d taxa", len(trees), taxa.Len())
	}

	small := "((A,B),(C,D));\n((A,B),(C,E));\n"
	bytes := ^uint64(0)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, _, err := ReadTrees(strings.NewReader(small), nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	if bytes > 32<<10 {
		t.Fatalf("reading two 5-taxon trees allocates %d bytes", bytes)
	}
}

func TestReadTreesAutoNexus(t *testing.T) {
	nex := "#NEXUS\nBEGIN TREES;\n TREE a = ((A,B),(C,D));\n TREE b = ((A,B),(C,E));\nEND;\n"
	cons, taxa, err := ReadTreesAuto(strings.NewReader(nex))
	if err != nil {
		t.Fatal(err)
	}
	if len(cons) != 2 || taxa.Len() != 5 {
		t.Fatalf("NEXUS auto-read: %d trees, %d taxa", len(cons), taxa.Len())
	}
	res, err := EnumerateStand(cons, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.StandTrees < 1 {
		t.Fatal("empty stand")
	}
	// Plain Newick path still works through the same entry point.
	plain := "((A,B),(C,D));\n"
	cons2, _, err := ReadTreesAuto(strings.NewReader(plain))
	if err != nil || len(cons2) != 1 {
		t.Fatalf("plain auto-read failed: %v", err)
	}
	// NEXUS writer round-trips.
	var buf bytes.Buffer
	if err := WriteNexus(&buf, taxa, cons); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadTreesAuto(&buf)
	if err != nil || len(back) != 2 {
		t.Fatalf("nexus round trip: %v", err)
	}
}
