package search_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"gentrius/internal/dist"
	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

var unlimited = search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}

// sinkStand is a stand of 2 835 trees in a few blocks, on constraints whose
// Newick text reads back to itself, so that the fleet's coordinator, which
// re-reads its input, numbers the taxa as every other entry point does.
func sinkStand(t testing.TB) []*tree.Tree {
	t.Helper()
	cons := gen.Generate(gen.Default(gen.RegimeSimulated), 12).Constraints
	for range 5 {
		lines := make([]string, len(cons))
		for i, c := range cons {
			lines[i] = c.Newick()
		}
		back, err := tree.ReadLines(lines)
		if err != nil {
			t.Fatal(err)
		}
		if slices.EqualFunc(back, cons, func(a, b *tree.Tree) bool { return a.Newick() == b.Newick() }) {
			return back
		}
		cons = back
	}
	t.Fatal("the constraints' Newick text never reads back to itself")
	return nil
}

// fleetRun enumerates the stand as a job of a coordinator with two in-process
// workers.
func fleetRun(t *testing.T, cons []*tree.Tree, opt search.Options) *dist.Result {
	t.Helper()
	var coord *dist.Coordinator
	var peers []dist.WorkerClient
	for _, name := range []string{"a", "b"} {
		w := dist.NewWorker(dist.WorkerConfig{Name: name,
			Dial: func(string) dist.CoordinatorClient { return &dist.LocalCoordinatorClient{C: coord} }})
		peers = append(peers, &dist.LocalWorkerClient{WorkerName: name, W: w})
	}
	coord = dist.NewCoordinator(dist.Config{Peers: peers, Shards: 4})
	res, err := coord.Run(context.Background(), "sink", cons, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestTreeSinkForms: every entry point, asked for any of the eight
// combinations of CollectTrees, OnTree and OnTrees, hands each form it was
// asked for the serial stand — in order from search.Run, as a multiset from
// the others — and nothing in a form it was not asked for. The simulator
// offers CollectTrees alone.
func TestTreeSinkForms(t *testing.T) {
	cons := sinkStand(t)
	ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := []struct {
		name    string
		ordered bool
		run     func(collect bool, onTree func(string), onTrees func([]byte, int)) []string
	}{
		{"search.Run", true, func(collect bool, onTree func(string), onTrees func([]byte, int)) []string {
			res, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited,
				CollectTrees: collect, OnTree: onTree, OnTrees: onTrees})
			if err != nil {
				t.Fatal(err)
			}
			return res.Trees
		}},
		{"parallel.Run", false, func(collect bool, onTree func(string), onTrees func([]byte, int)) []string {
			res, err := parallel.Run(cons, search.Options{Threads: 2, InitialTree: -1, Limits: unlimited,
				CollectTrees: collect, OnTree: onTree, OnTrees: onTrees})
			if err != nil {
				t.Fatal(err)
			}
			return res.Trees
		}},
		{"dist", false, func(collect bool, onTree func(string), onTrees func([]byte, int)) []string {
			return fleetRun(t, cons, search.Options{InitialTree: -1, Limits: unlimited,
				CollectTrees: collect, OnTree: onTree, OnTrees: onTrees}).Trees
		}},
		{"parallel.Simulate", false, func(collect bool, onTree func(string), onTrees func([]byte, int)) []string {
			res, err := parallel.Simulate(cons, search.Options{
				Threads: 2, InitialTree: -1, Limits: search.Limits{MaxTrees: -1, MaxStates: -1},
				CollectTrees: collect,
			}, parallel.VirtualTime{})
			if err != nil {
				t.Fatal(err)
			}
			return res.Trees
		}},
	}
	for _, e := range entries {
		for combo := range 8 {
			collect, wantStrings, wantBlocks := combo&1 != 0, combo&2 != 0, combo&4 != 0
			if e.name == "parallel.Simulate" && (wantStrings || wantBlocks) {
				continue
			}
			t.Run(fmt.Sprintf("%s/collect=%v,OnTree=%v,OnTrees=%v", e.name, collect, wantStrings, wantBlocks), func(t *testing.T) {
				var strs, lines []string
				var blocks []byte
				var onTree func(string)
				var onTrees func([]byte, int)
				if wantStrings {
					onTree = func(nw string) { strs = append(strs, nw) }
				}
				if wantBlocks {
					onTrees = func(b []byte, n int) {
						if strings.Count(string(b), "\n") != n {
							t.Errorf("a block of %d trees holds %d lines", n, strings.Count(string(b), "\n"))
						}
						blocks = append(blocks, b...)
					}
				}
				collected := e.run(collect, onTree, onTrees)
				if len(blocks) > 0 {
					lines = strings.Split(strings.TrimSuffix(string(blocks), "\n"), "\n")
				}
				for _, f := range []struct {
					name   string
					asked  bool
					handed []string
				}{{"CollectTrees", collect, collected}, {"OnTree", wantStrings, strs}, {"OnTrees", wantBlocks, lines}} {
					want := ref.Trees
					if !f.asked {
						want = nil
					}
					if !e.ordered {
						f.handed, want = sorted(f.handed), sorted(want)
					}
					if !slices.Equal(f.handed, want) {
						t.Errorf("%s: %d trees, want %d of the serial stand", f.name, len(f.handed), len(want))
					}
				}
			})
		}
	}
}

func sorted(s []string) []string {
	if s == nil {
		return nil
	}
	s = slices.Clone(s)
	slices.Sort(s)
	return s
}

// TestOnTreeAllocations: a serial run that hands on strings allocates what one
// that hands on blocks does, plus one string per block.
func TestOnTreeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cons := sinkStand(t)
	blocks := 0
	if _, err := search.Run(cons, search.Options{InitialTree: -1, OnTrees: func([]byte, int) { blocks++ }}); err != nil {
		t.Fatal(err)
	}
	// The bound has no slack, and a goroutine an earlier test left exiting
	// allocates into the count too: the least of three measurements. A
	// collection cycle adds allocations of the runtime's own, and a run that
	// hands on strings allocates 2 MB, so how many cycles 20 runs see moved
	// with the live heap earlier tests left behind: the collector is off
	// while the runs are counted and runs once before each measurement.
	run := func(opt search.Options) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		least := math.Inf(1)
		for i := 0; i < 3; i++ {
			runtime.GC()
			least = min(least, testing.AllocsPerRun(20, func() {
				if _, err := search.Run(cons, opt); err != nil {
					t.Fatal(err)
				}
			}))
		}
		return least
	}
	emit := run(search.Options{InitialTree: -1, OnTrees: func([]byte, int) {}})
	strs := run(search.Options{InitialTree: -1, OnTree: func(string) {}})
	t.Logf("%d blocks: %.0f allocations handing on blocks, %.0f handing on strings", blocks, emit, strs)
	if blocks < 3 || strs > emit+float64(blocks) {
		t.Fatalf("%.0f allocations handing on strings, %.0f handing on %d blocks", strs, emit, blocks)
	}
}

// TestOnTreeStringsOutliveBlocks: a string OnTree was handed still reads the
// same after the buffer it was rendered into has been reused for later
// blocks — the engine's own OnTree, search.Run's and the pool's — so each is
// a copy, not a view of the buffer.
func TestOnTreeStringsOutliveBlocks(t *testing.T) {
	cons := sinkStand(t)
	runs := map[string]func(onTree func(string), onTrees func([]byte, int)){
		"Engine": func(onTree func(string), onTrees func([]byte, int)) {
			tr, err := terrace.New(cons, search.ChooseInitialTree(cons))
			if err != nil {
				t.Fatal(err)
			}
			eng := search.NewEngine(tr)
			eng.OnTree = onTree
			eng.OnTrees = func(b []byte, n int) []byte { onTrees(b, n); return b }
			for eng.Step() != search.EvDone {
			}
		},
		"search.Run": func(onTree func(string), onTrees func([]byte, int)) {
			if _, err := search.Run(cons, search.Options{InitialTree: -1, OnTree: onTree, OnTrees: onTrees}); err != nil {
				t.Fatal(err)
			}
		},
		"parallel.Run": func(onTree func(string), onTrees func([]byte, int)) {
			if _, err := parallel.Run(cons, search.Options{Threads: 2, InitialTree: -1, OnTree: onTree, OnTrees: onTrees}); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range runs {
		var kept []string
		var copied []byte
		blocks := 0
		run(func(nw string) { kept = append(kept, nw) }, func(b []byte, _ int) {
			copied = append(copied, b...)
			blocks++
		})
		if got := strings.Join(kept, "\n") + "\n"; blocks < 3 || got != string(copied) {
			t.Errorf("%s: the %d strings kept from %d blocks no longer read as the blocks did", name, len(kept), blocks)
		}
	}
}

// TestTreeSinkCopiesBytesOnly: a sink hands a block held as bytes to OnTrees
// as it is, and one held as a string to OnTree without a copy; only the
// conversion between the two allocates.
func TestTreeSinkCopiesBytesOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	block := "(a,b,(c,d));\n(a,c,(b,d));\n"
	bytesOf := []byte(block)
	var handed []byte
	toBlocks := search.TreeSink[[]byte](false, nil, nil, func(b []byte, _ int) { handed = b })
	toStrings := search.TreeSink[string](false, nil, func(string) {}, nil)
	if n := testing.AllocsPerRun(10, func() { toBlocks(bytesOf, 2) }); n != 0 || &handed[0] != &bytesOf[0] {
		t.Errorf("bytes to OnTrees: %.0f allocations, the block copied %v", n, &handed[0] != &bytesOf[0])
	}
	if n := testing.AllocsPerRun(10, func() { toStrings(block, 2) }); n != 0 {
		t.Errorf("a string to OnTree: %.0f allocations", n)
	}
	if search.TreeSink[string](false, nil, nil, nil) != nil {
		t.Error("a sink for nobody")
	}
}
