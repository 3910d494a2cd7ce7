package search

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// checkBlock fails unless block is n whole lines, n at least one.
func checkBlock(t *testing.T, block []byte, n int) {
	t.Helper()
	if n < 1 || len(block) == 0 || block[len(block)-1] != '\n' || bytes.Count(block, []byte("\n")) != n {
		t.Fatalf("block of %d bytes said to hold %d trees: %q", len(block), n, block)
	}
}

// TestBlockEveryCheckpointIsExact: a serial run that snapshots at every
// stopping-rule check hands its trees on before each cut — the snapshot's
// stand-tree count is the number of trees delivered so far, not one more and
// not one fewer — so what was delivered up to a cut followed by what the
// resumed run delivers is the uninterrupted run's output byte for byte. The
// blocks are those bytes in order: whole lines, never empty, the first tree
// alone, none longer than BlockSize; and the string form of the same run is
// the same lines.
func TestBlockEveryCheckpointIsExact(t *testing.T) {
	cons := midStand(t, 1717)
	unlimited := Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	ref, err := Run(cons, Options{InitialTree: -1, Limits: unlimited, CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join(ref.Trees, "\n") + "\n"

	type cut struct {
		cp        *Checkpoint
		delivered int // bytes
	}
	var out bytes.Buffer
	var cuts []cut
	trees, blocks := int64(0), 0
	res, err := Run(cons, Options{InitialTree: -1, Limits: unlimited, CheckEvery: 64,
		OnTrees: func(block []byte, n int) {
			checkBlock(t, block, n)
			if blocks++; (blocks == 1 && n != 1) || len(block) > BlockSize {
				t.Fatalf("block %d: %d trees in %d bytes", blocks, n, len(block))
			}
			out.Write(block)
			trees += int64(n)
		},
		Checkpoint: CheckpointPolicy{Interval: time.Nanosecond, Sink: func(cp *Checkpoint) {
			if cp.Counters.StandTrees != trees {
				t.Fatalf("a checkpoint counts %d stand trees, %d were delivered", cp.Counters.StandTrees, trees)
			}
			cuts = append(cuts, cut{cp, out.Len()})
		}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != ref.Counters || out.String() != want {
		t.Fatalf("block run: %+v and %d bytes, string run %+v and %d bytes", res.Counters, out.Len(), ref.Counters, len(want))
	}
	if len(cuts) < 8 || blocks < 8 {
		t.Fatalf("%d checkpoints and %d blocks do not exercise the cuts", len(cuts), blocks)
	}
	// With no check in the way, size alone cuts the blocks: after the first
	// tree, every block but the last has no room for one more.
	var sizes []int
	out.Reset()
	if _, err := Run(cons, Options{InitialTree: -1, Limits: unlimited, CheckEvery: 1 << 30,
		OnTrees: func(block []byte, n int) {
			checkBlock(t, block, n)
			out.Write(block)
			sizes = append(sizes, len(block))
		}}); err != nil {
		t.Fatal(err)
	}
	if out.String() != want || len(sizes) < 4 {
		t.Fatalf("%d bytes in %d blocks, want %d", out.Len(), len(sizes), len(want))
	}
	for i, size := range sizes[1 : len(sizes)-1] {
		if size > BlockSize || size+sizes[0] <= BlockSize {
			t.Fatalf("block %d of %d is %d bytes, a tree %d", i+1, len(sizes), size, sizes[0])
		}
	}

	for i := 0; i < len(cuts); i += len(cuts) / 8 {
		var rest bytes.Buffer
		got, err := Run(cons, Options{Limits: unlimited,
			OnTrees:    func(block []byte, _ int) { rest.Write(block) },
			Checkpoint: CheckpointPolicy{Resume: cuts[i].cp}})
		if err != nil {
			t.Fatal(err)
		}
		if got.Counters != ref.Counters || want[:cuts[i].delivered]+rest.String() != want {
			t.Fatalf("cut %d of %d: resumed to %+v with %d bytes after %d, want %+v and %d in all",
				i, len(cuts), got.Counters, rest.Len(), cuts[i].delivered, ref.Counters, len(want))
		}
	}
}

// TestBlockSinkAllocations: a serial run that hands its stand to a block
// sink allocates what a counting run does plus the block and the Newick
// writer's scratch, however many trees there are.
func TestBlockSinkAllocations(t *testing.T) {
	cons := midStand(t, 1717)
	run := func(sink func([]byte, int)) func() {
		return func() {
			if _, err := Run(cons, Options{InitialTree: -1, OnTrees: sink}); err != nil {
				t.Fatal(err)
			}
		}
	}
	trees := 0
	counting := testing.AllocsPerRun(5, run(nil))
	blocks := testing.AllocsPerRun(5, run(func(_ []byte, n int) { trees += n }))
	if trees < 6*1000 {
		t.Fatalf("a stand of %d trees is too small to tell O(1) from O(trees)", trees/6)
	}
	if blocks > counting+16 {
		t.Fatalf("a run with a block sink makes %v allocations, a counting run %v", blocks, counting)
	}
}
