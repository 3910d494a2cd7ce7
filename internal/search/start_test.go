package search

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// TestStart pins the run set-up every driver shares (pool, simulator, fleet
// coordinator): what each kind of input turns into before any worker runs.
func TestStart(t *testing.T) {
	taxa := tree.MustTaxa([]string{"A", "B", "C", "D", "E"})
	parse := func(nw ...string) []*tree.Tree {
		out := make([]*tree.Tree, len(nw))
		for i, s := range nw {
			out[i] = tree.MustParse(s, taxa)
		}
		return out
	}
	full := parse("((A,B),(C,(D,E)));")
	// Both place E next to a different leaf of the initial quartet: each is
	// compatible with it, but E's admissible branches do not intersect.
	deadEnd := parse("((A,B),(C,D));", "((A,E),(B,(C,D)));", "((B,E),(A,(C,D)));")

	terminal := []struct {
		name     string
		cons     []*tree.Tree
		initial  int
		counters Counters
		leaves   int64
		tree     bool
	}{
		{"incompatible constraints: empty stand",
			parse("((A,B),(C,D));", "((A,C),(B,(D,E)));"), -1, Counters{}, 0, false},
		{"prefix completes the single tree", full, 0, Counters{StandTrees: 1}, 1, true},
		{"prefix ends in a dead end", deadEnd, 0, Counters{DeadEnds: 1}, 1, false},
	}
	for _, tc := range terminal {
		su, err := Start(tc.cons, tc.initial, OrderMinBranches, nil, nil, 4)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(su.Frontier.Tasks) != 0 || su.Resumed {
			t.Fatalf("%s: %d tasks (resumed %v), want nothing to run", tc.name, len(su.Frontier.Tasks), su.Resumed)
		}
		if su.Counters != tc.counters || su.Leaves != tc.leaves || su.LeafMass != float64(tc.leaves) {
			t.Fatalf("%s: counters %+v, leaf mass %v over %d leaves", tc.name, su.Counters, su.LeafMass, su.Leaves)
		}
		if (su.Tree != "") != tc.tree {
			t.Fatalf("%s: tree %q", tc.name, su.Tree)
		}
	}

	if _, err := Start(full, 1, OrderMinBranches, nil, nil, 1); err == nil {
		t.Fatal("initial index 1 of 1 constraint accepted")
	}

	// A fresh root frontier is the whole space, however many ways it is cut:
	// n contiguous shares (at most one per branch) of total mass 1, which a
	// private terrace at I_0 can start on.
	cons := chainConstraints(t, 4, 4)
	var branches int
	for _, n := range []int{0, 1, 3, 1000} {
		su, err := Start(cons, -1, OrderMinBranches, nil, nil, n)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			branches = len(su.Frontier.Tasks) // one task per branch
		}
		want := n
		if n == 0 || n > branches {
			want = branches
		}
		if len(su.Frontier.Tasks) != want || branches < 2 {
			t.Fatalf("n=%d: %d tasks of %d branches, want %d", n, len(su.Frontier.Tasks), branches, want)
		}
		if rem := su.Frontier.RemainingMass(); math.Abs(rem-1) > 1e-12 || su.LeafMass != 0 {
			t.Fatalf("n=%d: remaining mass %v, consumed %v", n, rem, su.LeafMass)
		}
		tr := su.NewTerrace()
		if tr.Depth() != len(su.Frontier.Prefix) {
			t.Fatalf("n=%d: terrace at depth %d, prefix has %d steps", n, tr.Depth(), len(su.Frontier.Prefix))
		}
		// The walked Terrace was not consumed by handing out a clone of it.
		if su.proto.Depth() != tr.Depth() || su.proto.Signature() != tr.Signature() {
			t.Fatalf("n=%d: NewTerrace is not a copy of the prototype", n)
		}
		if err := NewEngine(tr).Reset(su.Frontier.Tasks[0].Frames); err != nil {
			t.Fatal(err)
		}
	}

	// Resume: a frontier keeps its tasks, carries the checkpoint's counters
	// and consumed mass, and a checkpoint of other input is refused.
	cp, cons2 := frontierSample(t, rand.New(rand.NewSource(4242)))
	su, err := Start(cons2, 99, OrderMaxBranches, nil, cp, 4) // index, heuristic, n: ignored
	if err != nil {
		t.Fatal(err)
	}
	if !su.Resumed || su.InitialIndex != cp.InitialIndex || su.Heuristic != cp.Heuristic || su.Counters != cp.Counters {
		t.Fatalf("setup %+v does not continue the checkpoint", su)
	}
	if len(su.Frontier.Tasks) != 1 || math.Abs(su.LeafMass+su.Frontier.RemainingMass()-1) > 1e-12 {
		t.Fatalf("%d tasks, consumed %v + remaining %v",
			len(su.Frontier.Tasks), su.LeafMass, su.Frontier.RemainingMass())
	}
	if _, err := Start(cons, -1, OrderMinBranches, nil, cp, 4); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("other input: %v, want ErrFingerprint", err)
	}
}

// TestStartRefusesBadPrefix: a checkpoint whose fingerprint matches but
// whose prefix path could not have come from a run is an error from Start,
// before any worker replays it.
func TestStartRefusesBadPrefix(t *testing.T) {
	cons := chainConstraints(t, 4, 4)
	su, err := Start(cons, -1, OrderMinBranches, nil, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := su.Checkpoint(su.Counters, 2, su.Frontier.Tasks)
	if _, err := Start(cons, -1, OrderMinBranches, nil, good, 2); err != nil {
		t.Fatalf("the untampered checkpoint: %v", err)
	}
	x := su.proto.MissingTaxa()[0]
	first := PathStep{Taxon: x, Edge: su.proto.Clone().AllowedBranches(x)[0]} // a step a run could have taken
	for name, prefix := range map[string][]PathStep{
		"edge out of range":   {{Taxon: first.Taxon, Edge: 99999}},
		"negative edge":       {{Taxon: first.Taxon, Edge: -1}},
		"taxon out of range":  {{Taxon: 99999, Edge: 0}},
		"negative taxon":      {{Taxon: -1, Edge: 0}},
		"taxon already there": {{Taxon: su.proto.Agile().LeafSet().Min(), Edge: 0}},
		"taxon twice":         {first, first},
		"inadmissible edge":   {{Taxon: first.Taxon, Edge: inadmissibleEdge(t, su.proto, first.Taxon)}},
	} {
		bad := *good
		bad.Frontier = &Frontier{Prefix: prefix, Threads: 2, Tasks: good.Frontier.Tasks}
		_, err := Start(cons, -1, OrderMinBranches, nil, &bad, 2)
		if err == nil || !strings.HasPrefix(err.Error(), "search: checkpoint prefix step") {
			t.Errorf("%s: Start returned %v, want a prefix error", name, err)
		}
		// The serial path is set up by Start too.
		if _, err := Run(cons, Options{Checkpoint: CheckpointPolicy{Resume: &bad}}); err == nil ||
			!strings.HasPrefix(err.Error(), "search: checkpoint prefix step") {
			t.Errorf("%s: serial Run returned %v, want a prefix error", name, err)
		}
	}
}

// inadmissibleEdge returns an agile edge of the pristine state that taxon x
// may not be inserted at.
func inadmissibleEdge(t *testing.T, tr *terrace.Terrace, x int) int32 {
	t.Helper()
	allowed := tr.Clone().AllowedBranches(x)
	for e := int32(0); e < int32(tr.Agile().NumEdges()); e++ {
		if !slices.Contains(allowed, e) {
			return e
		}
	}
	t.Fatal("every edge is admissible")
	return 0
}

// TestPolicy pins the paper's scheme constants and decisions in the one
// place the pool and the simulator both read them from.
func TestPolicy(t *testing.T) {
	def := Policy{}.Normalize(4)
	if def != (Policy{TreeBatch: 1 << 10, StateBatch: 1 << 13, DeadEndBatch: 1 << 10, QueueCap: 5, MinRemaining: 3}) {
		t.Fatalf("defaults at 4 threads: %+v", def)
	}
	if set := (Policy{TreeBatch: 1, StateBatch: 2, DeadEndBatch: 3, QueueCap: 4, MinRemaining: 5}); set.Normalize(16) != set {
		t.Fatalf("explicit values overridden: %+v", set.Normalize(16))
	}
	for threads, want := range map[int]int{1: 2, 7: 8, 8: 4, 16: 8} {
		if got := (Policy{}).Normalize(threads).QueueCap; got != want {
			t.Fatalf("queue cap at %d threads = %d, want %d", threads, got, want)
		}
	}
	for _, tc := range []struct{ remaining, n, want int }{
		{2, 5, 0}, // too deep to be worth a task
		{3, 1, 0}, {3, 2, 1}, {3, 5, 2},
	} {
		if got := def.Submit(tc.remaining, tc.n); got != tc.want {
			t.Fatalf("Submit(remaining %d, %d branches) = %d, want %d", tc.remaining, tc.n, got, tc.want)
		}
	}
	for _, tc := range []struct {
		local Counters
		due   bool
	}{
		{Counters{StandTrees: 1<<10 - 1, IntermediateStates: 1<<13 - 1, DeadEnds: 1<<10 - 1}, false},
		{Counters{StandTrees: 1 << 10}, true},
		{Counters{IntermediateStates: 1 << 13}, true},
		{Counters{DeadEnds: 1 << 10}, true},
	} {
		if got := def.FlushDue(tc.local); got != tc.due {
			t.Fatalf("FlushDue(%+v) = %v", tc.local, got)
		}
	}
}

// TestStartRefusesBadTasks: a fingerprint-valid checkpoint whose tasks name
// an insertion a run could not have made — in a path, in the branches still
// to try, under an inserted frame — is an error from Start, before any
// worker replays it.
func TestStartRefusesBadTasks(t *testing.T) {
	cons := midStand(t, 1818)
	su, _ := wholeStand(t, cons)
	// A frontier as a stopped one-worker pool leaves it: the interrupted
	// stack, and queued hand-offs with paths of their own.
	h := &fakeHost{take: 1}
	w := su.NewWorker(Policy{}.Normalize(1), h, nil, false)
	if err := w.Begin(su.Frontier.Tasks[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30 || len(h.queue) == 0; i++ {
		w.Tick(0)
	}
	w.Flush()
	tasks := append([]FrontierTask{w.Snapshot()}, h.queue...)
	counters := su.Counters
	counters.Add(h.total)
	good := su.Checkpoint(counters, 1, tasks)
	if _, err := Start(cons, -1, OrderMinBranches, nil, good, 2); err != nil {
		t.Fatalf("the untampered checkpoint: %v", err)
	}
	stack, queued := 0, len(tasks)-1
	top := len(tasks[stack].Frames) - 1
	if top < 1 || !tasks[stack].Frames[top-1].Inserted || len(tasks[queued].Path) == 0 {
		t.Fatalf("sample frontier too shallow: %+v", tasks)
	}
	// An edge of the tree that is not admissible for taxon x once path and
	// the inserted frames of stack are in place.
	foreign := func(path []PathStep, frames []FrameSnapshot, x int) int32 {
		tr := su.NewTerrace()
		for _, st := range path {
			tr.ExtendTaxon(st.Taxon, st.Edge)
		}
		for _, f := range frames {
			tr.ExtendTaxon(f.Taxon, f.Branches[f.Idx-1])
		}
		return inadmissibleEdge(t, tr, x)
	}
	qt := tasks[queued]
	for name, tamper := range map[string]func(ts []FrontierTask){
		"path edge not admissible": func(ts []FrontierTask) {
			ts[queued].Path[0].Edge = foreign(nil, nil, qt.Path[0].Taxon)
		},
		"path edge out of range":  func(ts []FrontierTask) { ts[queued].Path[0].Edge = 99999 },
		"path taxon not pending":  func(ts []FrontierTask) { ts[queued].Path[0].Taxon = su.NewTerrace().Agile().LeafSet().Min() },
		"path taxon out of range": func(ts []FrontierTask) { ts[queued].Path[0].Taxon = 99999 },
		"path taxon twice": func(ts []FrontierTask) {
			ts[queued].Path = append(ts[queued].Path, ts[queued].Path[0])
		},
		"frame taxon already in the path": func(ts []FrontierTask) { ts[queued].Frames[0].Taxon = qt.Path[0].Taxon },
		"foreign branch in an uninserted frame": func(ts []FrontierTask) {
			f := &ts[queued].Frames[0]
			f.Branches[len(f.Branches)-1] = foreign(qt.Path, nil, f.Taxon)
		},
		"foreign branch under an inserted frame": func(ts []FrontierTask) {
			f := &ts[stack].Frames[top-1]
			f.Branches[f.Idx-1] = foreign(nil, ts[stack].Frames[:top-1], f.Taxon)
		},
	} {
		bad := *good
		bad.Frontier = &Frontier{Prefix: good.Frontier.Prefix, Threads: 1}
		for i := range tasks {
			bad.Frontier.Tasks = append(bad.Frontier.Tasks, tasks[i].Clone())
		}
		tamper(bad.Frontier.Tasks)
		_, err := Start(cons, -1, OrderMinBranches, nil, &bad, 2)
		if err == nil || !strings.HasPrefix(err.Error(), "search: checkpoint task ") {
			t.Errorf("%s: Start returned %v, want a task error", name, err)
		}
	}
}

// TestSetupTerracesAreNewPlusReplay: the prefix is walked once, on the one
// Terrace built from the constraints, and every Terrace at I_0 a run has
// comes from that one — a clone of it; itself, for the first worker; a copy of
// that worker's taken mid-task and rewound, for the second; a clone of it
// after a resumed run's tasks were validated on it. Each is state
// for state what every worker used to build for itself: terrace.New and a
// replay of the prefix.
func TestSetupTerracesAreNewPlusReplay(t *testing.T) {
	stands := [][]*tree.Tree{chainConstraints(t, 4, 4), midStand(t, 1616), midStand(t, 1818)}
	for idx := 3; idx < 8; idx++ { // the generated corpus, both regimes
		stands = append(stands, gen.Generate(gen.Default(gen.RegimeSimulated), idx).Constraints,
			gen.Generate(gen.Default(gen.RegimeEmpirical), idx).Constraints)
	}
	pol := Policy{MinRemaining: 1}.Normalize(2)
	ran := 0
	for i, cons := range stands {
		start := func(resume *Checkpoint) *Setup {
			su, err := Start(cons, -1, OrderMinBranches, nil, resume, 3)
			if err != nil {
				t.Fatalf("stand %d: %v", i, err)
			}
			return su
		}
		su := start(nil)
		if len(su.Frontier.Tasks) == 0 {
			continue // the prefix closed the space: no Terrace is handed out
		}
		ran++
		oracle, err := terrace.New(cons, su.InitialIndex)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range su.Frontier.Prefix {
			oracle.ExtendTaxon(st.Taxon, st.Edge)
		}
		want := oracle.Signature()
		// made: the Terrace came out of a path of its own (the invariants are
		// slow: the others are held to the signature).
		check := func(what string, tr *terrace.Terrace, made bool) {
			t.Helper()
			if tr.Depth() != len(su.Frontier.Prefix) || tr.Signature() != want {
				t.Fatalf("stand %d: %s differs from terrace.New + prefix replay", i, what)
			}
			if made {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("stand %d: %s: %v", i, what, err)
				}
			}
		}
		check("a clone of the walked Terrace", su.NewTerrace(), true)

		// The first worker takes the walked Terrace; the next Terrace is cut
		// from its, wherever in its task it stands.
		h := &fakeHost{take: 1 << 30}
		walked := su.proto
		w := su.NewWorker(pol, h, nil, false)
		check("the first worker's Terrace", w.t, false)
		if su.proto != nil || w.t != walked {
			t.Fatalf("stand %d: the first worker did not take the walked Terrace", i)
		}
		if err := w.Begin(su.Frontier.Tasks[0]); err != nil {
			t.Fatal(err)
		}
		for n := 0; n < 40; n++ {
			if ph, _ := w.Tick(0); ph == Idle {
				break
			}
		}
		w2 := su.NewWorker(pol, h, nil, false)
		check("the second worker's Terrace", w2.t, true)
		check("the prototype made for it", su.proto, false)
		if w2.t == su.proto || w2.t == w.t {
			t.Fatalf("stand %d: the second worker has the prototype or the first worker's Terrace itself", i)
		}
		w.Drop()
		check("the first worker's Terrace after a Drop", w.t, false)

		// Resumed: the tasks were validated on the prototype, and rewound.
		cp := su.Checkpoint(su.Counters, 3, su.Frontier.Tasks)
		check("a resumed run's Terrace", start(cp).NewTerrace(), true)
	}
	if ran < 10 {
		t.Fatalf("%d stands had anything to run", ran)
	}
}

// TestPrefixWalkAllocations: the walk to the initial split allocates what it
// keeps and nothing else, however many forced insertions it makes, under the
// dynamic order and a static one: its Path, grown by append, and the split's
// branches, in one slice. On the benchmark's count-many stands.
func TestPrefixWalkAllocations(t *testing.T) {
	longest := 0
	for _, idx := range []int{0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16} {
		cons := gen.Generate(gen.Default(gen.RegimeSimulated), idx).Constraints
		tr, err := terrace.New(cons, ChooseInitialTree(cons))
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range [][]int{nil, slices.Clone(tr.MissingTaxa())} {
			walk := func() PrefixResult {
				pre := PrefixWalkH(tr, OrderMinBranches, order)
				for tr.Depth() > 0 {
					tr.RemoveTaxon()
				}
				return pre
			}
			forced := len(walk().Path)
			longest = max(longest, forced)
			var path []PathStep
			growths := 0
			for range forced {
				if len(path) == cap(path) {
					growths++
				}
				path = append(path, PathStep{})
			}
			if allocs := testing.AllocsPerRun(5, func() { walk() }); allocs > float64(growths+1) {
				t.Errorf("dataset %d (static order %v): %v allocations for %d forced insertions, %d of them the Path's",
					idx, order != nil, allocs, forced, growths)
			}
		}
		tr.Release()
	}
	if longest < 16 {
		t.Fatalf("the longest prefix is %d insertions: too short to show a per-insertion allocation", longest)
	}
}
