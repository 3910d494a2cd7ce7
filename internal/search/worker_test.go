package search

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"gentrius/internal/tree"
)

// fakeHost is a scripted driver: an unbounded queue that takes up to `take`
// branches of every offer, and a log of the calls it received (and of the
// tasks drain began).
type fakeHost struct {
	take  int
	queue []FrontierTask
	total Counters
	trees []string
	log   []string
	begun func(FrontierTask) // if set, sees every task drain begins
}

func (h *fakeHost) Offer(path []PathStep, f *Frame, n int) int {
	if n = min(n, h.take); n > 0 {
		h.queue = append(h.queue, NewSeedTask(path, f.Taxon, f.Branches[len(f.Branches)-n:], f.BranchWeight()))
		h.log = append(h.log, "offer")
	}
	return n
}

func (h *fakeHost) Publish(c Counters) {
	h.total.Add(c)
	h.log = append(h.log, "publish")
}

func (h *fakeHost) Trees(block []byte, _ int) []byte {
	EachTree(string(block), func(nw string) { h.trees = append(h.trees, nw) })
	return block
}

// drain runs first, and every task the host queues meanwhile, to the end on
// w, checking the order of phases each task passes through.
func drain(t *testing.T, w *Worker, h *fakeHost, first FrontierTask) {
	t.Helper()
	pending := []FrontierTask{first}
	for len(pending) > 0 {
		h.log = append(h.log, "begin")
		if h.begun != nil {
			h.begun(pending[0])
		}
		if err := w.Begin(pending[0]); err != nil {
			t.Fatal(err)
		}
		var phases []string
		for {
			ph, cost := w.Tick(0)
			if cost == 0 {
				phases = append(phases, fmt.Sprint(ph))
			}
			if ph == Idle {
				break
			}
		}
		if got := strings.Join(phases, " "); got != fmt.Sprint(Explore, Rewind, Idle) {
			t.Fatalf("a task turned through phases %s", got)
		}
		if w.t.Depth() != w.base {
			t.Fatalf("task left the terrace at depth %d, I_0 is %d", w.t.Depth(), w.base)
		}
		pending = append(pending[1:], h.queue...)
		h.queue = nil
	}
}

// wholeStand returns a set-up whose single task is the whole space below
// I_0, and the serial run's counters and stand to compare with.
func wholeStand(t *testing.T, cons []*tree.Tree) (*Setup, *Result) {
	t.Helper()
	su, err := Start(cons, -1, OrderMinBranches, nil, nil, 1)
	if err != nil || len(su.Frontier.Tasks) != 1 {
		t.Fatalf("set-up: %v, %d tasks", err, len(su.Frontier.Tasks))
	}
	ref, err := Run(cons, Options{InitialTree: -1, CollectTrees: true,
		Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}})
	if err != nil {
		t.Fatal(err)
	}
	return su, ref
}

// midStand returns a random stand of a few hundred states.
func midStand(t *testing.T, seed int64) []*tree.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 200; i++ {
		cons := randomScenario(rng, 13, 3, 4, 0.5)
		res, err := Run(cons, Options{InitialTree: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.IntermediateStates >= 100 && res.IntermediateStates <= 5000 {
			return cons
		}
	}
	t.Fatal("no scenario of the wanted size")
	return nil
}

// TestWorkerProtocol drives one Worker through a whole stand against a
// scripted host and checks the protocol: every task is replayed, explored
// and rewound; offers carry the task's own path extended to the frame; a
// batch is published when it is full and at the end of every task; and the
// published counters and trees are the serial run's.
func TestWorkerProtocol(t *testing.T) {
	cons := chainConstraints(t, 4, 4)
	su, ref := wholeStand(t, cons)
	frames := int64(0) // final frames: each is one step, whatever it holds
	tr, err := newTerrace(cons, su.InitialIndex)
	if err != nil {
		t.Fatal(err)
	}
	for eng := NewEngine(tr); ; {
		ev := eng.Step()
		if ev == EvDone {
			break
		}
		if ev == EvTreeFound {
			frames++
		}
	}
	for _, tc := range []struct {
		name      string
		policy    Policy
		unbatched bool
	}{
		{"paper batches", Policy{}.Normalize(1), false},
		{"unbatched", Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}.Normalize(1), true},
	} {
		h := &fakeHost{take: 1 << 30}
		w := su.NewWorker(tc.policy, h, nil, true)
		drain(t, w, h, su.Frontier.Tasks[0])
		got := su.Counters
		got.Add(h.total)
		if got != ref.Counters {
			t.Fatalf("%s: published %+v, serial run %+v", tc.name, got, ref.Counters)
		}
		if !slices.Equal(sortedCopy(h.trees), sortedCopy(ref.Trees)) {
			t.Fatalf("%s: %d trees, serial run %d: stands differ", tc.name, len(h.trees), len(ref.Trees))
		}
		// A task's last word is a publish; with the paper's batches, larger
		// than this stand, it is the task's only one.
		log := strings.Join(h.log, " ") + " "
		tasks := strings.Split(log, "begin ")[1:]
		for i, evs := range tasks {
			if !strings.HasSuffix(evs, "publish ") ||
				(!tc.unbatched && strings.Count(evs, "publish") != 1) {
				t.Fatalf("%s: task %d: host calls %q", tc.name, i, evs)
			}
		}
		if n := strings.Count(log, "offer"); n < 2 || n != len(tasks)-1 {
			t.Fatalf("%s: %d offers taken, %d tasks run", tc.name, n, len(tasks))
		}
		// Unbatched, every insertion below I_0 and every final frame fills a
		// batch of one.
		if want := frames + ref.IntermediateStates - su.Counters.IntermediateStates; tc.unbatched &&
			int64(strings.Count(log, "publish")) != want {
			t.Fatalf("%s: %d publishes, %d insertions and final frames", tc.name, strings.Count(log, "publish"), want)
		}
	}

	// Counting only: no tree is rendered.
	h := &fakeHost{take: 1}
	drain(t, su.NewWorker(Policy{}.Normalize(1), h, nil, false), h, su.Frontier.Tasks[0])
	if got := su.Counters; len(h.trees) != 0 || h.total.StandTrees != ref.StandTrees {
		t.Fatalf("counting worker: %d trees rendered, %+v published on top of %+v", len(h.trees), h.total, got)
	}
}

// TestWorkerSnapshotResumes: what a worker has published plus what its
// Snapshot says is left, finished on a second worker, is the uninterrupted
// task — mid-exploration and while still replaying.
func TestWorkerSnapshotResumes(t *testing.T) {
	su, ref := wholeStand(t, midStand(t, 1616))
	pol := Policy{}.Normalize(1)
	for _, cut := range []int{1, 7, 40, 41} {
		h1, h2 := &fakeHost{take: 1 << 30}, &fakeHost{take: 1 << 30}
		w1, w2 := su.NewWorker(pol, h1, nil, true), su.NewWorker(pol, h2, nil, true)
		if err := w1.Begin(su.Frontier.Tasks[0]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cut; i++ {
			w1.Tick(0)
		}
		w1.Flush()
		left := w1.Snapshot()
		if len(left.Frames) == 0 {
			t.Fatalf("cut %d: nothing left", cut)
		}
		drain(t, w2, h2, left)
		// What w1 handed off before the cut is still to do, too.
		for _, tk := range h1.queue {
			drain(t, w2, h2, tk)
		}
		got := su.Counters
		got.Add(h1.total)
		got.Add(h2.total)
		if got != ref.Counters {
			t.Fatalf("cut %d: %+v before + after the snapshot, uninterrupted %+v", cut, got, ref.Counters)
		}
		if !slices.Equal(sortedCopy(append(h1.trees, h2.trees...)), sortedCopy(ref.Trees)) {
			t.Fatalf("cut %d: stands differ", cut)
		}
	}

	// A task still replaying its path is left whole, in storage of its own;
	// the path of a hand-off is the task's extended to the offered frame.
	h := &fakeHost{take: 1 << 30}
	w := su.NewWorker(pol, h, nil, false)
	if err := w.Begin(su.Frontier.Tasks[0]); err != nil {
		t.Fatal(err)
	}
	for len(h.queue) == 0 {
		w.Tick(0)
	}
	deep := h.queue[0]
	if want := w.eng.Path(nil); len(want) == 0 || !slices.Equal(deep.Path, want) {
		t.Fatalf("hand-off path %v, the worker is at %v", deep.Path, want)
	}
	w3 := su.NewWorker(pol, &fakeHost{}, nil, false)
	if err := w3.Begin(deep); err != nil {
		t.Fatal(err)
	}
	if ph, cost := w3.Tick(0); ph != Replay || cost != 1 {
		t.Fatalf("first tick of a task with a path: %v, %v", ph, cost)
	}
	snap := w3.Snapshot()
	if !slices.Equal(snap.Path, deep.Path) || len(snap.Frames) != 1 ||
		!slices.Equal(snap.Frames[0].Branches, deep.Frames[0].Branches) {
		t.Fatalf("snapshot while replaying %+v, task %+v", snap, deep)
	}
	if &snap.Path[0] == &deep.Path[0] || &snap.Frames[0].Branches[0] == &deep.Frames[0].Branches[0] {
		t.Fatal("snapshot shares storage with the task")
	}
}

// TestWorkerDropResumesInPlace: Drop, mid-replay and mid-exploration, leaves
// the Terrace at I_0 and the worker fit to finish, itself, the task a
// Snapshot taken just before describes — how the pool resumes from a
// checkpoint round — at no allocation beyond the snapshot's own.
func TestWorkerDropResumesInPlace(t *testing.T) {
	su, ref := wholeStand(t, midStand(t, 1616))
	pol := Policy{}.Normalize(1)
	fresh := su.NewTerrace().Signature()

	// A task with a path, to be dropped while replaying.
	h := &fakeHost{take: 1 << 30}
	w := su.NewWorker(pol, h, nil, true)
	if err := w.Begin(su.Frontier.Tasks[0]); err != nil {
		t.Fatal(err)
	}
	for len(h.queue) == 0 || len(h.queue[len(h.queue)-1].Path) < 2 {
		if ph, _ := w.Tick(0); ph == Idle {
			t.Fatal("no hand-off with a path of two steps")
		}
	}
	w.Flush()
	left := w.Snapshot()
	w.Drop()
	if w.phase != Idle || w.t.Signature() != fresh {
		t.Fatal("Drop while exploring did not bring the worker back to I_0")
	}
	deep := h.queue[len(h.queue)-1]
	h.queue = h.queue[:len(h.queue)-1]
	if err := w.Begin(deep); err != nil {
		t.Fatal(err)
	}
	if ph, cost := w.Tick(0); ph != Replay || cost != 1 {
		t.Fatalf("first tick of a task with a path: %v, %v", ph, cost)
	}
	whole := w.Snapshot()
	w.Drop()
	if w.phase != Idle || w.t.Signature() != fresh {
		t.Fatal("Drop while replaying did not bring the worker back to I_0")
	}

	// The same worker finishes everything that is left, snapshots first.
	pending := append([]FrontierTask{left, whole}, h.queue...)
	h.queue = nil
	for _, tk := range pending {
		drain(t, w, h, tk)
	}
	got := su.Counters
	got.Add(h.total)
	if got != ref.Counters {
		t.Fatalf("%+v across two drops on one worker, uninterrupted %+v", got, ref.Counters)
	}
	if !slices.Equal(sortedCopy(h.trees), sortedCopy(ref.Trees)) {
		t.Fatal("stands differ")
	}

	// Dropped every 50 ticks and begun again from its own snapshot, a
	// counting worker still arrives at the exact totals; the interruption
	// itself — flush, drop, begin — allocates nothing (the snapshot does).
	hc := &fakeHost{}
	wc := su.NewWorker(pol, hc, nil, false)
	for tk, drops := su.Frontier.Tasks[0], 0; len(tk.Frames) > 0; drops++ {
		if err := wc.Begin(tk); err != nil {
			t.Fatal(err)
		}
		ph := Replay
		for i := 0; i < 50 && ph != Idle; i++ {
			ph, _ = wc.Tick(0)
		}
		wc.Flush()
		tk = wc.Snapshot()
		wc.Drop()
		if ph == Idle && drops < 3 {
			t.Fatalf("the stand was finished after %d drops", drops)
		}
	}
	if got := hc.total; got.StandTrees+su.Counters.StandTrees != ref.StandTrees ||
		got.IntermediateStates+su.Counters.IntermediateStates != ref.IntermediateStates ||
		got.DeadEnds+su.Counters.DeadEnds != ref.DeadEnds {
		t.Fatalf("%+v on top of %+v when dropped every 50 ticks, uninterrupted %+v", got, su.Counters, ref.Counters)
	}
	if n := testing.AllocsPerRun(5, func() {
		if err := wc.Begin(su.Frontier.Tasks[0]); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			wc.Tick(0)
		}
		wc.Flush()
		wc.Drop()
	}); n != 0 {
		t.Fatalf("begin, tick, flush and drop on a warm worker make %v allocations", n)
	}
}

// TestWorkerReusesItsEngine: one engine serves every task. After a deep
// stack nothing of it stays referenced — scribbling over the old task's
// arrays changes nothing — and a task costs no allocation.
func TestWorkerReusesItsEngine(t *testing.T) {
	su, _ := wholeStand(t, midStand(t, 1717))
	pol := Policy{}.Normalize(1)

	// A deep stack: the whole stand interrupted mid-way.
	h := &fakeHost{}
	w := su.NewWorker(pol, h, nil, true)
	if err := w.Begin(su.Frontier.Tasks[0]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		w.Tick(0)
	}
	deep := w.Snapshot()
	if len(deep.Frames) < 3 {
		t.Fatalf("stack of %d frames is not deep", len(deep.Frames))
	}
	for ph := Explore; ph != Idle; ph, _ = w.Tick(0) {
	}

	// The same worker: the deep stack, then the whole stand again.
	href := &fakeHost{}
	wref := su.NewWorker(pol, href, nil, true)
	drain(t, wref, href, su.Frontier.Tasks[0])

	*h = fakeHost{}
	drain(t, w, h, deep)
	if err := w.Begin(su.Frontier.Tasks[0]); err != nil {
		t.Fatal(err)
	}
	slots := w.eng.frames[:cap(w.eng.frames)]
	for i := range slots {
		for _, f := range deep.Frames {
			if len(slots[i].Branches) > 0 && len(f.Branches) > 0 && &slots[i].Branches[0] == &f.Branches[0] {
				t.Fatalf("stack slot %d still aliases the previous task's branches", i)
			}
		}
	}
	for i := range deep.Frames {
		for j := range deep.Frames[i].Branches {
			deep.Frames[i].Branches[j] = -1
		}
	}
	*h = fakeHost{}
	for ph := Replay; ph != Idle; ph, _ = w.Tick(0) {
	}
	if h.total != href.total || !slices.Equal(sortedCopy(h.trees), sortedCopy(href.trees)) {
		t.Fatalf("after a deep task the worker counted %+v, a fresh one %+v", h.total, href.total)
	}

	// Counting only, nothing handed off: a task allocates nothing.
	wc := su.NewWorker(pol, &fakeHost{}, nil, false) // take 0: logs nothing
	run := func() {
		if err := wc.Begin(su.Frontier.Tasks[0]); err != nil {
			t.Fatal(err)
		}
		for ph := Replay; ph != Idle; ph, _ = wc.Tick(0) {
		}
	}
	run()
	if n := testing.AllocsPerRun(5, run); n != 0 {
		t.Fatalf("a task on a warm worker makes %v allocations", n)
	}
}

// TestWorkerBeginRefusesCorruptStack: a frame stack that cannot be a run's
// is an error from Begin — which both drivers return — with the worker idle,
// its Terrace at I_0, and fit for the next task.
func TestWorkerBeginRefusesCorruptStack(t *testing.T) {
	su, _ := wholeStand(t, chainConstraints(t, 3, 3))
	h := &fakeHost{}
	w := su.NewWorker(Policy{}.Normalize(1), h, nil, false)
	good := su.Frontier.Tasks[0]
	for name, frames := range map[string][]FrameSnapshot{
		"idx beyond the branches": {{Taxon: good.Frames[0].Taxon, Branches: good.Frames[0].Branches, Idx: 99, Weight: 1}},
		"inserted at idx 0":       {{Taxon: good.Frames[0].Taxon, Branches: good.Frames[0].Branches, Inserted: true, Weight: 1}},
	} {
		err := w.Begin(FrontierTask{Path: []PathStep{{Taxon: 1 << 20, Edge: -1}}, Frames: frames})
		if err == nil || !strings.Contains(err.Error(), "corrupt frame") {
			t.Fatalf("%s: Begin returned %v", name, err)
		}
		if ph, cost := w.Tick(0); ph != Idle || cost != 0 || w.t.Depth() != w.base {
			t.Fatalf("%s: worker at phase %v, depth %d after a refused task", name, ph, w.t.Depth())
		}
	}
	drain(t, w, h, good)
	if h.total == (Counters{}) {
		t.Fatal("the worker did not run the next task")
	}
}
