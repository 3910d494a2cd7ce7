package parallel

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/obs"
	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tracereport"
	"gentrius/internal/tree"
)

// submitted returns the tasks a traced run queued, in order: submitter,
// taxon, branch share and path length of each (worker -1: the run's own
// shares or resumed tasks).
func submitted(t *testing.T, trace *bytes.Buffer) []string {
	t.Helper()
	events, err := tracereport.ReadTrace(trace)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range events {
		if e.Ev == obs.EvTaskSubmit {
			out = append(out, fmt.Sprint(e.Worker, e.Get("taxon"), e.Get("branches"), e.Get("path")))
		}
	}
	return out
}

// TestDriversAgree: the goroutine pool and the simulator are two hosts of one
// scheduler, so at one worker — where the pool is deterministic too — they
// do exactly the same work, publish it in the same number of batches, queue
// exactly the same tasks in the same order and steal every one of them,
// fresh and when both resume the same mid-run frontier checkpoint. They do
// under the paper's batches and under a tree batch of 16, whose flushes fall
// inside subtrees the engines would otherwise take in one step — each host
// granting its own budget (the pool's poll, the simulator's none). The
// speedup figures are simulator outputs; this is what makes them claims
// about the real engine.
func TestDriversAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	noLimits := SimLimits{MaxTrees: -1, MaxStates: -1}
	compared, resumed, stolen := 0, 0, int64(0)
	var whole [2]int64
	for scen := 0; compared < 6 && scen < 300; scen++ {
		cons := randomScenario(rng, 14, 3, 4, 0.5)
		ref, err := Simulate(cons, SimOptions{Workers: 1, InitialTree: -1, Limits: noLimits})
		if err != nil {
			t.Fatal(err)
		}
		if ref.IntermediateStates < 100 {
			continue // too small to interrupt half-way
		}
		compared++
		// The same run cut half-way: a frontier with queued and in-flight work.
		half, err := Simulate(cons, SimOptions{Workers: 1, InitialTree: -1, CheckpointOnStop: true,
			Limits: SimLimits{MaxTrees: -1, MaxStates: ref.IntermediateStates / 2},
			Policy: search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for run := range 4 {
			cp, pol := []*search.Checkpoint{nil, half.Checkpoint}[run/2], []search.Policy{{}, {TreeBatch: 16}}[run%2]
			what := fmt.Sprintf("fresh, policy %+v", pol)
			if cp != nil {
				what = fmt.Sprintf("resumed, policy %+v", pol)
				resumed++
			} else if half.Checkpoint == nil {
				t.Fatalf("scenario %d: state limit %d did not interrupt the run", scen, ref.IntermediateStates/2)
			}
			var simTrace, poolTrace bytes.Buffer
			simRec, poolRec := obs.NewRecorder(&simTrace, nil), obs.NewRecorder(&poolTrace, nil)
			sim, err := Simulate(cons, SimOptions{Workers: 1, InitialTree: -1, Limits: noLimits, Resume: cp, Trace: simRec, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			pool, err := Run(cons, Options{Threads: 1, InitialTree: -1, Policy: pol,
				Limits:     search.Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
				Checkpoint: search.CheckpointPolicy{Resume: cp}, Obs: &obs.Sink{Trace: poolRec}})
			if err != nil {
				t.Fatal(err)
			}
			if sim.Counters != ref.Counters || pool.Counters != ref.Counters {
				t.Fatalf("scenario %d %s: simulator %+v, pool %+v, uninterrupted %+v",
					scen, what, sim.Counters, pool.Counters, ref.Counters)
			}
			if sim.TasksStolen != pool.TasksStolen {
				t.Fatalf("scenario %d %s: simulator stole %d tasks, pool %d",
					scen, what, sim.TasksStolen, pool.TasksStolen)
			}
			if sim.Flushes != pool.Flushes {
				t.Fatalf("scenario %d %s: simulator flushed %d times, pool %d",
					scen, what, sim.Flushes, pool.Flushes)
			}
			if err := errors.Join(simRec.Flush(), poolRec.Flush()); err != nil {
				t.Fatal(err)
			}
			// Every task queued, the run's own and the hand-offs, is stolen.
			if s, p := submitted(t, &simTrace), submitted(t, &poolTrace); !slices.Equal(s, p) || int64(len(s)) != sim.TasksStolen {
				t.Fatalf("scenario %d %s: %d steals; simulator submitted %v, pool %v", scen, what, sim.TasksStolen, s, p)
			}
			stolen += sim.TasksStolen
			whole[run%2] += pool.Work.Whole
		}
	}
	if compared < 6 || resumed < 12 || stolen == 0 || whole[1] == 0 || whole[1] >= whole[0] {
		t.Fatalf("compared %d stands (%d resumed, %d steals, %v subtrees taken whole by the pool): not enough to mean anything",
			compared, resumed, stolen, whole)
	}
	t.Logf("subtrees taken whole by the pool: %d under the paper's batches, %d under a tree batch of 16", whole[0], whole[1])
}

// interrupted returns a stand and a frontier checkpoint of its simulated
// run cut half-way, with queued tasks that carry a path.
func interrupted(t *testing.T, seed int64) ([]*tree.Tree, *search.Checkpoint) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for scen := 0; scen < 300; scen++ {
		cons := randomScenario(rng, 14, 3, 4, 0.5)
		ref, err := Simulate(cons, SimOptions{Workers: 2, InitialTree: -1, Limits: SimLimits{MaxTrees: -1, MaxStates: -1}})
		if err != nil {
			t.Fatal(err)
		}
		if ref.IntermediateStates < 100 {
			continue
		}
		half, err := Simulate(cons, SimOptions{Workers: 2, InitialTree: -1, CheckpointOnStop: true,
			Limits: SimLimits{MaxTrees: -1, MaxStates: ref.IntermediateStates / 2},
			Policy: search.Policy{TreeBatch: 1, StateBatch: 1, DeadEndBatch: 1}})
		if err != nil {
			t.Fatal(err)
		}
		if cp := half.Checkpoint; cp != nil && slices.ContainsFunc(cp.Frontier.Tasks,
			func(ft search.FrontierTask) bool { return len(ft.Path) > 0 }) {
			return cons, cp
		}
	}
	t.Fatal("no scenario left a task with a path in its frontier")
	return nil, nil
}

// TestDriversRefuseHostileTask: a checkpoint whose fingerprint matches but
// whose task replays an insertion no run made is the same error from both
// drivers, before any worker touches it. (The pool used to burn its retry
// budget on the panics and the simulator took the process down.)
func TestDriversRefuseHostileTask(t *testing.T) {
	cons, cp := interrupted(t, 1414)
	for i := range cp.Frontier.Tasks {
		if ft := &cp.Frontier.Tasks[i]; len(ft.Path) > 0 {
			ft.Path[0].Edge = 99999
			break
		}
	}
	_, simErr := Simulate(cons, SimOptions{Workers: 2, InitialTree: -1, Resume: cp})
	_, poolErr := Run(cons, Options{Threads: 2, InitialTree: -1,
		Checkpoint: search.CheckpointPolicy{Resume: cp}})
	if simErr == nil || poolErr == nil || simErr.Error() != poolErr.Error() ||
		!strings.HasPrefix(simErr.Error(), "search: checkpoint task ") {
		t.Fatalf("simulator: %v\npool: %v", simErr, poolErr)
	}
}

// TestSimTerraceBuiltOncePerRun: the simulator's workers, like the pool's, are
// clones of the one Terrace search.Start built, so a further virtual worker
// allocates a clone, an eighth of the prototype cut from the first worker's
// state, and under 64 KB of its own; it would allocate what terrace.New does
// beyond a clone on top (the LCA indexes and the initialiser's scratch, some
// 160 KB on this stand) if it rebuilt its state from the constraints. Bytes,
// not allocations: terrace.New carves its storage from slabs and allocates
// fewer times than a worker does. The simulator is single-threaded, so the
// counts repeat exactly. A cold run — terrace's free list emptied —
// allocates New's bytes once; a second run on the same stand builds in the
// storage the first released and allocates under a tenth. A warm run with 9
// workers builds its clones in the storage a cold one released, and allocates
// under a tenth of a clone more than a warm run with 1.
func TestSimTerraceBuiltOncePerRun(t *testing.T) {
	cons := gen.Generate(gen.Default(gen.RegimeSimulated), 24).Constraints
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	newTerrace := func() *terrace.Terrace {
		tr, err := terrace.New(cons, search.ChooseInitialTree(cons))
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	emptyTerraceStorage()
	var proto *terrace.Terrace
	build := allocated(func() { proto = newTerrace() })
	clone := allocated(func() { proto.Clone() })
	// A tick limit of one keeps the enumeration out of the picture.
	run := func(workers int) uint64 {
		return allocated(func() {
			if _, err := Simulate(cons, SimOptions{Workers: workers, InitialTree: -1,
				Limits: SimLimits{MaxTrees: -1, MaxStates: -1, MaxTicks: 1}}); err != nil {
				t.Fatal(err)
			}
		})
	}
	emptyTerraceStorage()
	cold, warm := run(1), run(1)
	emptyTerraceStorage()
	nine := run(9)
	nineWarm := run(9)
	perWorker := (nine - cold) / 8
	t.Logf("terrace.New %d bytes, Clone %d; run with 1 worker %d cold, %d warm, with 9 workers %d cold, %d warm: %d per further worker",
		build, clone, cold, warm, nine, nineWarm, perWorker)
	if cold < build || cold > build+build/4 {
		t.Fatalf("a cold run with 1 worker allocates %d bytes, terrace.New %d: the set-up did not build one Terrace", cold, build)
	}
	if warm >= build/10 {
		t.Fatalf("a warm run with 1 worker allocates %d bytes, over a tenth of terrace.New's %d: the set-up did not build in the last run's storage", warm, build)
	}
	if want := clone + clone/8; perWorker < want || perWorker > want+64<<10 {
		t.Fatalf("a further worker allocates %d bytes, its clone and an eighth of the prototype's %d: workers are not cloning",
			perWorker, want)
	}
	if nineWarm >= warm+clone/10 {
		t.Fatalf("a warm run with 9 workers allocates %d bytes, with 1 %d: a tenth of a clone's %d more or over, so the clones did not take the last run's storage",
			nineWarm, warm, clone)
	}
}
