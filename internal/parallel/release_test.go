package parallel

import (
	"sync"
	"testing"

	"gentrius/internal/faultinject"
	"gentrius/internal/search"
)

// TestBackToBackRunsShareStorage: goroutines run search.Run and parallel.Run
// back to back on different stands, so each run's terrace.New takes whatever
// storage another run, on another stand, released last (run under -race).
// The pool runs at two threads with panics injected: at a task's start
// (TaskExec), and inside worker 0's first engine step (EngineStep), which
// makes Setup.NewTerrace rebuild the prototype from the constraints. Every
// result's counters equal the serial oracle's.
func TestBackToBackRunsShareStorage(t *testing.T) {
	stands := append(smallStands(), spawningStand())
	oracle := make([]search.Counters, len(stands))
	for i, cons := range stands {
		ref, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
		if err != nil {
			t.Fatal(err)
		}
		oracle[i] = ref.Counters
	}
	rounds := 50
	if testing.Short() {
		rounds = 10
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g*3 + r) % len(stands)
				cons := stands[i]
				ser, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
				if err != nil {
					t.Error(err)
					return
				}
				site := faultinject.TaskExec
				if r%2 == 1 {
					site = faultinject.EngineStep
				}
				par, err := Run(cons, Options{Threads: 2, InitialTree: -1, Limits: unlimited(),
					Fault: faultinject.New(int64(r)).Set(site, faultinject.Rule{Nth: []int64{1}})})
				if err != nil {
					t.Error(err)
					return
				}
				if ser.Counters != oracle[i] || par.Counters != oracle[i] {
					t.Errorf("goroutine %d, round %d, stand %d: serial %+v, pool %+v, oracle %+v",
						g, r, i, ser.Counters, par.Counters, oracle[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
