package parallel

import (
	"sync"
	"testing"

	"gentrius/internal/faultinject"
	"gentrius/internal/search"
)

// TestBackToBackRunsShareStorage: goroutines run search.Run and parallel.Run
// back to back on different stands, so each run's terrace.New and every clone
// take whatever storage other runs, on other stands, released last (run
// under -race). The pool runs at two and at four threads with panics
// injected: at the start of the first and the third task (TaskExec), which a
// worker other than worker 0 may run, and inside worker 0's first engine
// step (EngineStep). A panicking worker replaces its Terrace; worker 0's
// makes Setup.NewTerrace rebuild the prototype from the constraints. The
// wrecked Terraces are released with the rest, so their storage passes
// through the free list too. Every result's counters equal the serial
// oracle's.
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
				site, nth := faultinject.TaskExec, []int64{1, 3}
				if r%2 == 1 {
					site, nth = faultinject.EngineStep, []int64{1}
				}
				threads := 2 + 2*(r/2%2)
				par, err := Run(cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited(),
					Fault: faultinject.New(int64(r)).Set(site, faultinject.Rule{Nth: nth})})
				if err != nil {
					t.Error(err)
					return
				}
				if ser.Counters != oracle[i] || par.Counters != oracle[i] {
					t.Errorf("goroutine %d, round %d, stand %d: serial %+v, pool at %d threads %+v, oracle %+v",
						g, r, i, ser.Counters, threads, par.Counters, oracle[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
