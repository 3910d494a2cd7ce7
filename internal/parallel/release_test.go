package parallel

import (
	"errors"
	"sync"
	"testing"

	"gentrius/internal/faultinject"
	"gentrius/internal/search"
)

// TestBackToBackRunsShareStorage: goroutines run search.Run and parallel.Run
// back to back on different stands, so each run's terrace.New and every clone
// take whatever storage other runs, on other stands, released last (run
// under -race). Every other run has a panic injected — at the start of its
// first, second or third task (TaskExec) or inside its first engine step
// (EngineStep), on the serial host or the pool at two or four threads — and
// fails; its wrecked Terrace, left mid-mutation by the panic, is released
// with the rest, so its storage passes through the free list too. The run
// after each, serial and pooled alike, still equals the serial oracle.
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
				site, nth := faultinject.TaskExec, int64(1+r%3)
				if r%2 == 1 {
					site, nth = faultinject.EngineStep, 1
				}
				inj := faultinject.New(int64(r)).Set(site, faultinject.Rule{Nth: []int64{nth}})
				threads := 2 * (r / 2 % 3) // 0: the serial host
				var got search.Counters
				var err error
				if threads == 0 {
					var res *search.Result
					if res, err = search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited(), Fault: inj}); res != nil {
						got = res.Counters
					}
				} else {
					var res *Result
					if res, err = Run(cons, Options{Threads: threads, InitialTree: -1, Limits: unlimited(), Fault: inj}); res != nil {
						got = res.Counters
					}
				}
				// A stand with fewer tasks than nth, or none, runs to its end.
				var pe *search.PanicError
				fired := inj.Fired(site) == 1
				if fired && !errors.As(err, &pe) || !fired && (err != nil || got != oracle[i]) {
					t.Errorf("goroutine %d, round %d, stand %d, T=%d: %v fired %d times, run returned %+v, %v",
						g, r, i, threads, site, inj.Fired(site), got, err)
					return
				}
				ser, err := search.Run(cons, search.Options{InitialTree: -1, Limits: unlimited()})
				if err != nil {
					t.Error(err)
					return
				}
				par, err := Run(cons, Options{Threads: 2 + 2*(r%2), InitialTree: -1, Limits: unlimited()})
				if err != nil {
					t.Error(err)
					return
				}
				if ser.Counters != oracle[i] || par.Counters != oracle[i] {
					t.Errorf("goroutine %d, round %d, stand %d: after a failed run serial %+v, pool %+v, oracle %+v",
						g, r, i, ser.Counters, par.Counters, oracle[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
