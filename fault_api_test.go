package gentrius

import (
	"errors"
	"testing"

	"gentrius/internal/faultinject"
	"gentrius/internal/obs"
	"gentrius/internal/search"
)

// TestPanicFailsRunOnce: through the public entrypoint, a panic at the Nth
// engine step fails the run at one thread and at four with the same error —
// no result, the panic value — and the run's panic counter rises by one per
// failed run, whichever host ran it.
func TestPanicFailsRunOnce(t *testing.T) {
	cons := apiChainConstraints(t, 4, 4)
	reg := obs.NewRegistry()
	sink := &ObsSink{Metrics: obs.NewSchedMetrics(reg)}
	var first error
	for i, threads := range []int{1, 4} {
		opt := unlimitedOptions(threads)
		opt.Obs = sink
		f, err := ParseFaults("seed=1;enginestep.nth=100")
		if err != nil {
			t.Fatal(err)
		}
		opt.Fault = f
		res, err := EnumerateStand(cons, opt)
		var pe *search.PanicError
		if res != nil || !errors.As(err, &pe) || pe.Value != (faultinject.Panic{Site: faultinject.EngineStep, N: 100}) {
			t.Fatalf("T=%d: EnumerateStand returned %+v, %v", threads, res, err)
		}
		if first != nil && err.Error() != first.Error() {
			t.Fatalf("T=%d failed with %q, T=1 with %q", threads, err, first)
		}
		first = err
		if got := reg.Snapshot()["gentrius_worker_panics_recovered_total"]; got != float64(i+1) {
			t.Fatalf("after %d failed runs the panic counter reads %v", i+1, got)
		}
	}
}
