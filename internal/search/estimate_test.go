// Tests of the online work estimator: the weighted backtrack mass must
// telescope to exactly 1 on exhaustion, approximate the true explored
// fraction mid-run, and survive checkpoint/resume with the consumed mass
// re-seeded.
package search

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"gentrius/internal/obs"
)

// TestEstimatorMassTelescopesToOne: children's weights sum to the parent's,
// so the mass over all leaves (trees + dead ends) is exactly 1 when the
// space is exhausted — up to float addition error.
func TestEstimatorMassTelescopesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for scen := 0; scen < 12; scen++ {
		cons := randomScenario(rng, 9+rng.Intn(5), 2+rng.Intn(3), 4, 0.5)
		est := &obs.Estimator{}
		res, err := Run(cons, Options{
			Limits: Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
			Obs:    &obs.Sink{Estimate: est},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopExhausted {
			t.Fatalf("scenario %d not exhausted: %v", scen, res.Stop)
		}
		if f := est.Fraction(); math.Abs(f-1) > 1e-9 {
			t.Fatalf("scenario %d: exhausted fraction = %.12f, want 1", scen, f)
		}
		if est.Leaves() != res.StandTrees+res.DeadEnds {
			t.Fatalf("scenario %d: %d leaves recorded, counters say %d trees + %d dead ends",
				scen, est.Leaves(), res.StandTrees, res.DeadEnds)
		}
	}
}

// TestEstimatorConvergence: the acceptance bar — by the time half the true
// intermediate states are explored, the estimated fraction complete is
// within a factor of 2 of the true fraction. Checked over six sizable
// random search spaces; one outlier is tolerated, since the weighted
// backtrack estimator is unbiased in leaf mass but can lag badly on a
// space whose first-explored subtrees are mass-light and state-heavy.
func TestEstimatorConvergence(t *testing.T) {
	const needed = 6
	passed := 0
	checked := 0
	unlimited := Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1}
	for seed := int64(1); seed <= 60 && checked < needed; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cons := randomScenario(rng, 13+rng.Intn(5), 2+rng.Intn(2), 4, 0.45)

		ref, err := Run(cons, Options{Limits: unlimited})
		if err != nil {
			t.Fatal(err)
		}
		total := ref.IntermediateStates
		if total < 1_000 {
			continue // too small for a meaningful mid-run measurement
		}

		// A snapshot at every stopping-rule check reads the counters there.
		est := &obs.Estimator{}
		estFrac, trueFrac := -1.0, 0.0
		_, err = Run(cons, Options{
			Limits:     unlimited,
			Obs:        &obs.Sink{Estimate: est},
			CheckEvery: 64,
			Checkpoint: CheckpointPolicy{Interval: time.Nanosecond, Sink: func(cp *Checkpoint) {
				if c := cp.Counters; estFrac < 0 && c.IntermediateStates >= total/2 {
					estFrac = est.Fraction()
					trueFrac = float64(c.IntermediateStates) / float64(total)
				}
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if estFrac < 0 {
			t.Fatalf("seed %d: halfway point never observed (total %d)", seed, total)
		}
		checked++
		if ratio := estFrac / trueFrac; ratio >= 0.5 && ratio <= 2 {
			passed++
		} else {
			t.Logf("seed %d: at %.0f%% of %d states the estimate is %.3f (true %.3f, ratio %.2fx)",
				seed, 100*trueFrac, total, estFrac, trueFrac, ratio)
		}
	}
	if checked < needed {
		t.Fatalf("only %d/%d seeds produced a sizable search space", checked, needed)
	}
	if passed < needed-1 {
		t.Fatalf("only %d/%d sizable seeds were within 2x of the true fraction at the halfway mark", passed, checked)
	}
}

// TestEstimatorResumeSeedsConsumedMass: a run interrupted by a state limit
// and resumed from its checkpoint with a fresh estimator must still end at
// fraction 1 — one minus the frontier view's remaining mass is the mass
// consumed before the snapshot.
func TestEstimatorResumeSeedsConsumedMass(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	tested := 0
	for scen := 0; scen < 25 && tested < 5; scen++ {
		cons := randomScenario(rng, 13+rng.Intn(5), 2+rng.Intn(2), 4, 0.45)
		first, err := Run(cons, Options{
			Limits:     Limits{MaxTrees: -1, MaxStates: int64(30 + rng.Intn(120)), MaxTime: -1},
			CheckEvery: 16,
			Checkpoint: CheckpointPolicy{OnStop: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if first.Checkpoint == nil {
			continue // exhausted before the limit fired
		}
		est := &obs.Estimator{}
		res, err := Run(cons, Options{
			Limits:     Limits{MaxTrees: -1, MaxStates: -1, MaxTime: -1},
			Obs:        &obs.Sink{Estimate: est},
			Checkpoint: CheckpointPolicy{Resume: first.Checkpoint},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stop != StopExhausted {
			t.Fatalf("scenario %d: resumed run not exhausted: %v", scen, res.Stop)
		}
		if f := est.Fraction(); math.Abs(f-1) > 1e-9 {
			t.Fatalf("scenario %d: resumed fraction = %.12f, want 1 (checkpoint at %d states)",
				scen, f, first.IntermediateStates)
		}
		// The seeded counters plus the resumed half equal the full run's.
		if est.States() != res.IntermediateStates {
			t.Fatalf("scenario %d: estimator states %d, result %d",
				scen, est.States(), res.IntermediateStates)
		}
		tested++
	}
	if tested < 5 {
		t.Fatalf("only %d/5 scenarios hit the state limit", tested)
	}
}
