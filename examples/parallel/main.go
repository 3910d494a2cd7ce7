// Parallel enumeration: generates a hard synthetic dataset, verifies that
// the serial engine, the goroutine-based work-stealing engine and the
// virtual-time simulator all count exactly the same stand, then sweeps the
// simulator over the paper's thread counts to show the speedup curve — the
// measurement the paper's Figures 6 and 7 are built from.
package main

import (
	"fmt"
	"log"

	"gentrius"
	"gentrius/internal/gen"
	"gentrius/internal/parallel"
	"gentrius/internal/search"
)

func main() {
	// Find a dataset with a non-trivial amount of branch-and-bound work.
	cfg := gen.Default(gen.RegimeSimulated)
	cfg.Seed = 4
	var ds *gen.Dataset
	for idx := 0; ; idx++ {
		cand := gen.Generate(cfg, idx)
		probe, err := parallel.Simulate(cand.Constraints, search.Options{
			Threads: 1, InitialTree: -1, Limits: search.Limits{MaxTrees: 300_000, MaxStates: 300_000},
		}, parallel.VirtualTime{MaxTicks: 3_000_000})
		if err != nil {
			log.Fatal(err)
		}
		if probe.Stop.String() == "exhausted" && probe.Ticks > 50_000 {
			ds = cand
			break
		}
	}
	fmt.Printf("dataset %s: %d taxa, %d constraints, %.0f%% missing data\n",
		ds.Name, ds.Taxa.Len(), len(ds.Constraints), 100*ds.PAM.MissingFraction())

	// 1. Serial and goroutine-parallel runs must agree exactly.
	serial, err := gentrius.EnumerateStand(ds.Constraints, gentrius.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	popt := gentrius.DefaultOptions()
	popt.Threads = 4
	par, err := gentrius.EnumerateStand(ds.Constraints, popt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserial:   %8d trees, %8d states, %d dead ends (%v)\n",
		serial.StandTrees, serial.IntermediateStates, serial.DeadEnds, serial.Elapsed.Round(1e6))
	fmt.Printf("parallel: %8d trees, %8d states, %d dead ends (%v, %d goroutines)\n",
		par.StandTrees, par.IntermediateStates, par.DeadEnds, par.Elapsed.Round(1e6), par.Threads)
	if serial.StandTrees != par.StandTrees || serial.IntermediateStates != par.IntermediateStates {
		log.Fatal("serial and parallel disagree!")
	}
	fmt.Println("counts identical — the paper's Sec. IV verification")

	// 2. Virtual-time speedup sweep (this host has one core; real speedups
	// require real cores, so scaling is measured on the simulator).
	fmt.Println("\nvirtual-time speedups (work-stealing simulator):")
	base, err := parallel.Simulate(ds.Constraints, search.Options{Threads: 1, InitialTree: -1}, parallel.VirtualTime{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %2d worker : %9d ticks  (speedup 1.00, serial baseline)\n", 1, base.Ticks)
	for _, w := range []int{2, 4, 8, 12, 16} {
		res, err := parallel.Simulate(ds.Constraints, search.Options{Threads: w, InitialTree: -1}, parallel.VirtualTime{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d workers: %9d ticks  (speedup %.2f, %d tasks stolen, efficiency %.0f%%)\n",
			w, res.Ticks, float64(base.Ticks)/float64(res.Ticks), res.TasksStolen,
			100*res.Efficiency())
	}
}
