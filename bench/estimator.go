package main

import (
	"math"
	"sort"
)

// floorK is how many of the smallest samples the floor averages.
const floorK = 3

// floor is the benchmark's timing estimator: the mean of the floorK
// smallest samples. This host runs the same code at two speeds, in streaks
// of seconds (README, "Why floors"), so means and medians follow the mix
// of streaks a run happened to see; the fast mode's edge is what repeats.
// Fewer than floorK samples average what there is; none gives NaN.
func floor(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	if len(s) > floorK {
		s = s[:floorK]
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func median(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := sorted(samples)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func minOf(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	return sorted(samples)[0]
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// unitSample is what one unit of a pass (one dataset, or a serve-jobs pass)
// cost in one round.
type unitSample struct {
	wall      float64 // seconds
	cpu       float64 // process user+sys seconds
	allocMB   float64 // runtime.MemStats.TotalAlloc delta
	firstTree float64 // seconds from entering the entry point to the first tree
}

// variantLog holds every round of one variant of a workload (the T=1
// pass, the T=2 pass, the first-tree probe, ...): rounds[r][u] is unit u
// in round r.
type variantLog struct {
	rounds [][]unitSample
}

func (l *variantLog) add(round []unitSample) { l.rounds = append(l.rounds, round) }

// column returns unit u's samples of one field across the rounds.
func (l *variantLog) column(u int, field func(unitSample) float64) []float64 {
	out := make([]float64, len(l.rounds))
	for r, round := range l.rounds {
		out[r] = field(round[u])
	}
	return out
}

// sumOver applies an estimator to every unit's samples and adds the
// results up: a pass's floor is the sum of its units' floors. A unit is the
// shortest stretch that can be timed on its own, and a short stretch fits
// into a fast streak far more often than a whole pass does.
func (l *variantLog) sumOver(est func([]float64) float64, field func(unitSample) float64) float64 {
	if len(l.rounds) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for u := range l.rounds[0] {
		sum += est(l.column(u, field))
	}
	return sum
}

// passTotals returns one value per round: the field summed over the units.
func (l *variantLog) passTotals(field func(unitSample) float64) []float64 {
	out := make([]float64, len(l.rounds))
	for r, round := range l.rounds {
		for _, u := range round {
			out[r] += field(u)
		}
	}
	return out
}

func wallOf(u unitSample) float64  { return u.wall }
func cpuOf(u unitSample) float64   { return u.cpu }
func allocOf(u unitSample) float64 { return u.allocMB }
func firstOf(u unitSample) float64 { return u.firstTree }
