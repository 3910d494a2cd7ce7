package main

import (
	"math"
	"testing"
)

func TestFloor(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"three smallest of many", []float64{9, 1, 8, 2, 7, 3, 100}, 2},
		{"order does not matter", []float64{3, 100, 2, 9, 1, 8, 7}, 2},
		{"exactly three", []float64{4, 2, 6}, 4},
		{"two samples average both", []float64{4, 2}, 3},
		{"one sample is itself", []float64{5}, 5},
		{"ties count once each", []float64{2, 2, 2, 2, 50}, 2},
		{"tie at the cut", []float64{1, 3, 3, 3}, 7.0 / 3},
	}
	for _, c := range cases {
		if got := floor(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: floor(%v) = %v, want %v", c.name, c.in, got, c.want)
		}
	}
	if got := floor(nil); !math.IsNaN(got) {
		t.Errorf("floor of nothing = %v, want NaN", got)
	}
	in := []float64{3, 1, 2}
	floor(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("floor reordered its argument: %v", in)
	}
}

func TestMedianAndMin(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := minOf([]float64{4, 1, 3}); got != 1 {
		t.Errorf("min = %v", got)
	}
}

// A pass's floor is the sum of its units' floors: each unit picks its own
// best rounds, which need not be the same rounds.
func TestSumOverUnits(t *testing.T) {
	var l variantLog
	for _, round := range [][]float64{{1, 20}, {2, 10}, {9, 11}, {1, 30}, {1, 12}} {
		l.add([]unitSample{{wall: round[0]}, {wall: round[1]}})
	}
	if got, want := l.sumOver(floor, wallOf), 1.0+11.0; got != want {
		t.Errorf("sum of unit floors = %v, want %v", got, want)
	}
	totals := l.passTotals(wallOf)
	if len(totals) != 5 || totals[0] != 21 || totals[2] != 20 {
		t.Errorf("pass totals = %v", totals)
	}
	var empty variantLog
	if got := empty.sumOver(floor, wallOf); !math.IsNaN(got) {
		t.Errorf("no rounds = %v, want NaN", got)
	}
}

// quartiles must give what Python's statistics.quantiles(v, n=4) gives,
// because that is what the driver judges the benchmark's spread with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 3, 1, 4, 2}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
