//go:build race

package search_test

// raceEnabled reports whether the race detector is compiled in: it adds
// allocations of its own to a run, so allocation counts are not pinned then.
const raceEnabled = true
