//go:build race

package parallel

// raceEnabled reports whether the race detector is compiled in: sync.Pool
// then drops a share of what is put into it, so allocation counts of a pool
// that recycles its tasks mean nothing.
const raceEnabled = true
