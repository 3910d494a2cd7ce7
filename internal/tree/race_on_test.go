//go:build race

package tree

// raceEnabled reports whether the race detector is compiled in: sync.Pool
// then drops a share of what is Put on purpose, so allocation pins on pooled
// paths do not hold.
const raceEnabled = true
