package simsched

import (
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// emptyTerraceStorage empties terrace's free list, so that the next
// terrace.New or Clone lays its state out in storage of its own. Each New
// takes one storage, and the list never holds more than the most Terraces
// ever alive at once — a few dozen in these tests — so 1 024 News of a
// four-taxon stand, none of them released, leave it empty.
func emptyTerraceStorage() {
	taxa := tree.MustTaxa([]string{"a", "b", "c", "d"})
	cons := []*tree.Tree{tree.MustParse("((a,b),(c,d));", taxa)}
	for i := 0; i < 1024; i++ {
		if _, err := terrace.New(cons, 0); err != nil {
			panic(err)
		}
	}
}
