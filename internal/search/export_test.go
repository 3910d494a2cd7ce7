package search

import (
	"sync/atomic"
	"testing"

	"gentrius/internal/tree"
)

// CountStandTreeRenders counts in n the lone stand trees Setup.Tree renders
// until the test ends.
func CountStandTreeRenders(t testing.TB, n *atomic.Int64) {
	render := renderStandTree
	renderStandTree = func(tr *tree.Tree) string {
		n.Add(1)
		return render(tr)
	}
	t.Cleanup(func() { renderStandTree = render })
}
