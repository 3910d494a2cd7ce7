package dist

import (
	"sort"
	"strings"
	"sync"
)

// treeLog is the form a shard's stand trees have everywhere between the
// worker's engine and the job's spool: the engine's blocks (canonical
// Newicks, each newline-terminated; gentrius.Options.OnTrees), kept as they
// arrive with a mark — the trees so far — behind each. A worker keeps one per
// shard run and ships the blocks between two cuts; the coordinator keeps one
// per shard, cut back before it appends, and hands it to the job block by
// block. Cuts fall on marks: the engine hands on its open block before every
// checkpoint, so a checkpoint's tree counter is the count at some mark.
type treeLog struct {
	mu     sync.Mutex // the engine's collector appends while the heartbeat loop cuts
	blocks []string
	marks  []int // marks[i]: the trees of blocks[:i+1]
}

// Append adds a block of n trees: the one copy a shard's trees get between
// the engine and the job.
func (l *treeLog) Append(block []byte, n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.blocks, l.marks = append(l.blocks, string(block)), append(l.marks, l.trees()+n)
}

func (l *treeLog) trees() int {
	if len(l.marks) == 0 {
		return 0
	}
	return l.marks[len(l.marks)-1]
}

// Trees is the number of trees held; a nil log holds none.
func (l *treeLog) Trees() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trees()
}

// mark finds the cut behind the first `trees` trees: how many blocks lie
// before it; !ok inside a block and past the end.
func (l *treeLog) mark(trees int) (blocks int, ok bool) {
	i := sort.SearchInts(l.marks, trees)
	if i < len(l.marks) && l.marks[i] == trees {
		return i + 1, true
	}
	return 0, trees == 0
}

// Cut returns the blocks between two cuts, not copied (a block never
// changes): none unless the log has both. A nil log has nothing to cut.
func (l *treeLog) Cut(at, to int) TreeDelta {
	if l == nil {
		return TreeDelta{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	a, okA := l.mark(at)
	b, okB := l.mark(to)
	if !okA || !okB || a >= b {
		return TreeDelta{TreesAt: at}
	}
	return TreeDelta{TreesAt: at, TreesN: to - at, Trees: l.blocks[a:b:b]}
}

// Put makes the log hold its first `at` trees and then the n of blocks: what
// it held behind that cut — the same trees, when the answer to an earlier Put
// was lost; a later epoch's, when an earlier one finishes first — is dropped.
// It refuses, changing nothing, a cut the log does not have and blocks that
// are not n whole lines between them.
func (l *treeLog) Put(at int, blocks []string, n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep, ok := l.mark(at)
	marks, trees := make([]int, len(blocks)), at
	for i, b := range blocks {
		trees += strings.Count(b, "\n")
		marks[i] = trees
		ok = ok && strings.HasSuffix(b, "\n")
	}
	if !ok || trees != at+n {
		return false
	}
	l.blocks, l.marks = append(l.blocks[:keep], blocks...), append(l.marks[:keep], marks...)
	return true
}
