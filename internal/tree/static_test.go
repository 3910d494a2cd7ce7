package tree

import (
	"math/rand"
	"reflect"
	"testing"
)

// naive path helpers for cross-checking the index.
func naivePath(t *Tree, u, v int32) []int32 {
	prev := make([]int32, t.NumNodes())
	for i := range prev {
		prev[i] = NoNode
	}
	prev[u] = u
	stack := []int32{u}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == v {
			break
		}
		adj := t.IncidentEdges(x)
		for i := 0; i < t.Degree(x); i++ {
			y := t.Other(adj[i], x)
			if prev[y] == NoNode {
				prev[y] = x
				stack = append(stack, y)
			}
		}
	}
	var path []int32
	for x := v; ; x = prev[x] {
		path = append(path, x)
		if x == u {
			break
		}
	}
	return path
}

func TestStaticIndexAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for it := 0; it < 25; it++ {
		n := 4 + rng.Intn(40)
		taxa := MustTaxa(names(n))
		tr := randomTree(taxa, rng)
		ix := NewStaticIndex(tr)
		nn := int32(tr.NumNodes())
		for q := 0; q < 50; q++ {
			u := int32(rng.Intn(int(nn)))
			v := int32(rng.Intn(int(nn)))
			w := int32(rng.Intn(int(nn)))
			// Dist check.
			if got, want := ix.Dist(u, v), int32(len(naivePath(tr, u, v))-1); got != want {
				t.Fatalf("Dist(%d,%d) = %d, want %d", u, v, got, want)
			}
			// Median: the unique node on all three pairwise paths.
			m := ix.Median(u, v, w)
			for _, pair := range [][2]int32{{u, v}, {u, w}, {v, w}} {
				if !ix.OnPath(m, pair[0], pair[1]) {
					t.Fatalf("median %d of (%d,%d,%d) not on path %v", m, u, v, w, pair)
				}
			}
			// OnPath cross-check against the naive path.
			path := naivePath(tr, u, v)
			onNaive := make(map[int32]bool, len(path))
			for _, x := range path {
				onNaive[x] = true
			}
			x := int32(rng.Intn(int(nn)))
			if got := ix.OnPath(x, u, v); got != onNaive[x] {
				t.Fatalf("OnPath(%d,%d,%d) = %v, want %v", x, u, v, got, onNaive[x])
			}
		}
	}
}

func TestLCASelfAndAdjacent(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D"})
	tr := MustParse("((A,B),(C,D));", taxa)
	ix := NewStaticIndex(tr)
	for v := int32(0); v < int32(tr.NumNodes()); v++ {
		if ix.LCA(v, v) != v {
			t.Fatalf("LCA(%d,%d) != %d", v, v, v)
		}
		if ix.Dist(v, v) != 0 {
			t.Fatal("Dist(v,v) != 0")
		}
		if ix.Median(v, v, v) != v {
			t.Fatal("Median(v,v,v) != v")
		}
	}
}

func TestMedianQuartets(t *testing.T) {
	taxa := MustTaxa([]string{"A", "B", "C", "D"})
	tr := MustParse("((A,B),(C,D));", taxa)
	ix := NewStaticIndex(tr)
	a, b, c := tr.LeafNode(0), tr.LeafNode(1), tr.LeafNode(2)
	m := ix.Median(a, b, c)
	// Must be the internal node adjacent to both A and B.
	if tr.NodeTaxon(m) >= 0 {
		t.Fatal("median of three leaves is a leaf")
	}
	if ix.Dist(a, m) != 1 || ix.Dist(b, m) != 1 {
		t.Fatalf("median not adjacent to A and B: dists %d %d", ix.Dist(a, m), ix.Dist(b, m))
	}
}

// randomShape builds a tree of n unlabelled nodes, each attached to a random
// earlier one of degree under three — or, with path set, to the one before
// it. Unlike a binary tree it can have any number of nodes.
func randomShape(rng *rand.Rand, n int, path bool) *Tree {
	tr := New(MustTaxa(nil))
	tr.allocNode(-1)
	open := []int32{0}
	for v := int32(1); v < int32(n); v++ {
		i := len(open) - 1
		if !path {
			i = rng.Intn(len(open))
		}
		p := open[i]
		tr.allocNode(-1)
		e := tr.allocEdge(p, v)
		tr.addAdj(p, e)
		tr.addAdj(v, e)
		if tr.nodes[p].deg == 3 {
			open[i] = open[len(open)-1]
			open = open[:len(open)-1]
		}
		if path {
			open = open[:0]
		}
		open = append(open, v)
	}
	return tr
}

// TestLCAAgainstParentWalk checks the index against a naive rooting at node
// 0 and against the Euler-tour index it replaced (refStaticIndex): every
// node's parent, parent edge and depth, every pair's LCA and Dist, and
// Median, MedianPre and OnPath of random triples. The trees are random ones;
// the shapes of one, two and three leaves; caterpillars; and, random and as
// paths (the deepest trees there are), every node count 2^k-1, 2^k and
// 2^k+1 up to 257 — where the table gains a level, and where the entries of
// its last level reach the end of their row.
func TestLCAAgainstParentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var trees []*Tree
	for k := 1; k <= 8; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			trees = append(trees, randomShape(rng, n, false), randomShape(rng, n, true))
		}
	}
	for _, nw := range []string{"A;", "(A,B);", "(A,B,C);", "((A,B),C);"} {
		taxa := MustTaxa(nil)
		tr, err := Parse(nw, taxa, true)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tr)
	}
	for _, n := range []int{4, 9, 64} {
		taxa := MustTaxa(names(n))
		cat := New(taxa)
		cat.AddFirstLeaf(0)
		cat.AddSecondLeaf(1)
		for x := 2; x < n; x++ {
			cat.AttachLeaf(x, int32(cat.NumEdges()-1)) // always on the newest pendant edge
		}
		trees = append(trees, cat)
	}
	for it := 0; it < 40; it++ {
		trees = append(trees, randomTree(MustTaxa(names(3+rng.Intn(60))), rng))
	}
	for _, tr := range trees {
		n := int32(tr.NumNodes())
		parent, pedge, depth := make([]int32, n), make([]int32, n), make([]int32, n)
		for i := range parent {
			parent[i], pedge[i] = NoNode, NoEdge
		}
		queue := []int32{0}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			adj, deg := tr.Adjacency(v)
			for _, e := range adj[:deg] {
				if u := tr.Other(e, v); u != parent[v] {
					parent[u], pedge[u], depth[u] = v, e, depth[v]+1
					queue = append(queue, u)
				}
			}
		}
		ix, ref := NewStaticIndex(tr), newRefStaticIndex(tr)
		for u := int32(0); u < n; u++ {
			if ix.Parent(u) != parent[u] || ix.ParentEdge(u) != pedge[u] || ix.Depth(u) != depth[u] {
				t.Fatalf("%d nodes: node %d has parent %d by edge %d at depth %d, want %d, %d, %d", n,
					u, ix.Parent(u), ix.ParentEdge(u), ix.Depth(u), parent[u], pedge[u], depth[u])
			}
			for v := int32(0); v < n; v++ {
				a, b := u, v
				for a != b {
					if depth[a] < depth[b] {
						a, b = b, a
					}
					a = parent[a]
				}
				if got, old := ix.LCA(u, v), ref.LCA(u, v); got != a || old != a {
					t.Fatalf("%d nodes: LCA(%d,%d) = %d, Euler tour %d, want %d", n, u, v, got, old, a)
				}
				if got, want := ix.Dist(u, v), ref.Dist(u, v); got != want {
					t.Fatalf("%d nodes: Dist(%d,%d) = %d, want %d", n, u, v, got, want)
				}
			}
		}
		for q := 0; q < 200; q++ {
			u, v, w, x := rng.Int31n(n), rng.Int31n(n), rng.Int31n(n), rng.Int31n(n)
			want := ref.Median(u, v, w)
			if got, pre := ix.Median(u, v, w), ix.MedianPre(ix.LCA(u, v), u, v, w); got != want || pre != want {
				t.Fatalf("%d nodes: Median(%d,%d,%d) = %d, MedianPre %d, want %d", n, u, v, w, got, pre, want)
			}
			if got, want := ix.OnPath(x, u, v), ref.Dist(u, x)+ref.Dist(x, v) == ref.Dist(u, v); got != want {
				t.Fatalf("%d nodes: OnPath(%d,%d,%d) = %v, want %v", n, x, u, v, got, want)
			}
		}
	}
}

// TestBuildStaticIndexesReuse: indexes built into a slab that held anything
// are the indexes NewStaticIndex builds, entry for entry, and a slab that
// holds them is used without allocating; one that does not is replaced.
func TestBuildStaticIndexesReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var ts []*Tree
	for _, n := range []int{3, 4, 17, 64, 200} {
		ts = append(ts, randomTree(MustTaxa(names(n)), rng))
	}
	want := make([]*StaticIndex, len(ts))
	for i, tr := range ts {
		want[i] = NewStaticIndex(tr)
	}
	ixs := make([]StaticIndex, len(ts))
	slab := BuildStaticIndexes(ixs, ts, nil, nil)
	for i := range slab {
		slab[i] = int32(rng.Uint32())
	}
	if n := testing.AllocsPerRun(5, func() { BuildStaticIndexes(ixs, ts, nil, slab) }); n != 0 {
		t.Fatalf("building into a slab that holds the indexes allocates %v times", n)
	}
	for i := range ts {
		if !reflect.DeepEqual(&ixs[i], want[i]) {
			t.Fatalf("index on %d nodes built into a used slab differs from a fresh one", ts[i].NumNodes())
		}
	}
	small := make([]int32, len(slab)-1)
	if got := BuildStaticIndexes(ixs, ts, nil, small); len(got) != len(slab) || &got[0] == &small[0] {
		t.Fatalf("a slab one entry short was used (%d entries returned, %d needed)", len(got), len(slab))
	}
}

// TestStaticIndexAllocs: the index and one slab, whatever the tree.
func TestStaticIndexAllocs(t *testing.T) {
	tr := randomTree(MustTaxa(names(200)), rand.New(rand.NewSource(31)))
	if n := testing.AllocsPerRun(20, func() { NewStaticIndex(tr) }); n > 2 {
		t.Fatalf("NewStaticIndex allocates %v times, want at most 2", n)
	}
}
