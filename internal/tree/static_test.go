package tree

import (
	"math/rand"
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

// TestLCAAgainstParentWalk checks every pair's LCA, and the parent, parent
// edge and depth arrays, against a naive rooting at node 0 — on random trees
// and on the shapes the tour's corner cases live in: one, two and three
// leaves, and caterpillars (the deepest trees there are).
func TestLCAAgainstParentWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var trees []*Tree
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
		ix := NewStaticIndex(tr)
		for u := int32(0); u < n; u++ {
			if ix.Parent(u) != parent[u] || ix.ParentEdge(u) != pedge[u] || ix.Depth(u) != depth[u] {
				t.Fatalf("%s: node %d has parent %d by edge %d at depth %d, want %d, %d, %d", tr.Newick(),
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
				if got := ix.LCA(u, v); got != a {
					t.Fatalf("%s: LCA(%d,%d) = %d, want %d", tr.Newick(), u, v, got, a)
				}
			}
		}
	}
}

func TestStaticIndexAllocs(t *testing.T) {
	tr := randomTree(MustTaxa(names(200)), rand.New(rand.NewSource(31)))
	if n := testing.AllocsPerRun(20, func() { NewStaticIndex(tr) }); n > 4 {
		t.Fatalf("NewStaticIndex allocates %v times, want at most 4", n)
	}
}
