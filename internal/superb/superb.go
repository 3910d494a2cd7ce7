// Package superb implements the SUPERB algorithm (Constantinescu & Sankoff
// 1995) for counting the binary trees on a phylogenetic terrace, in the
// style of the two C++ implementations of Biczok et al. (2018) that the
// Gentrius paper cites as prior work.
//
// SUPERB operates on rooted trees: all constraint trees are rooted at a
// shared comprehensive taxon (one present in every constraint), which is
// exactly the limitation Gentrius removes. The package serves as the
// baseline comparator and as an independent cross-check of Gentrius' stand
// counts on datasets that do have a comprehensive taxon.
//
// Counting recursion: for taxon set X' and rooted constraints, merge each
// constraint's root-child leaf sets into blocks; the connected components
// C1..Ck of the merge relation are the units the supertree's root split may
// arrange freely. Every valid root split is a bipartition of the components
// into two non-empty groups, and the count is the sum over bipartitions of
// the product of the two recursive subproblem counts. A single component
// (k == 1) admits no root split: zero trees. Counts use math/big: terraces
// are routinely astronomically large.
package superb

import (
	"fmt"
	"math/big"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

// MaxComponents bounds the 2^(k-1) bipartition enumeration at one recursion
// level; above it Count returns an error rather than running forever.
const MaxComponents = 24

// rnode is a rooted-tree vertex.
type rnode struct {
	taxon  int32 // >= 0 for leaves
	kids   []*rnode
	leaves *bitset.Set
}

// ComprehensiveTaxon returns a taxon present in every constraint tree, or
// -1 if none exists (then SUPERB is inapplicable — Gentrius' motivation).
func ComprehensiveTaxon(constraints []*tree.Tree) int {
	if len(constraints) == 0 {
		return -1
	}
	common := constraints[0].LeafSet().Clone()
	for _, c := range constraints[1:] {
		common.IntersectWith(c.LeafSet())
	}
	return common.Min()
}

// Count returns the number of binary unrooted trees on the full taxon
// universe that display every constraint tree, by rooting all constraints at
// a comprehensive taxon and running the SUPERB recursion. It requires every
// universe taxon to occur in some constraint and a comprehensive taxon to
// exist.
func Count(constraints []*tree.Tree) (*big.Int, error) {
	_, set, rooted, err := rootAll(constraints)
	if err != nil {
		return nil, err
	}
	return countRooted(set, rooted)
}

// rootAll checks the input of Count and Enumerate and roots every
// constraint at a comprehensive taxon. It returns that taxon, the rest of
// the universe, and the rooted constraints of at least three leaves.
func rootAll(constraints []*tree.Tree) (int, *bitset.Set, []*rnode, error) {
	if len(constraints) == 0 {
		return 0, nil, nil, fmt.Errorf("superb: no constraint trees")
	}
	taxa := constraints[0].Taxa()
	set := bitset.New(taxa.Len())
	for _, c := range constraints {
		set.UnionWith(c.LeafSet())
	}
	if set.Count() != taxa.Len() {
		return 0, nil, nil, fmt.Errorf("superb: %d taxa occur in no constraint", taxa.Len()-set.Count())
	}
	root := ComprehensiveTaxon(constraints)
	if root < 0 {
		return 0, nil, nil, fmt.Errorf("superb: no comprehensive taxon (SUPERB requires one; use Gentrius)")
	}
	rooted := make([]*rnode, 0, len(constraints))
	for _, c := range constraints {
		r, err := rootAt(c, root)
		if err != nil {
			return 0, nil, nil, err
		}
		if r != nil && r.leaves.Count() >= 3 {
			rooted = append(rooted, r)
		}
	}
	set.Remove(root)
	return root, set, rooted, nil
}

// rootAt converts an unrooted constraint to a rooted tree on its leaf set
// minus the root taxon: the root taxon's leaf is removed and its neighbour
// becomes the root (with its remaining two subtrees as children).
func rootAt(t *tree.Tree, rootTaxon int) (*rnode, error) {
	if !t.HasTaxon(rootTaxon) {
		return nil, fmt.Errorf("superb: taxon %d not in constraint", rootTaxon)
	}
	l := t.LeafNode(rootTaxon)
	pe := t.IncidentEdges(l)[0]
	v := t.Other(pe, l)
	var build func(v int32, inEdge int32) *rnode
	build = func(v, inEdge int32) *rnode {
		if tx := t.NodeTaxon(v); tx >= 0 {
			s := bitset.New(t.Taxa().Len())
			s.Add(int(tx))
			return &rnode{taxon: tx, leaves: s}
		}
		n := &rnode{taxon: -1, leaves: bitset.New(t.Taxa().Len())}
		adj := t.IncidentEdges(v)
		for i := 0; i < t.Degree(v); i++ {
			e := adj[i]
			if e == inEdge {
				continue
			}
			k := build(t.Other(e, v), e)
			n.kids = append(n.kids, k)
			n.leaves.UnionWith(k.leaves)
		}
		return n
	}
	return build(v, pe), nil
}

// restrict returns the rooted tree induced on s, or nil when fewer than one
// leaf survives. Unary chains are contracted.
func restrict(n *rnode, s *bitset.Set) *rnode {
	if n.taxon >= 0 {
		if s.Has(int(n.taxon)) {
			return n
		}
		return nil
	}
	var kept []*rnode
	for _, k := range n.kids {
		if !k.leaves.Intersects(s) {
			continue
		}
		if r := restrict(k, s); r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	lv := bitset.New(s.Len())
	for _, k := range kept {
		lv.UnionWith(k.leaves)
	}
	lv.IntersectWith(s) // kept children reused whole may hold leaves outside s
	return &rnode{taxon: -1, kids: kept, leaves: lv}
}

// countRooted counts rooted binary trees on set displaying all constraints:
// the sum over root splits of the product of the two sides' counts.
func countRooted(set *bitset.Set, constraints []*rnode) (*big.Int, error) {
	if set.Count() <= 2 {
		return big.NewInt(1), nil
	}
	total := new(big.Int)
	err := rootSplits(set, constraints, func(left, right *bitset.Set, active []*rnode) error {
		cl, err := countRooted(left, active)
		if err != nil || cl.Sign() == 0 {
			return err
		}
		cr, err := countRooted(right, active)
		if err != nil {
			return err
		}
		total.Add(total, new(big.Int).Mul(cl, cr))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return total, nil
}

// rootSplits is the one step of the recursion that Count and Enumerate
// share. It restricts the constraints to set (dropping vacuous ones), merges
// each root child's leaves into one block, and calls visit once per
// bipartition of the resulting components into two non-empty sides, with
// the restricted constraints for the recursion below. A single component
// admits no root split: visit is never called.
func rootSplits(set *bitset.Set, constraints []*rnode, visit func(left, right *bitset.Set, active []*rnode) error) error {
	var active []*rnode
	for _, c := range constraints {
		r := restrict(c, set)
		if r != nil && r.taxon < 0 && r.leaves.IntersectionCount(set) >= 3 {
			active = append(active, r)
		}
	}
	// Merge blocks: each root child's leaf set must stay unseparated.
	members := set.Elements()
	idx := make(map[int]int, len(members))
	for i, x := range members {
		idx[x] = i
	}
	uf := newUnionFind(len(members))
	for _, c := range active {
		for _, k := range c.kids {
			first := -1
			k.leaves.ForEach(func(x int) {
				if !set.Has(x) {
					return
				}
				if first < 0 {
					first = idx[x]
					return
				}
				uf.union(first, idx[x])
			})
		}
	}
	compOf := make(map[int]int)
	var comps []*bitset.Set
	for i, x := range members {
		r := uf.find(i)
		ci, ok := compOf[r]
		if !ok {
			ci = len(comps)
			compOf[r] = ci
			comps = append(comps, bitset.New(set.Len()))
		}
		comps[ci].Add(x)
	}
	k := len(comps)
	if k > MaxComponents {
		return fmt.Errorf("superb: %d root components exceed limit %d", k, MaxComponents)
	}
	// Bipartitions: component 0 always goes left; proper subsets of the rest
	// join it (none when k == 1).
	for mask := 0; mask < 1<<(k-1)-1; mask++ {
		left := comps[0].Clone()
		right := bitset.New(set.Len())
		for i := 1; i < k; i++ {
			if mask&(1<<(i-1)) != 0 {
				left.UnionWith(comps[i])
			} else {
				right.UnionWith(comps[i])
			}
		}
		if err := visit(left, right, active); err != nil {
			return err
		}
	}
	return nil
}

type unionFind struct {
	parent []int
	rank   []int8
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int8, n)}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
}
