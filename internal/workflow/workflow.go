// Package workflow records the branch-and-bound workflow tree of a Gentrius
// search — the tree-of-states structure the paper's Figures 1a, 2, 3 and 5
// draw — and renders it as ASCII or Graphviz DOT. The recorder is meant for
// small instances (teaching, debugging, figure regeneration): workflow
// trees grow with the number of intermediate states.
package workflow

import (
	"fmt"
	"strings"

	"gentrius/internal/search"
	"gentrius/internal/terrace"
	"gentrius/internal/tree"
)

// Node is one state of the workflow tree: the insertion that produced it
// and the subtree of states below it.
type Node struct {
	// Taxon and Edge describe the insertion leading to this state; the root
	// has Taxon == -1.
	Taxon int
	Edge  int32
	// Complete marks a stand tree (leaf of the workflow); DeadEnd marks a
	// state from which some remaining taxon had no admissible branch.
	Complete bool
	DeadEnd  bool
	// Newick is the completed stand tree (Complete nodes only).
	Newick   string
	Children []*Node

	// Subtree totals (filled by Record).
	States   int
	Trees    int
	DeadEnds int
}

// Record runs the search below the given constraint set and captures the
// whole workflow tree. It refuses to record more than maxStates states
// (default 10,000 when zero): workflow trees are exponential objects.
func Record(constraints []*tree.Tree, initialIdx int, maxStates int) (*Node, error) {
	if maxStates <= 0 {
		maxStates = 10_000
	}
	if initialIdx < 0 {
		initialIdx = search.ChooseInitialTree(constraints)
	}
	t, err := terrace.New(constraints, initialIdx)
	if err != nil {
		return nil, err
	}
	eng := search.NewEngine(t)
	missing := len(t.MissingTaxa())
	var found []string // the stand trees of the last step, in order
	eng.OnTree = func(nw string) { found = append(found, nw) }
	root := &Node{Taxon: -1, Edge: -1}
	stack := []*Node{root}
	states := 0
	for {
		found = found[:0]
		ev := eng.Step()
		eng.FlushTrees()
		if ev == search.EvDone {
			break
		}
		parent := stack[len(stack)-1]
		switch ev {
		case search.EvTreeFound:
			// One step consumed a final frame: a complete child per branch.
			taxon, edges := eng.FinalFrame()
			if states += len(found); states > maxStates {
				return nil, tooMany(maxStates)
			}
			if len(edges) == 0 {
				// The initial tree is already complete: the stand is just it.
				root.Complete, root.Newick = true, found[0]
			}
			for i, e := range edges {
				parent.Children = append(parent.Children,
					&Node{Taxon: taxon, Edge: e, Complete: true, Newick: found[i]})
			}
		case search.EvLookAhead:
			// One step answered a branch of the second-to-last taxon without
			// inserting it: the state, and under it a complete child per
			// branch of the last taxon, or the state is a dead end.
			taxon, edges := eng.FinalFrame()
			if states += 1 + len(found); states > maxStates {
				return nil, tooMany(maxStates)
			}
			st := eng.LookedAhead()
			n := &Node{Taxon: st.Taxon, Edge: st.Edge, DeadEnd: len(edges) == 0}
			for i, e := range edges {
				n.Children = append(n.Children, &Node{Taxon: taxon, Edge: e, Complete: true, Newick: found[i]})
			}
			parent.Children = append(parent.Children, n)
		case search.EvInserted, search.EvDeadEnd:
			if states++; states > maxStates {
				return nil, tooMany(maxStates)
			}
			path := eng.Path(nil)
			last := path[len(path)-1]
			n := &Node{Taxon: last.Taxon, Edge: last.Edge, DeadEnd: ev == search.EvDeadEnd}
			parent.Children = append(parent.Children, n)
			if ev == search.EvInserted {
				stack = append(stack, n)
			}
		case search.EvRemoved:
			// The engine's own stack, not the Terrace's depth: a removal of
			// a booked insertion leaves the Terrace as it was.
			if len(stack) > 1 && missing-eng.RemainingTaxa() < len(stack)-1 {
				stack = stack[:len(stack)-1]
			}
		}
	}
	fill(root)
	return root, nil
}

func tooMany(maxStates int) error {
	return fmt.Errorf("workflow: more than %d states; raise maxStates or use a smaller instance", maxStates)
}

// fill computes subtree totals post-order.
func fill(n *Node) {
	if n.Complete {
		n.Trees = 1
		return
	}
	if n.DeadEnd {
		n.DeadEnds = 1
		n.States = 1
		return
	}
	if n.Taxon >= 0 {
		n.States = 1
	}
	for _, c := range n.Children {
		fill(c)
		n.States += c.States
		n.Trees += c.Trees
		n.DeadEnds += c.DeadEnds
	}
}

// label renders a node's insertion description.
func (n *Node) label(taxa *tree.Taxa) string {
	switch {
	case n.Taxon < 0:
		return "I0"
	default:
		return fmt.Sprintf("+%s@e%d", taxa.Name(n.Taxon), n.Edge)
	}
}

// RenderASCII draws the workflow tree with box-drawing indentation, marking
// stand trees with '*' and dead ends with 'x' — the textual analogue of the
// paper's Figure 1a workflow diagram.
func (n *Node) RenderASCII(taxa *tree.Taxa) string {
	var b strings.Builder
	var rec func(n *Node, prefix string, last bool)
	rec = func(n *Node, prefix string, last bool) {
		connector := "├─"
		childPrefix := prefix + "│ "
		if last {
			connector = "└─"
			childPrefix = prefix + "  "
		}
		if n.Taxon < 0 {
			fmt.Fprintf(&b, "%s (states=%d trees=%d deadends=%d)\n",
				n.label(taxa), n.States, n.Trees, n.DeadEnds)
			childPrefix = ""
		} else {
			mark := ""
			if n.Complete {
				mark = " *"
			}
			if n.DeadEnd {
				mark = " x"
			}
			fmt.Fprintf(&b, "%s%s %s%s\n", prefix, connector, n.label(taxa), mark)
		}
		for i, c := range n.Children {
			rec(c, childPrefix, i == len(n.Children)-1)
		}
	}
	rec(n, "", true)
	return b.String()
}

// RenderDOT emits the workflow tree as a Graphviz digraph: stand trees as
// doublecircles, dead ends as filled boxes.
func (n *Node) RenderDOT(taxa *tree.Taxa) string {
	var b strings.Builder
	b.WriteString("digraph workflow {\n  node [shape=circle, fontsize=10];\n")
	id := 0
	var rec func(n *Node) int
	rec = func(n *Node) int {
		my := id
		id++
		attrs := fmt.Sprintf("label=%q", n.label(taxa))
		switch {
		case n.Complete:
			attrs += ", shape=doublecircle"
		case n.DeadEnd:
			attrs += ", shape=box, style=filled, fillcolor=gray80"
		}
		fmt.Fprintf(&b, "  n%d [%s];\n", my, attrs)
		for _, c := range n.Children {
			ci := rec(c)
			fmt.Fprintf(&b, "  n%d -> n%d;\n", my, ci)
		}
		return my
	}
	rec(n)
	b.WriteString("}\n")
	return b.String()
}
