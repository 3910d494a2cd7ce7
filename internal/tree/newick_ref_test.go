package tree

import (
	"sort"
	"strings"
)

// referenceNewick is the recursive, string-joining renderer that
// NewickWriter replaced, kept verbatim as the oracle of the differential
// tests: the writer's output must equal it byte for byte.
func referenceNewick(t *Tree) string {
	n := t.NumLeaves()
	switch n {
	case 0:
		return ";"
	case 1:
		return quoteIfNeeded(t.taxa.Name(t.leaves.Min())) + ";"
	case 2:
		els := t.leaves.Elements()
		return "(" + quoteIfNeeded(t.taxa.Name(els[0])) + "," + quoteIfNeeded(t.taxa.Name(els[1])) + ");"
	}
	// Root at the lowest-id leaf's neighbor; render its three subtrees.
	l := t.leafOf[t.leaves.Min()]
	pe := t.nodes[l].adj[0]
	root := t.Other(pe, l)
	type rendered struct {
		minTaxon int
		s        string
	}
	var render func(v, inEdge int32) rendered
	render = func(v, inEdge int32) rendered {
		if tx := t.nodes[v].taxon; tx >= 0 {
			return rendered{int(tx), quoteIfNeeded(t.taxa.Name(int(tx)))}
		}
		var parts []rendered
		nd := &t.nodes[v]
		for i := int8(0); i < nd.deg; i++ {
			e := nd.adj[i]
			if e == inEdge {
				continue
			}
			parts = append(parts, render(t.Other(e, v), e))
		}
		sort.Slice(parts, func(i, j int) bool { return parts[i].minTaxon < parts[j].minTaxon })
		ss := make([]string, len(parts))
		for i, p := range parts {
			ss[i] = p.s
		}
		return rendered{parts[0].minTaxon, "(" + strings.Join(ss, ",") + ")"}
	}
	var parts []rendered
	parts = append(parts, rendered{int(t.nodes[l].taxon), quoteIfNeeded(t.taxa.Name(int(t.nodes[l].taxon)))})
	nd := &t.nodes[root]
	for i := int8(0); i < nd.deg; i++ {
		e := nd.adj[i]
		if e == pe {
			continue
		}
		parts = append(parts, render(t.Other(e, root), e))
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].minTaxon < parts[j].minTaxon })
	ss := make([]string, len(parts))
	for i, p := range parts {
		ss[i] = p.s
	}
	return "(" + strings.Join(ss, ",") + ");"
}
