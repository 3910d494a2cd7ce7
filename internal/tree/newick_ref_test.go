package tree

import (
	"fmt"
	"slices"
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

// referenceParse is the two-stage parser the direct-building reader
// replaced, kept verbatim as the oracle of the differential tests: a
// recursive descent into a pnode AST, then buildFromParse into a Tree sized
// to the universe as it stands. The reader must accept and reject the same
// inputs and, where both accept, produce the same node ids, edge ids,
// adjacency order, leafOf and leaf set.
func referenceParse(newick string, taxa *Taxa, autoAdd bool) (*Tree, error) {
	p := &refParser{s: newick, taxa: taxa, autoAdd: autoAdd}
	root, err := p.parse()
	if err != nil {
		return nil, err
	}
	t := New(taxa)
	if err := buildFromParse(t, root); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("newick: parsed tree invalid: %w", err)
	}
	return t, nil
}

type pnode struct {
	taxon    int // >=0 for leaves
	children []*pnode
}

type refParser struct {
	s       string
	i       int
	depth   int
	taxa    *Taxa
	autoAdd bool
}

func (p *refParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("newick: at offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

func (p *refParser) skipSpace() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *refParser) parse() (*pnode, error) {
	n, err := p.subtree()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.i >= len(p.s) || p.s[p.i] != ';' {
		return nil, p.errf("expected ';'")
	}
	p.i++
	p.skipSpace()
	if p.i != len(p.s) {
		return nil, p.errf("trailing characters after ';'")
	}
	return n, nil
}

func (p *refParser) subtree() (*pnode, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return nil, p.errf("unexpected end of input")
	}
	if p.s[p.i] == '(' {
		p.depth++
		if p.depth > maxNesting {
			return nil, p.errf("groups nested deeper than %d", maxNesting)
		}
		p.i++
		n := &pnode{taxon: -1}
		for {
			c, err := p.subtree()
			if err != nil {
				return nil, err
			}
			n.children = append(n.children, c)
			p.skipSpace()
			if p.i >= len(p.s) {
				return nil, p.errf("unterminated '('")
			}
			if p.s[p.i] == ',' {
				p.i++
				continue
			}
			if p.s[p.i] == ')' {
				p.i++
				break
			}
			return nil, p.errf("expected ',' or ')', found %q", p.s[p.i])
		}
		// Optional internal label and branch length, both discarded.
		if _, err := p.label(); err != nil {
			return nil, err
		}
		if err := p.branchLength(); err != nil {
			return nil, err
		}
		p.depth--
		return n, nil
	}
	name, err := p.label()
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, p.errf("expected a taxon label")
	}
	if err := p.branchLength(); err != nil {
		return nil, err
	}
	id, ok := p.taxa.ID(name)
	if !ok {
		if !p.autoAdd {
			return nil, p.errf("unknown taxon %q", name)
		}
		id, err = p.taxa.Add(name)
		if err != nil {
			return nil, err
		}
	}
	return &pnode{taxon: id}, nil
}

// label reads an optional (possibly quoted) label.
func (p *refParser) label() (string, error) {
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == '\'' {
		p.i++
		var b strings.Builder
		for {
			if p.i >= len(p.s) {
				return "", p.errf("unterminated quoted label")
			}
			c := p.s[p.i]
			if c == '\'' {
				if p.i+1 < len(p.s) && p.s[p.i+1] == '\'' { // escaped quote
					b.WriteByte('\'')
					p.i += 2
					continue
				}
				p.i++
				return b.String(), nil
			}
			b.WriteByte(c)
			p.i++
		}
	}
	start := p.i
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case '(', ')', ',', ':', ';', ' ', '\t', '\n', '\r':
			return p.s[start:p.i], nil
		}
		p.i++
	}
	return p.s[start:p.i], nil
}

func (p *refParser) branchLength() error {
	p.skipSpace()
	if p.i < len(p.s) && p.s[p.i] == ':' {
		p.i++
		start := p.i
		for p.i < len(p.s) {
			c := p.s[p.i]
			if (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E' {
				p.i++
				continue
			}
			break
		}
		if p.i == start {
			return p.errf("expected branch length after ':'")
		}
	}
	return nil
}

// buildFromParse assembles the unrooted tree directly from the rooted parse
// tree: binary internal parse nodes become degree-3 tree nodes; a binary
// outermost grouping has its root suppressed (the two child subtrees are
// joined by a single edge); a trifurcating outermost grouping maps to an
// internal node.
func buildFromParse(t *Tree, root *pnode) error {
	nLeaves := countLeaves(root)
	if nLeaves == 0 {
		return fmt.Errorf("newick: tree has no leaves")
	}
	// build returns the root node id of the constructed subtree; leaves are
	// complete, internal nodes still lack their "up" edge.
	var build func(n *pnode) (int32, error)
	build = func(n *pnode) (int32, error) {
		if n.taxon >= 0 {
			if t.leafOf[n.taxon] != NoNode {
				return NoNode, fmt.Errorf("newick: taxon %q appears twice", t.taxa.Name(n.taxon))
			}
			id := t.allocNode(int32(n.taxon))
			t.leafOf[n.taxon] = id
			t.leaves.Add(n.taxon)
			return id, nil
		}
		if len(n.children) != 2 {
			return NoNode, fmt.Errorf("newick: internal vertex with %d children (binary trees required)", len(n.children))
		}
		v := t.allocNode(-1)
		for _, ch := range n.children {
			c, err := build(ch)
			if err != nil {
				return NoNode, err
			}
			e := t.allocEdge(v, c)
			t.addAdj(v, e)
			t.addAdj(c, e)
		}
		return v, nil
	}
	if root.taxon >= 0 {
		_, err := build(root)
		return err
	}
	switch len(root.children) {
	case 2:
		a, err := build(root.children[0])
		if err != nil {
			return err
		}
		b, err := build(root.children[1])
		if err != nil {
			return err
		}
		e := t.allocEdge(a, b)
		t.addAdj(a, e)
		t.addAdj(b, e)
		return nil
	case 3:
		v := t.allocNode(-1)
		for _, ch := range root.children {
			c, err := build(ch)
			if err != nil {
				return err
			}
			e := t.allocEdge(v, c)
			t.addAdj(v, e)
			t.addAdj(c, e)
		}
		return nil
	default:
		return fmt.Errorf("newick: outermost grouping has %d children (want 2 or 3)", len(root.children))
	}
}

func countLeaves(n *pnode) int {
	if n.taxon >= 0 {
		return 1
	}
	c := 0
	for _, ch := range n.children {
		c += countLeaves(ch)
	}
	return c
}

// sameStructure reports the first difference between two trees' node ids
// (taxon and adjacency slot order), edge ids, leafOf and leaf set.
func sameStructure(got, want *Tree) error {
	if len(got.nodes) != len(want.nodes) || len(got.edges) != len(want.edges) {
		return fmt.Errorf("%d nodes and %d edges, want %d and %d",
			len(got.nodes), len(got.edges), len(want.nodes), len(want.edges))
	}
	for v := range want.nodes {
		if got.nodes[v] != want.nodes[v] {
			return fmt.Errorf("node %d is %+v, want %+v", v, got.nodes[v], want.nodes[v])
		}
	}
	for e := range want.edges {
		if got.edges[e] != want.edges[e] {
			return fmt.Errorf("edge %d is %+v, want %+v", e, got.edges[e], want.edges[e])
		}
	}
	if !slices.Equal(got.leafOf, want.leafOf) {
		return fmt.Errorf("leafOf is %v, want %v", got.leafOf, want.leafOf)
	}
	if got.leaves.Len() != want.leaves.Len() || !got.leaves.Equal(want.leaves) {
		return fmt.Errorf("leaf set is %v over %d, want %v over %d",
			got.leaves, got.leaves.Len(), want.leaves, want.leaves.Len())
	}
	return nil
}

// referenceReadLines is the two-pass collection routine the Reader replaced:
// every line parsed once to register its labels, then again against the
// finished universe.
func referenceReadLines(lines []string) ([]*Tree, *Taxa, error) {
	taxa := MustTaxa(nil)
	for i, l := range lines {
		if _, err := referenceParse(l, taxa, true); err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", i+1, err)
		}
	}
	out := make([]*Tree, len(lines))
	for i, l := range lines {
		t, err := referenceParse(l, taxa, false)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		out[i] = t
	}
	return out, taxa, nil
}
