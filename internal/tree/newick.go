package tree

import (
	"fmt"
	"strings"
)

// Parse reads a Newick string (terminated by ';') describing a binary tree
// and returns it as an unrooted Tree over the given taxon universe. If
// autoAdd is true, unknown taxon names are registered in taxa; otherwise
// they are an error. Branch lengths (":1.23") and internal node labels are
// accepted and discarded: stands are a purely topological notion.
//
// The outermost grouping may be a trifurcation "(A,B,C);" (already unrooted),
// a bifurcation "(A,B);" (a rooted representation whose root is suppressed),
// a bare pair for two-taxon trees, or a single label.
func Parse(newick string, taxa *Taxa, autoAdd bool) (*Tree, error) {
	p := &parser{s: newick, taxa: taxa, autoAdd: autoAdd}
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

// MustParse is Parse for static inputs known to be valid; it panics on error.
func MustParse(newick string, taxa *Taxa) *Tree {
	t, err := Parse(newick, taxa, false)
	if err != nil {
		panic(err)
	}
	return t
}

type pnode struct {
	taxon    int // >=0 for leaves
	children []*pnode
}

// maxNesting bounds parenthesis nesting depth. The parser (and the tree
// builder after it) recurse once per nesting level, so without a cap a long
// run of '(' characters overflows the goroutine stack; real trees nest at
// most once per taxon, far below this. The renderer does not recurse.
const maxNesting = 100000

type parser struct {
	s       string
	i       int
	depth   int
	taxa    *Taxa
	autoAdd bool
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("newick: at offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

func (p *parser) skipSpace() {
	for p.i < len(p.s) {
		switch p.s[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

func (p *parser) parse() (*pnode, error) {
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

func (p *parser) subtree() (*pnode, error) {
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
func (p *parser) label() (string, error) {
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

func (p *parser) branchLength() error {
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

// Newick renders the tree in Newick format, rooted for display at the
// internal node adjacent to the lowest-id leaf (or trivially for tiny trees).
// The output is canonical: subtrees are ordered by their minimum taxon id,
// so two trees have equal Newick strings iff they have identical topologies
// and leaf sets.
//
// This is the one-shot form of NewickWriter.String, on a pooled writer; code
// that renders many trees holds a NewickWriter of its own.
func (t *Tree) Newick() string {
	w := writerPool.Get().(*NewickWriter)
	s := w.String(t)
	if len(w.sc) <= maxPooledNodes {
		writerPool.Put(w)
	}
	return s
}

// quoteIfNeeded wraps a label in single quotes when it contains characters
// with syntactic meaning in Newick. The set must cover every byte the
// parser's label() treats as a delimiter — including newlines, which a
// quoted input label may legally contain — or rendered trees stop
// round-tripping.
func quoteIfNeeded(name string) string {
	if !strings.ContainsAny(name, "(),:; \t\n\r'") {
		return name
	}
	return "'" + strings.ReplaceAll(name, "'", "''") + "'"
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
