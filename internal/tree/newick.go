package tree

import (
	"bytes"
	"fmt"
	"strings"

	"gentrius/internal/bitset"
)

// Parse reads a Newick string (terminated by ';') describing a binary tree
// and returns it as an unrooted Tree over the given taxon universe. If
// autoAdd is true, unknown taxon names are registered in taxa (those met
// before an error stay registered); otherwise they are an error. Branch
// lengths (":1.23") and internal node labels are accepted and discarded:
// stands are a purely topological notion.
//
// The outermost grouping may be a trifurcation "(A,B,C);" (already unrooted),
// a bifurcation "(A,B);" (a rooted representation whose root is suppressed),
// a bare pair for two-taxon trees, or a single label.
func Parse(newick string, taxa *Taxa, autoAdd bool) (*Tree, error) {
	p := parser{taxa: taxa, autoAdd: autoAdd}
	t := new(Tree)
	if err := p.tree([]byte(newick), t); err != nil {
		return nil, err
	}
	n := taxa.Len()
	leafOf := make([]int32, n)
	fillNoNode(leafOf)
	t.fit(leafOf, bitset.New(n))
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

// Reader builds a collection of trees over one taxon universe in a single
// pass over their text — the one way constraint trees enter the program.
// Labels are registered as they are met, so taxon ids follow first
// appearance. A tree's nodes and edges take one allocation, sized by two
// byte counts of its text; what is sized to the universe — each tree's leaf
// index and leaf set — can only be laid out once the last tree has been
// read, which is what Finish does, in one slab each for all the trees.
type Reader struct {
	p     parser
	trees []Tree // parsed, and not yet fitted to the universe
	line  int
}

// readerTrees is the room a Reader makes for trees at its first: that of a
// typical input's loci.
const readerTrees = 16

// NewReader returns a reader over taxa; nil stands for a fresh universe.
// With autoAdd unknown labels are registered, otherwise they are an error.
func NewReader(taxa *Taxa, autoAdd bool) *Reader {
	if taxa == nil {
		taxa = MustTaxa(nil)
	}
	return &Reader{p: parser{taxa: taxa, autoAdd: autoAdd}}
}

// Add parses one Newick tree. The text is not retained.
func (r *Reader) Add(newick []byte) error {
	if r.trees == nil {
		r.trees = make([]Tree, 0, readerTrees)
	}
	r.trees = append(r.trees, Tree{})
	if err := r.p.tree(newick, &r.trees[len(r.trees)-1]); err != nil {
		r.trees = r.trees[:len(r.trees)-1]
		return err
	}
	return nil
}

var utf8BOM = []byte("\xef\xbb\xbf")

// Line takes the next line of a one-tree-per-line document: blank lines and
// lines starting with '#' are skipped, a byte-order mark before the first
// line is dropped, and errors name the line.
func (r *Reader) Line(text []byte) error {
	r.line++
	if r.line == 1 {
		text = bytes.TrimPrefix(text, utf8BOM)
	}
	text = bytes.TrimSpace(text)
	if len(text) == 0 || text[0] == '#' {
		return nil
	}
	if err := r.Add(text); err != nil {
		return fmt.Errorf("line %d: %w", r.line, err)
	}
	return nil
}

// Finish fits every tree read to the finished universe and returns them
// with it.
func (r *Reader) Finish() ([]*Tree, *Taxa, error) {
	k := len(r.trees)
	if k == 0 {
		return nil, nil, fmt.Errorf("newick: no trees in input")
	}
	n := r.p.taxa.Len()
	nw := bitset.WordsFor(n)
	leafOf, words := make([]int32, k*n), make([]uint64, k*nw)
	fillNoNode(leafOf)
	sets, out := make([]bitset.Set, k), make([]*Tree, k)
	for i := range r.trees {
		sets[i] = bitset.Over(n, words[i*nw:(i+1)*nw:(i+1)*nw])
		out[i] = &r.trees[i]
		out[i].fit(leafOf[i*n:(i+1)*n:(i+1)*n], &sets[i])
	}
	return out, r.p.taxa, nil
}

// ReadLines reads one tree per element over a fresh universe, as
// Reader.Line reads the lines of a file.
func ReadLines(lines []string) ([]*Tree, error) {
	r := NewReader(nil, true)
	for _, l := range lines {
		if err := r.Line([]byte(l)); err != nil {
			return nil, err
		}
	}
	trees, _, err := r.Finish()
	return trees, err
}

// maxNesting bounds parenthesis nesting depth: real trees nest at most once
// per taxon, far below this.
const maxNesting = 100000

// parser builds trees straight from their text, in one loop over it: nodes
// and edges are written by index into arrays sized before the first byte is
// read, in an order that is part of the program's contract. A group's node is
// allocated at its '(' and a leaf's at its label, so node ids run in
// preorder; the edge from a vertex to a child is allocated when the child's
// subtree is complete, so edge ids run in postorder and an internal vertex
// lists its two child edges before the edge to its parent. The outermost
// group is parsed as a vertex of up to three subtrees; one that closes on two
// is a suppressed root, which suppressRoot takes out. Path tasks, checkpoints
// and golden traces name branches by these ids.
type parser struct {
	taxa    *Taxa
	autoAdd bool
	s       []byte
	i       int
	quoted  []byte // the unescaped text of the last quoted label

	// named holds a bit per taxon id, set once the tree being parsed has
	// named it: a taxon named twice in one tree is an error.
	named []uint64
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("newick: at offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

var (
	comma, paren = []byte{','}, []byte{'('}
	noAdj        = [3]int32{NoEdge, NoEdge, NoEdge}

	// space marks the bytes skipped between tokens, delim those that end an
	// unquoted label.
	space = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}
	delim = [256]bool{' ': true, '\t': true, '\n': true, '\r': true,
		'(': true, ')': true, ',': true, ':': true, ';': true}
)

// tree parses one tree into t. Its nodes and edges take one allocation,
// sized by two counts of the text that bound what any parse of it allocates:
// a subtree starts at the first byte, after each '(' and after each ',', and
// allocates one node, and an edge joins each node but the first to the group
// around it. A binary tree of l >= 3 leaves written as a vertex has l-1
// commas and l-2 groups, so the bound is its 2l-2 nodes; written as a
// suppressed root, one more, which is the outermost group's node. Commas and
// parentheses in quoted labels only loosen it. The tree's leaf index and leaf
// set are missing: fit completes it once the universe is final.
func (p *parser) tree(s []byte, t *Tree) error {
	commas := bytes.Count(s, comma)
	n := 1 + commas + bytes.Count(s, paren)
	known := p.taxa.Len()
	if known == 0 && p.autoAdd {
		p.taxa.reserve(commas + 1) // a fresh universe: its first tree names most of it
	}
	t.taxa = p.taxa
	t.nodes, t.edges = newArrays(n, n-1)
	if w := (known + commas + 64) >> 6; len(p.named) < w {
		p.named = append(p.named, make([]uint64, w-len(p.named))...)
	}
	clear(p.named)
	p.s, p.i = s, 0

	nn, ne, err := p.body(t.nodes, t.edges)
	t.nodes, t.edges = t.nodes[:nn], t.edges[:ne]
	if err != nil {
		return err
	}
	if nn > 1 && t.nodes[0].deg == 2 {
		t.suppressRoot()
	}
	p.skipSpace()
	if p.i >= len(s) || s[p.i] != ';' {
		return p.errf("expected ';'")
	}
	p.i++
	p.skipSpace()
	if p.i != len(s) {
		return p.errf("trailing characters after ';'")
	}
	return nil
}

// body parses the tree's one subtree, up to the ';', into nodes and edges,
// and returns how many of each it wrote. A group holds exactly two subtrees,
// the outermost one, node 0, two or three. The groups open form a chain from
// the innermost, cur, outwards, kept in the nodes themselves: while a group
// other than the outermost is open its vertex's third adjacency slot, which
// the edge to its parent fills when it closes, holds the next group out.
func (p *parser) body(nodes []node, edges []edge) (nn, ne int32, err error) {
	s, cur, depth := p.s, NoNode, 0
	for {
		// A subtree starts here: a group's node is written as it opens, a
		// leaf's once its label is read, and then every group it completes
		// closes in turn.
		p.skipSpace()
		if p.i >= len(s) {
			return nn, ne, p.errf("unexpected end of input")
		}
		if s[p.i] == '(' {
			if depth == maxNesting {
				return nn, ne, p.errf("groups nested deeper than %d", maxNesting)
			}
			depth++
			nodes[nn] = node{adj: [3]int32{NoEdge, NoEdge, cur}, taxon: -1}
			cur = nn
			nn++
			p.i++
			continue
		}
		id, err := p.leaf()
		if err != nil {
			return nn, ne, err
		}
		nodes[nn] = node{adj: noAdj, taxon: id}
		c := nn
		nn++
		for cur != NoNode {
			v, vn, cn := cur, &nodes[cur], &nodes[c]
			vn.adj[vn.deg], cn.adj[cn.deg] = ne, ne
			vn.deg++
			cn.deg++
			edges[ne] = edge{a: v, b: c}
			ne++
			want := int8(2)
			if v == 0 {
				want = 3
			}
			if p.i >= len(s) {
				return nn, ne, p.errf("unterminated '('")
			}
			if s[p.i] == ',' {
				if vn.deg == want {
					return nn, ne, p.errf("group of more than %d subtrees (binary trees required)", want)
				}
				p.i++
				break
			}
			if s[p.i] != ')' {
				return nn, ne, p.errf("expected ',' or ')', found %q", s[p.i])
			}
			if vn.deg < 2 {
				return nn, ne, p.errf("group of %d subtrees, want 2 (binary trees required)", vn.deg)
			}
			p.i++
			depth--
			c, cur = v, NoNode
			if v != 0 {
				cur, vn.adj[2] = vn.adj[2], NoEdge
			}
			// Optional internal label and branch length, both discarded.
			if !p.bare() {
				p.skipSpace()
				if _, err := p.label(); err != nil {
					return nn, ne, err
				}
				if err := p.branchLength(); err != nil {
					return nn, ne, err
				}
			}
		}
		if cur == NoNode {
			return nn, ne, nil
		}
	}
}

// suppressRoot takes node 0, a vertex of degree two, out of a parsed tree:
// its two edges become one, the edge the parser would have allocated between
// the two subtrees of a suppressed root, in the same adjacency slots — the
// last edge, running from the first subtree's root to the second's. Every
// later node id, and every id of an edge written between the two, moves
// down by one.
func (t *Tree) suppressRoot() {
	e1, e2 := t.nodes[0].adj[0], t.nodes[0].adj[1]
	c1, c2 := t.Other(e1, 0), t.Other(e2, 0)
	t.replaceAdj(c1, e1, e2)
	t.edges[e2] = edge{a: c1, b: c2}
	t.edges = t.edges[:copy(t.edges[e1:], t.edges[e1+1:])+int(e1)]
	t.nodes = t.nodes[:copy(t.nodes, t.nodes[1:])]
	for v := range t.nodes {
		nd := &t.nodes[v]
		for i := range nd.deg {
			if nd.adj[i] > e1 {
				nd.adj[i]--
			}
		}
	}
	for e := range t.edges {
		t.edges[e].a--
		t.edges[e].b--
	}
}

// bare reports whether the subtree that ends at p.i ends at once, with
// neither space, label nor branch length before the ',', ')' or ';' there.
func (p *parser) bare() bool {
	if p.i >= len(p.s) {
		return false
	}
	c := p.s[p.i]
	return c == ',' || c == ')' || c == ';'
}

func (p *parser) skipSpace() {
	s, i := p.s, p.i
	for i < len(s) && space[s[i]] {
		i++
	}
	p.i = i
}

// leaf parses a taxon label with its optional branch length and returns the
// taxon's id, registering a label not seen before.
func (p *parser) leaf() (int32, error) {
	name, err := p.label()
	if err != nil {
		return 0, err
	}
	if len(name) == 0 {
		return 0, p.errf("expected a taxon label")
	}
	if !p.bare() {
		if err := p.branchLength(); err != nil {
			return 0, err
		}
	}
	id, slot := p.taxa.lookup(name)
	if id < 0 {
		if !p.autoAdd {
			return 0, p.errf("unknown taxon %q", name)
		}
		id = p.taxa.insert(name, slot)
	}
	for len(p.named) <= id>>6 { // only where the comma count is short: the input is malformed
		p.named = append(p.named, 0)
	}
	bit := uint64(1) << (id & 63)
	if p.named[id>>6]&bit != 0 {
		return 0, fmt.Errorf("newick: taxon %q appears twice", name)
	}
	p.named[id>>6] |= bit
	return int32(id), nil
}

// label reads an optional (possibly quoted) label at p.i. The result aliases
// the input or the parser's scratch and is good until the next call.
func (p *parser) label() ([]byte, error) {
	if p.i < len(p.s) && p.s[p.i] == '\'' {
		p.i++
		p.quoted = p.quoted[:0]
		for {
			if p.i >= len(p.s) {
				return nil, p.errf("unterminated quoted label")
			}
			c := p.s[p.i]
			if c == '\'' {
				if p.i+1 < len(p.s) && p.s[p.i+1] == '\'' { // escaped quote
					p.quoted = append(p.quoted, '\'')
					p.i += 2
					continue
				}
				p.i++
				return p.quoted, nil
			}
			p.quoted = append(p.quoted, c)
			p.i++
		}
	}
	s, start, i := p.s, p.i, p.i
	for i < len(s) && !delim[s[i]] {
		i++
	}
	p.i = i
	return s[start:i], nil
}

// branchLength reads an optional branch length, and the space around it.
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
		p.skipSpace()
	}
	return nil
}

// fillNoNode sets every entry of s to NoNode, in doubling copies, which run
// as block moves rather than an element at a time.
func fillNoNode(s []int32) {
	if len(s) == 0 {
		return
	}
	s[0] = NoNode
	for k := 1; k < len(s); k *= 2 {
		copy(s[k:], s[:k])
	}
}

// fit completes a parsed tree once its universe is final, in the storage it
// is handed: leafOf, an entry per taxon of the universe, all NoNode, becomes
// its leaf index and leaves, an empty set over the universe, its leaf set.
// The tree needs no Validate: the parser joins every group to its parent as
// it closes and checks each group's count of subtrees, so what it accepts is
// a binary tree, connected, with one node per taxon it names
// (FuzzNewickParse holds every tree it accepts to Validate).
func (t *Tree) fit(leafOf []int32, leaves *bitset.Set) {
	for v := range t.nodes {
		if tx := t.nodes[v].taxon; tx >= 0 {
			leafOf[tx] = int32(v)
			leaves.Add(int(tx))
		}
	}
	t.leafOf, t.leaves = leafOf, leaves
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
