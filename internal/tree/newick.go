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
	t.fit(make([]int32, n), bitset.New(n))
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
// appearance. A tree's nodes and edges take one allocation, sized by a
// prescan of its text; what is sized to the universe — each tree's leaf
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

// maxNesting bounds parenthesis nesting depth. The parser recurses once per
// nesting level, so without a cap a long run of '(' characters overflows the
// goroutine stack; real trees nest at most once per taxon, far below this.
// The renderer does not recurse.
const maxNesting = 100000

// parser builds trees straight from their text: nodes and edges are
// allocated in the Tree as the recursive descent meets them, in an order
// that is part of the program's contract. A group's node is allocated at its
// '(' and a leaf's at its label, so node ids run in preorder; the edge from
// a vertex to a child is allocated when the child's subtree is complete, so
// edge ids run in postorder and an internal vertex lists its two child edges
// before the edge to its parent. Path tasks, checkpoints and golden traces
// name branches by these ids.
type parser struct {
	taxa    *Taxa
	autoAdd bool
	s       []byte
	i       int
	depth   int
	t       *Tree
	quoted  []byte // the unescaped text of the last quoted label

	// named holds a bit per taxon id, set once the tree being parsed has
	// named it: a taxon named twice in one tree is an error.
	named []uint64
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("newick: at offset %d: %s", p.i, fmt.Sprintf(format, args...))
}

// prescan reads what has to be known before the first allocation: an upper
// bound on the number of leaves (one more than the commas, and no more than
// two more than the groups, of a binary tree) and the number of commas
// between the children of the outermost group, which says whether that
// group is a vertex or a suppressed root. It follows label's quoting rule: a
// quote opens a label only where a label may start. Wherever the parser
// reaches the end of the outermost group without an error the two have read
// the same tokens, so the counts are exact for every input it accepts.
func prescan(s []byte) (leaves, topCommas int) {
	commas, groups, depth := 0, 0, 0
	closed := false // the outermost group has ended
	start := true   // a label may start here
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		case '(':
			groups++
			depth++
			start = true
		case ')':
			depth--
			closed = closed || depth == 0
			start = true
		case ',':
			commas++
			if depth == 1 && !closed {
				topCommas++
			}
			start = true
		case '\'':
			if start {
				for i++; i < len(s); i++ {
					if s[i] != '\'' {
						continue
					}
					if i+1 == len(s) || s[i+1] != '\'' {
						break
					}
					i++ // escaped quote
				}
			}
			start = false
		default:
			start = false
		}
	}
	return min(commas, groups+1) + 1, topCommas
}

// tree parses one tree into t: its nodes and edges, in one allocation sized
// by prescan. Its leaf index and leaf set are missing: fit completes it once
// the universe is final.
func (p *parser) tree(s []byte, t *Tree) error {
	leaves, topCommas := prescan(s)
	known := p.taxa.Len()
	if known == 0 && p.autoAdd {
		p.taxa.reserve(leaves) // a fresh universe: its first tree names most of it
	}
	// A binary tree of l >= 2 leaves has 2l-2 nodes and 2l-3 edges.
	t.taxa = p.taxa
	t.nodes, t.edges = newArrays(max(2*leaves-2, 1), max(2*leaves-3, 0))
	if w := (known + leaves + 63) >> 6; len(p.named) < w {
		p.named = append(p.named, make([]uint64, w-len(p.named))...)
	}
	clear(p.named)
	p.s, p.i, p.depth, p.t = s, 0, 0, t

	p.skipSpace()
	var err error
	switch {
	case p.i >= len(s):
		err = p.errf("unexpected end of input")
	case s[p.i] != '(':
		_, err = p.leaf()
	case topCommas >= 2:
		err = p.group(t.allocNode(-1), 3)
	default:
		err = p.group(NoNode, 2)
	}
	if err != nil {
		return err
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

// subtree parses a leaf or a binary group and returns its root node, which
// still lacks the edge to its parent.
func (p *parser) subtree() (int32, error) {
	p.skipSpace()
	if p.i >= len(p.s) {
		return NoNode, p.errf("unexpected end of input")
	}
	if p.s[p.i] != '(' {
		return p.leaf()
	}
	v := p.t.allocNode(-1)
	return v, p.group(v, 2)
}

// group parses the group opening at p.i, which must hold exactly want
// subtrees, and joins each to v as it completes. With v == NoNode the group
// is a suppressed root: its two subtrees are joined to each other.
func (p *parser) group(v int32, want int) error {
	p.depth++
	if p.depth > maxNesting {
		return p.errf("groups nested deeper than %d", maxNesting)
	}
	p.i++
	for k := 1; ; k++ {
		c, err := p.subtree()
		if err != nil {
			return err
		}
		if v == NoNode {
			v = c
		} else {
			e := p.t.allocEdge(v, c)
			p.t.addAdj(v, e)
			p.t.addAdj(c, e)
		}
		p.skipSpace()
		if p.i >= len(p.s) {
			return p.errf("unterminated '('")
		}
		if p.s[p.i] == ')' {
			if k != want {
				return p.errf("group of %d subtrees, want %d (binary trees required)", k, want)
			}
			break
		}
		if p.s[p.i] != ',' {
			return p.errf("expected ',' or ')', found %q", p.s[p.i])
		}
		if k == want {
			return p.errf("group of more than %d subtrees (binary trees required)", want)
		}
		p.i++
	}
	p.i++
	p.depth--
	// Optional internal label and branch length, both discarded.
	if _, err := p.label(); err != nil {
		return err
	}
	return p.branchLength()
}

// leaf parses a taxon label with its optional branch length and allocates
// the leaf, registering a label not seen before.
func (p *parser) leaf() (int32, error) {
	name, err := p.label()
	if err != nil {
		return NoNode, err
	}
	if len(name) == 0 {
		return NoNode, p.errf("expected a taxon label")
	}
	if err := p.branchLength(); err != nil {
		return NoNode, err
	}
	id, ok := p.taxa.index[string(name)]
	if !ok {
		if !p.autoAdd {
			return NoNode, p.errf("unknown taxon %q", name)
		}
		if id, err = p.taxa.Add(string(name)); err != nil {
			return NoNode, err
		}
	}
	for len(p.named) <= id>>6 { // only where prescan's count is short: the input is malformed
		p.named = append(p.named, 0)
	}
	bit := uint64(1) << (id & 63)
	if p.named[id>>6]&bit != 0 {
		return NoNode, fmt.Errorf("newick: taxon %q appears twice", name)
	}
	p.named[id>>6] |= bit
	return p.t.allocNode(int32(id)), nil
}

// label reads an optional (possibly quoted) label. The result aliases the
// input or the parser's scratch and is good until the next call.
func (p *parser) label() ([]byte, error) {
	p.skipSpace()
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

// fit completes a parsed tree once its universe is final, in the storage it
// is handed: leafOf, an entry per taxon of the universe, becomes its leaf
// index and leaves, an empty set over the universe, its leaf set. The tree
// needs no Validate: the parser joins every group to its parent as it
// closes and checks each group's count of subtrees, so what it accepts is a
// binary tree, connected, with one node per taxon it names (FuzzNewickParse
// holds every tree it accepts to Validate).
func (t *Tree) fit(leafOf []int32, leaves *bitset.Set) {
	for i := range leafOf {
		leafOf[i] = NoNode
	}
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
