package gentrius

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"gentrius/internal/nexus"
	"gentrius/internal/pam"
	"gentrius/internal/tree"
)

// NewTaxa creates a taxon universe from a list of names (ids in order).
func NewTaxa(names []string) (*Taxa, error) { return tree.NewTaxa(names) }

// MustTaxa is NewTaxa for inputs known to be valid; it panics on error.
func MustTaxa(names []string) *Taxa { return tree.MustTaxa(names) }

// ParseTree parses one Newick string over the given universe. With autoAdd,
// unknown taxon labels are registered; otherwise they are an error.
func ParseTree(newick string, taxa *Taxa, autoAdd bool) (*Tree, error) {
	return tree.Parse(newick, taxa, autoAdd)
}

// MustParseTree is ParseTree (without autoAdd) for inputs known to be valid.
func MustParseTree(newick string, taxa *Taxa) *Tree { return tree.MustParse(newick, taxa) }

// ReadTrees reads one Newick tree per non-empty line. When taxa is nil a
// fresh universe is built from the labels encountered (the usual way to load
// a constraint-tree file); the universe is returned alongside the trees.
//
// A tree's internal structures are sized to the universe at parse time, so
// with a fresh universe the input is parsed twice: a first pass registers
// every label, a second builds all trees against the completed universe.
func ReadTrees(r io.Reader, taxa *Taxa) ([]*Tree, *Taxa, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	type rec struct {
		line int
		text string
	}
	var lines []rec
	ln := 0
	for sc.Scan() {
		ln++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		lines = append(lines, rec{ln, s})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(lines) == 0 {
		return nil, nil, fmt.Errorf("gentrius: no trees in input")
	}
	if taxa == nil {
		// Discovery pass: register all labels first.
		taxa = tree.MustTaxa(nil)
		for _, l := range lines {
			if _, err := tree.Parse(l.text, taxa, true); err != nil {
				return nil, nil, fmt.Errorf("line %d: %w", l.line, err)
			}
		}
	}
	out := make([]*Tree, 0, len(lines))
	for _, l := range lines {
		t, err := tree.Parse(l.text, taxa, false)
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", l.line, err)
		}
		out = append(out, t)
	}
	return out, taxa, nil
}

// WriteTrees writes trees one canonical Newick per line.
func WriteTrees(w io.Writer, trees []*Tree) error {
	bw := bufio.NewWriter(w)
	var nw tree.NewickWriter
	var line []byte
	for _, t := range trees {
		line = append(nw.Append(line[:0], t), '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// NewPAM creates an all-absent presence–absence matrix.
func NewPAM(taxa *Taxa, loci int) *PAM { return pam.New(taxa, loci) }

// ReadPAM parses a PAM in the text format of PAM.Write ("<taxa> <loci>"
// header, then one "name 0 1 ..." row per taxon). With taxa nil a fresh
// universe is created from the row names.
func ReadPAM(r io.Reader, taxa *Taxa) (*PAM, error) { return pam.Read(r, taxa) }

// ReadTreesAuto reads trees from either a NEXUS document (detected by its
// #NEXUS header) or a plain one-Newick-per-line file, building a fresh taxon
// universe. This is what the gentrius CLI uses for -trees inputs.
func ReadTreesAuto(r io.Reader) ([]*Tree, *Taxa, error) {
	br := bufio.NewReader(r)
	head, _ := br.Peek(6)
	if strings.EqualFold(string(head), "#NEXUS") {
		f, err := nexus.Read(br)
		if err != nil {
			return nil, nil, err
		}
		out := make([]*Tree, len(f.Trees))
		for i, nt := range f.Trees {
			out[i] = nt.Tree
		}
		return out, f.Taxa, nil
	}
	return ReadTrees(br, nil)
}

// WriteNexus writes trees as a NEXUS document with a TAXA block.
func WriteNexus(w io.Writer, taxa *Taxa, trees []*Tree) error {
	named := make([]nexus.NamedTree, len(trees))
	for i, t := range trees {
		named[i] = nexus.NamedTree{Tree: t}
	}
	return nexus.Write(w, taxa, named)
}
