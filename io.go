package gentrius

import (
	"bufio"
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

// ReadTrees reads one Newick tree per non-empty line; lines starting with
// '#' are comments. When taxa is nil a fresh universe is built from the
// labels in order of first appearance (the usual way to load a
// constraint-tree file); otherwise a label taxa does not hold is an error.
// The universe is returned alongside the trees.
//
// The input is read once, through tree.Reader: each line is parsed straight
// into its Tree and dropped, and the trees are sized to the universe after
// the last line. A line may be up to 64 MiB long; the line buffer starts at
// the scanner's 4 KiB and grows to the longest line read.
func ReadTrees(r io.Reader, taxa *Taxa) ([]*Tree, *Taxa, error) {
	rd := tree.NewReader(taxa, taxa == nil)
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<26)
	for sc.Scan() {
		if err := rd.Line(sc.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return rd.Finish()
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
// universe; a leading UTF-8 byte-order mark is skipped. This is what the
// gentrius CLI uses for -trees inputs.
func ReadTreesAuto(r io.Reader) ([]*Tree, *Taxa, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(3); string(head) == "\xef\xbb\xbf" {
		_, _ = br.Discard(3) // a UTF-8 byte-order mark; buffered, so this cannot fail
	}
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
