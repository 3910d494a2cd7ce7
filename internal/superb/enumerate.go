package superb

import (
	"fmt"
	"sort"

	"gentrius/internal/bitset"
	"gentrius/internal/tree"
)

// ErrTooMany is returned by Enumerate when the stand exceeds the cap.
var ErrTooMany = fmt.Errorf("superb: stand larger than the enumeration cap")

// Enumerate generates every tree on the stand (as canonical unrooted Newick
// strings, identical in form to Gentrius' output) via the SUPERB recursion,
// rooted at a comprehensive taxon. max caps the total combination work
// (which is at least the stand size); ErrTooMany is returned when the cap is
// hit — enumeration is inherently exponential, so callers must bound it.
func Enumerate(constraints []*tree.Tree, max int) ([]string, error) {
	root, set, rooted, err := rootAll(constraints)
	if err != nil {
		return nil, err
	}
	taxa := constraints[0].Taxa()
	budget := max
	frags, err := enumerateRooted(taxa, set, rooted, &budget)
	if err != nil {
		return nil, err
	}
	// Re-root: attach the comprehensive taxon above each rooted supertree
	// and canonicalize through the tree package.
	out := make([]string, 0, len(frags))
	rootName := quote(taxa.Name(root))
	for _, f := range frags {
		nw := "(" + rootName + "," + f + ");"
		t, err := tree.Parse(nw, taxa, false)
		if err != nil {
			return nil, fmt.Errorf("superb: internal rendering error: %w", err)
		}
		out = append(out, t.Newick())
	}
	sort.Strings(out)
	return out, nil
}

// enumerateRooted lists the rooted binary trees on set displaying all
// constraints, as Newick fragments (no trailing semicolon): the cross
// product of the two sides' fragments over every root split.
func enumerateRooted(taxa *tree.Taxa, set *bitset.Set, constraints []*rnode, budget *int) ([]string, error) {
	switch set.Count() {
	case 0:
		return nil, fmt.Errorf("superb: empty taxon set")
	case 1:
		return []string{quote(taxa.Name(set.Min()))}, nil
	case 2:
		els := set.Elements()
		return []string{"(" + quote(taxa.Name(els[0])) + "," + quote(taxa.Name(els[1])) + ")"}, nil
	}
	var out []string
	err := rootSplits(set, constraints, func(left, right *bitset.Set, active []*rnode) error {
		ls, err := enumerateRooted(taxa, left, active, budget)
		if err != nil || len(ls) == 0 {
			return err
		}
		rs, err := enumerateRooted(taxa, right, active, budget)
		if err != nil {
			return err
		}
		for _, l := range ls {
			for _, r := range rs {
				if *budget <= 0 {
					return ErrTooMany
				}
				*budget--
				out = append(out, "("+l+","+r+")")
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func quote(name string) string {
	for _, c := range name {
		switch c {
		case '(', ')', ',', ':', ';', ' ', '\t', '\'':
			return "'" + name + "'"
		}
	}
	return name
}
