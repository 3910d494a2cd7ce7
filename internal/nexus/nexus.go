// Package nexus reads and writes the subset of the NEXUS file format that
// phylogenetic tree interchange uses: the TAXA block (taxon labels) and the
// TREES block (named trees, with optional TRANSLATE tables). NEXUS is the
// other de-facto standard next to bare Newick — IQ-TREE, MrBayes, PAUP* and
// most tree viewers exchange trees this way — so the CLI accepts both.
//
// Supported grammar (case-insensitive keywords, ';'-terminated commands,
// '[...]' comments):
//
//	#NEXUS
//	BEGIN TAXA;
//	  DIMENSIONS NTAX=5;
//	  TAXLABELS A B 'C D' ...;
//	END;
//	BEGIN TREES;
//	  TRANSLATE 1 A, 2 B, ...;
//	  TREE name = [&U] (...);
//	END;
package nexus

import (
	"fmt"
	"io"
	"strings"

	"gentrius/internal/tree"
)

// File is the parsed content of a NEXUS file.
type File struct {
	Taxa  *tree.Taxa
	Trees []NamedTree
}

// NamedTree is one TREE command from a TREES block.
type NamedTree struct {
	Name string
	Tree *tree.Tree
}

// Read parses a NEXUS document. Taxon labels come from the TAXA block when
// present, otherwise they are collected from the trees themselves; TRANSLATE
// tables are applied. Like gentrius.ReadTrees, the trees are built against
// the completed universe, so every tree's internal structures cover all
// taxa.
func Read(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	toks, err := tokenize(string(data))
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 || !strings.EqualFold(toks[0].text, "#NEXUS") {
		return nil, fmt.Errorf("nexus: missing #NEXUS header")
	}
	p := &parser{toks: toks[1:]}
	var taxaLabels []string
	type rawTree struct {
		name   string
		newick string
	}
	var raws []rawTree
	translate := map[string]string{}
	for !p.done() {
		if !p.acceptKeyword("BEGIN") {
			// Skip stray tokens between blocks.
			p.next()
			continue
		}
		block := strings.ToUpper(p.next().text)
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		switch block {
		case "TAXA":
			for {
				if p.acceptKeyword("END") || p.acceptKeyword("ENDBLOCK") {
					if err := p.expect(";"); err != nil {
						return nil, err
					}
					break
				}
				if p.done() {
					return nil, fmt.Errorf("nexus: unterminated TAXA block")
				}
				if p.acceptKeyword("DIMENSIONS") {
					p.skipCommand()
					continue
				}
				if p.acceptKeyword("TAXLABELS") {
					for !p.done() && p.peek().text != ";" {
						taxaLabels = append(taxaLabels, p.next().text)
					}
					if err := p.expect(";"); err != nil {
						return nil, err
					}
					continue
				}
				p.skipCommand()
			}
		case "TREES":
			for {
				if p.acceptKeyword("END") || p.acceptKeyword("ENDBLOCK") {
					if err := p.expect(";"); err != nil {
						return nil, err
					}
					break
				}
				if p.done() {
					return nil, fmt.Errorf("nexus: unterminated TREES block")
				}
				if p.acceptKeyword("TRANSLATE") {
					for {
						key := p.next().text
						val := p.next().text
						translate[key] = val
						if p.peek().text == "," {
							p.next()
							continue
						}
						break
					}
					if err := p.expect(";"); err != nil {
						return nil, err
					}
					continue
				}
				if p.acceptKeyword("TREE") || p.acceptKeyword("UTREE") {
					name := p.next().text
					if err := p.expect("="); err != nil {
						return nil, err
					}
					// The rest of the command is raw Newick; reassemble it
					// from tokens to preserve quoting.
					var b strings.Builder
					for !p.done() && p.peek().text != ";" {
						tk := p.next()
						if tk.quoted {
							b.WriteString("'" + strings.ReplaceAll(tk.text, "'", "''") + "'")
						} else {
							b.WriteString(tk.text)
						}
					}
					if err := p.expect(";"); err != nil {
						return nil, err
					}
					raws = append(raws, rawTree{name: name, newick: b.String() + ";"})
					continue
				}
				p.skipCommand()
			}
		default:
			// Skip unknown blocks entirely.
			for !p.done() {
				if p.acceptKeyword("END") || p.acceptKeyword("ENDBLOCK") {
					if err := p.expect(";"); err != nil {
						return nil, err
					}
					break
				}
				p.next()
			}
		}
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("nexus: no TREE commands found")
	}
	// Apply TRANSLATE to tree labels by token substitution at parse time:
	// parse each Newick with a translating taxa lookup. Simplest correct
	// approach: textual token-level translation is risky; instead parse
	// into a scratch universe, then rename via the translate table when
	// registering labels. We implement it by pre-translating the label
	// tokens of the Newick strings.
	translated := make([]rawTree, len(raws))
	for i, rt := range raws {
		translated[i] = rawTree{name: rt.name, newick: translateNewick(rt.newick, translate)}
	}
	// The universe: TAXA block labels first (if given), then anything new
	// the reader meets in the trees.
	taxa := tree.MustTaxa(nil)
	for _, l := range taxaLabels {
		if _, err := taxa.Add(l); err != nil {
			return nil, fmt.Errorf("nexus: %w", err)
		}
	}
	rd := tree.NewReader(taxa, true)
	for _, rt := range translated {
		if err := rd.Add([]byte(rt.newick)); err != nil {
			return nil, fmt.Errorf("nexus: tree %q: %w", rt.name, err)
		}
	}
	trees, _, err := rd.Finish()
	if err != nil {
		return nil, fmt.Errorf("nexus: %w", err)
	}
	f := &File{Taxa: taxa, Trees: make([]NamedTree, len(trees))}
	for i, t := range trees {
		f.Trees[i] = NamedTree{Name: translated[i].name, Tree: t}
	}
	return f, nil
}

// Write emits a NEXUS document with a TAXA block covering the universe and
// one TREE command per tree.
func Write(w io.Writer, taxa *tree.Taxa, trees []NamedTree) error {
	var b strings.Builder
	b.WriteString("#NEXUS\n\nBEGIN TAXA;\n")
	fmt.Fprintf(&b, "  DIMENSIONS NTAX=%d;\n  TAXLABELS", taxa.Len())
	for i := 0; i < taxa.Len(); i++ {
		b.WriteString(" ")
		b.WriteString(quoteLabel(taxa.Name(i)))
	}
	b.WriteString(";\nEND;\n\nBEGIN TREES;\n")
	for i, nt := range trees {
		name := nt.Name
		if name == "" {
			name = fmt.Sprintf("tree_%d", i+1)
		}
		fmt.Fprintf(&b, "  TREE %s = [&U] %s\n", quoteLabel(name), nt.Tree.Newick())
	}
	b.WriteString("END;\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func quoteLabel(s string) string {
	if !strings.ContainsAny(s, "(),:;=[] \t'") && s != "" {
		return s
	}
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

// translateNewick rewrites leaf labels through the TRANSLATE table.
func translateNewick(nw string, tr map[string]string) string {
	if len(tr) == 0 {
		return nw
	}
	var b strings.Builder
	i := 0
	for i < len(nw) {
		c := nw[i]
		switch {
		case c == '\'':
			// Quoted label: copy verbatim through the closing quote.
			j := i + 1
			var label strings.Builder
			for j < len(nw) {
				if nw[j] == '\'' {
					if j+1 < len(nw) && nw[j+1] == '\'' {
						label.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				label.WriteByte(nw[j])
				j++
			}
			name := label.String()
			if rep, ok := tr[name]; ok {
				name = rep
			}
			b.WriteString("'" + strings.ReplaceAll(name, "'", "''") + "'")
			i = j + 1
		case c == '(' || c == ')' || c == ',' || c == ';':
			b.WriteByte(c)
			i++
		case c == ':':
			// Branch length: copy until the next delimiter.
			for i < len(nw) && nw[i] != ',' && nw[i] != ')' && nw[i] != ';' {
				b.WriteByte(nw[i])
				i++
			}
		default:
			j := i
			for j < len(nw) && !strings.ContainsRune("(),:;", rune(nw[j])) {
				j++
			}
			word := nw[i:j]
			if rep, ok := tr[strings.TrimSpace(word)]; ok {
				word = rep
			}
			b.WriteString(word)
			i = j
		}
	}
	return b.String()
}

// token is one NEXUS token.
type token struct {
	text   string
	quoted bool
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) done() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() token {
	if p.done() {
		return token{}
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	if !p.done() {
		p.pos++
	}
	return t
}

func (p *parser) acceptKeyword(kw string) bool {
	if !p.done() && !p.peek().quoted && strings.EqualFold(p.peek().text, kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(text string) error {
	if p.done() || p.peek().text != text {
		got := "<eof>"
		if !p.done() {
			got = p.peek().text
		}
		return fmt.Errorf("nexus: expected %q, found %q", text, got)
	}
	p.pos++
	return nil
}

// skipCommand consumes tokens through the next ';'.
func (p *parser) skipCommand() {
	for !p.done() {
		if p.next().text == ";" {
			return
		}
	}
}

// tokenize splits NEXUS text into tokens: quoted labels, punctuation
// (;=,()), and bare words; '[...]' comments are dropped.
func tokenize(s string) ([]token, error) {
	var out []token
	i := 0
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '[':
			depth := 1
			i++
			for i < len(s) && depth > 0 {
				if s[i] == '[' {
					depth++
				}
				if s[i] == ']' {
					depth--
				}
				i++
			}
			if depth != 0 {
				return nil, fmt.Errorf("nexus: unterminated comment")
			}
		case c == '\'':
			i++
			var b strings.Builder
			for {
				if i >= len(s) {
					return nil, fmt.Errorf("nexus: unterminated quoted label")
				}
				if s[i] == '\'' {
					if i+1 < len(s) && s[i+1] == '\'' {
						b.WriteByte('\'')
						i += 2
						continue
					}
					i++
					break
				}
				b.WriteByte(s[i])
				i++
			}
			out = append(out, token{text: b.String(), quoted: true})
		case strings.ContainsRune(";=,()", rune(c)):
			out = append(out, token{text: string(c)})
			i++
		default:
			j := i
			for j < len(s) && !strings.ContainsRune(";=,()[' \t\n\r", rune(s[j])) {
				j++
			}
			out = append(out, token{text: s[i:j]})
			i = j
		}
	}
	return out, nil
}
