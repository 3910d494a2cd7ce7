package tree

import "fmt"

// Taxa is the universe of taxon labels for a dataset. Every tree, PAM and
// bitset in an analysis refers to taxa by their dense integer id in one
// shared Taxa instance.
type Taxa struct {
	names []string
	index map[string]int
}

// NewTaxa returns a universe containing the given names, ids assigned in
// order. Duplicate names are rejected.
func NewTaxa(names []string) (*Taxa, error) {
	t := &Taxa{index: make(map[string]int, len(names))}
	for _, n := range names {
		if _, err := t.Add(n); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// MustTaxa is NewTaxa for static inputs known to be valid; it panics on error.
func MustTaxa(names []string) *Taxa {
	t, err := NewTaxa(names)
	if err != nil {
		panic(err)
	}
	return t
}

// Add registers a new taxon name and returns its id. Adding an existing name
// is an error.
func (t *Taxa) Add(name string) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("taxa: empty taxon name")
	}
	if _, ok := t.index[name]; ok {
		return 0, fmt.Errorf("taxa: duplicate taxon name %q", name)
	}
	id := len(t.names)
	t.names = append(t.names, name)
	t.index[name] = id
	return id, nil
}

// reserve sizes an empty universe for n names, so that registering them
// grows neither the names nor the index.
func (t *Taxa) reserve(n int) {
	if len(t.names) == 0 {
		t.names = make([]string, 0, n)
		t.index = make(map[string]int, n)
	}
}

// ID returns the id of name and whether it is registered.
func (t *Taxa) ID(name string) (int, bool) {
	id, ok := t.index[name]
	return id, ok
}

// Name returns the name of taxon id.
func (t *Taxa) Name(id int) string { return t.names[id] }

// Len returns the number of registered taxa.
func (t *Taxa) Len() int { return len(t.names) }

// Names returns a copy of all names in id order.
func (t *Taxa) Names() []string {
	out := make([]string, len(t.names))
	copy(out, t.names)
	return out
}
