package tree

import (
	"fmt"
	"hash/maphash"
	"unsafe"
)

// Taxa is the universe of taxon labels for a dataset. Every tree, PAM and
// bitset in an analysis refers to taxa by their dense integer id in one
// shared Taxa instance. The zero value is an empty universe.
type Taxa struct {
	names []string
	// slots is an open-addressed hash table of the names: id+1 of the name
	// hashed to a slot or probed on to it, 0 for an empty slot. Its length is
	// a power of two, at least twice the names', so that a lookup ends at an
	// empty slot within a few probes, and the slot a missing name ends at is
	// where it goes: a new label costs the parser one lookup.
	slots []int32
	// chunk is where new names are copied: every name is a string over the
	// bytes of one chunk, written once, so that the names take a few
	// allocations, not one each, and lie side by side for the lookups.
	chunk []byte
}

// chunkSize is the room a chunk of names is made with.
const chunkSize = 4 << 10

// taxaSeed seeds the hash of every universe's table; ids never depend on it.
var taxaSeed = maphash.MakeSeed()

// NewTaxa returns a universe containing the given names, ids assigned in
// order. Duplicate names are rejected.
func NewTaxa(names []string) (*Taxa, error) {
	t := new(Taxa)
	t.reserve(len(names))
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
	id, slot := t.lookup(bytesOf(name))
	if id >= 0 {
		return 0, fmt.Errorf("taxa: duplicate taxon name %q", name)
	}
	return t.insert(bytesOf(name), slot), nil
}

// lookup returns the id of name, or -1 and the slot of the table where name
// goes (-1 when the table is empty).
func (t *Taxa) lookup(name []byte) (id, slot int) {
	if len(t.slots) == 0 {
		return -1, -1
	}
	mask := len(t.slots) - 1
	for i := int(maphash.Bytes(taxaSeed, name)) & mask; ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if t.names[s-1] == string(name) {
			return int(s - 1), i
		}
	}
}

// insert registers a copy of name, which is not registered, at the slot
// lookup found for it, and returns its id.
func (t *Taxa) insert(name []byte, slot int) int {
	if cap(t.chunk)-len(t.chunk) < len(name) {
		t.chunk = make([]byte, 0, max(chunkSize, len(name)))
	}
	at := len(t.chunk)
	t.chunk = append(t.chunk, name...)
	id := len(t.names)
	t.names = append(t.names, unsafe.String(&t.chunk[at], len(name)))
	if slot < 0 || 2*len(t.names) > len(t.slots) {
		t.rehash(len(t.names))
	} else {
		t.slots[slot] = int32(id + 1)
	}
	return id
}

// rehash lays the table out anew for n names.
func (t *Taxa) rehash(n int) {
	size := 8
	for size < 2*n {
		size *= 2
	}
	if len(t.slots) >= size {
		return
	}
	t.slots = make([]int32, size)
	mask := size - 1
	for id, name := range t.names {
		i := int(maphash.String(taxaSeed, name)) & mask
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = int32(id + 1)
	}
}

// reserve sizes an empty universe for n names, so that registering them
// grows neither the names nor the table.
func (t *Taxa) reserve(n int) {
	if len(t.names) == 0 {
		t.names = make([]string, 0, n)
		t.rehash(n)
	}
}

// ID returns the id of name and whether it is registered.
func (t *Taxa) ID(name string) (int, bool) {
	id, _ := t.lookup(bytesOf(name))
	return id, id >= 0
}

// bytesOf returns the bytes of s, which must not be written.
func bytesOf(s string) []byte { return unsafe.Slice(unsafe.StringData(s), len(s)) }

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
