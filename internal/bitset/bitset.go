// Package bitset provides dense fixed-capacity bit sets used throughout the
// library to represent taxon sets and tree bipartitions (splits).
//
// A Set is a slice of 64-bit words. All operations that combine two sets
// require them to have the same capacity (in words); this is the case by
// construction everywhere in this module, where every set over the same
// dataset is created with the same universe size.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

// Set is a dense bit set with a fixed capacity chosen at creation time.
type Set struct {
	words []uint64
	n     int // universe size in bits
}

// New returns an empty set over a universe of n elements (0..n-1).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative universe size")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size the set was created with.
func (s *Set) Len() int { return s.n }

// Add inserts element i into the set.
func (s *Set) Add(i int) {
	s.words[i>>6] |= 1 << uint(i&63)
}

// Remove deletes element i from the set.
func (s *Set) Remove(i int) {
	s.words[i>>6] &^= 1 << uint(i&63)
}

// Has reports whether element i is in the set.
func (s *Set) Has(i int) bool {
	return s.words[i>>6]&(1<<uint(i&63)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set contains no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return &Set{words: w, n: s.n}
}

// CopyInto makes dst a copy of s, in dst's own words when they can hold s's.
func (s *Set) CopyInto(dst *Set) {
	dst.words = append(dst.words[:0], s.words...)
	dst.n = s.n
}

// CopyFrom overwrites s with the contents of o (same capacity required).
func (s *Set) CopyFrom(o *Set) {
	s.check(o)
	copy(s.words, o.words)
}

// UnionWith adds every element of o to s.
func (s *Set) UnionWith(o *Set) {
	s.check(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o.
func (s *Set) IntersectWith(o *Set) {
	s.check(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// SubtractWith removes every element of o from s.
func (s *Set) SubtractWith(o *Set) {
	s.check(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// IntersectionCount returns |s ∩ o| without allocating.
func (s *Set) IntersectionCount(o *Set) int {
	s.check(o)
	c := 0
	for i, w := range o.words {
		c += bits.OnesCount64(s.words[i] & w)
	}
	return c
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.check(o)
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.check(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ComplementWithin replaces s with universe\s restricted to the first n bits.
func (s *Set) ComplementWithin() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	// Mask off bits beyond the universe.
	if r := s.n & 63; r != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << uint(r)) - 1
	}
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for i, w := range s.words {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls f for every element in increasing order.
func (s *Set) ForEach(f func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi<<6 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Elements returns the members in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// Key returns a string usable as a map key identifying the set's contents.
// Two sets over the same universe have equal keys iff they are Equal.
func (s *Set) Key() string {
	var b strings.Builder
	b.Grow(len(s.words) * 8)
	for _, w := range s.words {
		for k := 0; k < 8; k++ {
			b.WriteByte(byte(w >> (8 * k)))
		}
	}
	return b.String()
}

// NormalizedKey returns a key that is identical for a set and its complement
// within the universe: the lexicographically smaller of the two keys. It is
// the canonical identity of an unrooted-tree split.
func (s *Set) NormalizedKey() string {
	k := s.Key()
	c := s.Clone()
	c.ComplementWithin()
	ck := c.Key()
	if ck < k {
		return ck
	}
	return k
}

// String renders the set like "{1, 4, 7}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}

// Words exposes the set's backing words (least-significant bit of word 0 is
// element 0). Callers may read or write bits in place; the word-parallel
// admissibility kernel uses this to treat a Set as raw lanes.
func (s *Set) Words() []uint64 { return s.words }

// NextSetBit returns the smallest element >= from, or -1 if there is none.
func (s *Set) NextSetBit(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return -1
	}
	return NextSetBitWords(s.words, from)
}

// NextSetBitWords returns the index of the smallest set bit >= from in the
// packed words, or -1 if there is none.
func NextSetBitWords(words []uint64, from int) int {
	wi := from >> 6
	if wi >= len(words) {
		return -1
	}
	if w := words[wi] >> uint(from&63); w != 0 {
		return from + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(words); wi++ {
		if w := words[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// AndWords intersects dst with src in place (dst &= src), word by word.
// src must be at least as long as dst.
func AndWords(dst, src []uint64) {
	_ = src[len(dst)-1]
	for i := range dst {
		dst[i] &= src[i]
	}
}

// AppendSetBits32 appends the indices of the set bits in words to buf in
// ascending order and returns the extended slice. It is the enumeration
// primitive of the word-parallel admissibility kernel: 64 candidates are
// rejected per word operation and survivors come out already sorted.
func AppendSetBits32(buf []int32, words []uint64) []int32 {
	for wi, w := range words {
		base := int32(wi << 6)
		for w != 0 {
			buf = append(buf, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// AppendAndBits32 appends (in ascending order) the indices of the bits set in
// the AND of the first nw words of every row. Rows are combined per word, so
// nothing is materialized: the intersection is computed and enumerated in one
// pass with zero allocations beyond buf growth.
func AppendAndBits32(buf []int32, rows [][]uint64, nw int) []int32 {
	if len(rows) == 0 {
		return buf
	}
	r0 := rows[0]
	rest := rows[1:]
	for i := 0; i < nw; i++ {
		w := r0[i]
		for _, r := range rest {
			w &= r[i]
		}
		base := int32(i << 6)
		for w != 0 {
			buf = append(buf, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return buf
}

// OnesCountAnd returns the popcount of the AND of the first nw words of every
// row (the size of the intersection) without materializing it.
func OnesCountAnd(rows [][]uint64, nw int) int {
	if len(rows) == 0 {
		return 0
	}
	r0 := rows[0]
	rest := rows[1:]
	c := 0
	for i := 0; i < nw; i++ {
		w := r0[i]
		for _, r := range rest {
			w &= r[i]
		}
		c += bits.OnesCount64(w)
	}
	return c
}

func (s *Set) check(o *Set) {
	if len(s.words) != len(o.words) {
		panic(fmt.Sprintf("bitset: capacity mismatch (%d vs %d words)", len(s.words), len(o.words)))
	}
}
