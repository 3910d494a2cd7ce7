package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130)
	if !s.Empty() {
		t.Fatal("new set not empty")
	}
	for _, i := range []int{0, 63, 64, 65, 128, 129} {
		s.Add(i)
		if !s.Has(i) {
			t.Fatalf("Has(%d) false after Add", i)
		}
	}
	if got := s.Count(); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	s.Remove(64)
	if s.Has(64) {
		t.Fatal("Has(64) after Remove")
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := s.Min(); got != 0 {
		t.Fatalf("Min = %d, want 0", got)
	}
	s.Remove(0)
	if got := s.Min(); got != 63 {
		t.Fatalf("Min = %d, want 63", got)
	}
}

func TestSetAlgebra(t *testing.T) {
	a := New(100)
	b := New(100)
	for i := 0; i < 100; i += 2 {
		a.Add(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Add(i)
	}
	inter := a.Clone()
	inter.IntersectWith(b)
	want := 0
	for i := 0; i < 100; i++ {
		if i%2 == 0 && i%3 == 0 {
			want++
			if !inter.Has(i) {
				t.Fatalf("intersection missing %d", i)
			}
		} else if inter.Has(i) {
			t.Fatalf("intersection has %d", i)
		}
	}
	if got := a.IntersectionCount(b); got != want {
		t.Fatalf("IntersectionCount = %d, want %d", got, want)
	}
	if !inter.SubsetOf(a) || !inter.SubsetOf(b) {
		t.Fatal("intersection not subset of operands")
	}
	un := a.Clone()
	un.UnionWith(b)
	if !a.SubsetOf(un) || !b.SubsetOf(un) {
		t.Fatal("operands not subset of union")
	}
	diff := a.Clone()
	diff.SubtractWith(b)
	if diff.Intersects(inter) {
		t.Fatal("a\\b intersects a∩b")
	}
}

func TestComplementWithin(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 127, 128, 200} {
		s := New(n)
		s.Add(0)
		if n > 3 {
			s.Add(3)
		}
		c := s.Clone()
		c.ComplementWithin()
		if got := c.Count() + s.Count(); got != n {
			t.Fatalf("n=%d: |s|+|~s| = %d", n, got)
		}
		if c.Intersects(s) {
			t.Fatalf("n=%d: complement intersects original", n)
		}
		c.ComplementWithin()
		if !c.Equal(s) {
			t.Fatalf("n=%d: double complement != original", n)
		}
	}
}

func TestNormalizedKey(t *testing.T) {
	s := New(70)
	s.Add(1)
	s.Add(42)
	c := s.Clone()
	c.ComplementWithin()
	if s.NormalizedKey() != c.NormalizedKey() {
		t.Fatal("split key differs from complement's key")
	}
	o := New(70)
	o.Add(2)
	if s.NormalizedKey() == o.NormalizedKey() {
		t.Fatal("distinct splits share a key")
	}
}

func TestElementsAndForEach(t *testing.T) {
	s := New(300)
	want := []int{0, 17, 64, 128, 255, 299}
	for _, i := range want {
		s.Add(i)
	}
	got := s.Elements()
	if len(got) != len(want) {
		t.Fatalf("Elements len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elements[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestKeyEquality(t *testing.T) {
	// Property: Key equality iff Equal.
	f := func(xs, ys []uint8) bool {
		a, b := New(256), New(256)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// Property: ~(a ∪ b) == ~a ∩ ~b within the universe.
	f := func(xs, ys []uint8, nRaw uint8) bool {
		n := int(nRaw)%200 + 56
		a, b := New(n), New(n)
		for _, x := range xs {
			a.Add(int(x) % n)
		}
		for _, y := range ys {
			b.Add(int(y) % n)
		}
		lhs := a.Clone()
		lhs.UnionWith(b)
		lhs.ComplementWithin()
		ca, cb := a.Clone(), b.Clone()
		ca.ComplementWithin()
		cb.ComplementWithin()
		ca.IntersectWith(cb)
		return lhs.Equal(ca)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSubsetTransitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < 200; it++ {
		n := 64 + rng.Intn(100)
		a := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				a.Add(i)
			}
		}
		b := a.Clone()
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				b.Add(i)
			}
		}
		c := b.Clone()
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				c.Add(i)
			}
		}
		if !a.SubsetOf(b) || !b.SubsetOf(c) || !a.SubsetOf(c) {
			t.Fatal("subset chain violated")
		}
	}
}

func BenchmarkIntersectionCount(b *testing.B) {
	a, c := New(1024), New(1024)
	for i := 0; i < 1024; i += 3 {
		a.Add(i)
	}
	for i := 0; i < 1024; i += 5 {
		c.Add(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.IntersectionCount(c)
	}
}

// TestWordPrimitives checks the word-level kernel helpers against naive
// per-bit references over random word slabs.
func TestWordPrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(8181))
	for trial := 0; trial < 200; trial++ {
		nw := 1 + rng.Intn(5)
		nrows := 1 + rng.Intn(4)
		rows := make([][]uint64, nrows)
		for i := range rows {
			rows[i] = make([]uint64, nw)
			for j := range rows[i] {
				// Mix sparse and dense words.
				rows[i][j] = rng.Uint64() & rng.Uint64()
				if rng.Intn(3) == 0 {
					rows[i][j] = rng.Uint64()
				}
			}
		}
		// Naive AND + enumeration.
		var wantBits []int32
		wantCount := 0
		for b := 0; b < nw*64; b++ {
			on := true
			for _, r := range rows {
				if r[b>>6]&(1<<uint(b&63)) == 0 {
					on = false
					break
				}
			}
			if on {
				wantBits = append(wantBits, int32(b))
				wantCount++
			}
		}
		got := AppendAndBits32(nil, rows, nw)
		if len(got) != len(wantBits) {
			t.Fatalf("AppendAndBits32 len %d want %d", len(got), len(wantBits))
		}
		for i := range got {
			if got[i] != wantBits[i] {
				t.Fatalf("AppendAndBits32[%d] = %d want %d (order must be ascending)", i, got[i], wantBits[i])
			}
		}
		if c := OnesCountAnd(rows, nw); c != wantCount {
			t.Fatalf("OnesCountAnd = %d want %d", c, wantCount)
		}
		// Single-row enumeration and in-place AND.
		single := AppendSetBits32(nil, rows[0])
		var wantSingle []int32
		for b := 0; b < nw*64; b++ {
			if rows[0][b>>6]&(1<<uint(b&63)) != 0 {
				wantSingle = append(wantSingle, int32(b))
			}
		}
		if len(single) != len(wantSingle) {
			t.Fatalf("AppendSetBits32 len %d want %d", len(single), len(wantSingle))
		}
		for i := range single {
			if single[i] != wantSingle[i] {
				t.Fatalf("AppendSetBits32[%d] = %d want %d", i, single[i], wantSingle[i])
			}
		}
		dst := append([]uint64(nil), rows[0]...)
		AndWords(dst, rows[nrows-1])
		for j := range dst {
			if dst[j] != rows[0][j]&rows[nrows-1][j] {
				t.Fatalf("AndWords word %d = %#x want %#x", j, dst[j], rows[0][j]&rows[nrows-1][j])
			}
		}
		// NextSetBitWords walks exactly the set bits.
		cur := 0
		for _, b := range wantSingle {
			got := NextSetBitWords(rows[0], cur)
			if got != int(b) {
				t.Fatalf("NextSetBitWords(from=%d) = %d want %d", cur, got, b)
			}
			cur = got + 1
		}
		if got := NextSetBitWords(rows[0], cur); got != -1 {
			t.Fatalf("NextSetBitWords past end = %d want -1", got)
		}
	}
	// Set-level wrappers.
	s := New(130)
	for _, b := range []int{0, 1, 63, 64, 100, 129} {
		s.Add(b)
	}
	if got := s.NextSetBit(0); got != 0 {
		t.Fatalf("NextSetBit(0) = %d", got)
	}
	if got := s.NextSetBit(64); got != 64 {
		t.Fatalf("NextSetBit(64) = %d", got)
	}
	if got := s.NextSetBit(130); got != -1 {
		t.Fatalf("NextSetBit(130) = %d", got)
	}
	if w := s.Words(); len(w) != 3 || w[0] == 0 {
		t.Fatalf("Words() = %v", w)
	}
}
