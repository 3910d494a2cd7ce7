package terrace

import (
	"math/rand"
	"slices"
	"testing"

	"gentrius/internal/gen"
	"gentrius/internal/tree"
)

// splitStands are the corpus stands FuzzSplitBookEquiv walks besides random
// ones: the benchmark's count-deep stand as it reads it — from its Newick
// text, taxon ids by first appearance, where 4 401 insertions restructure
// one taxon by a split — and empirical idx 79, whose penultimate frames split
// at nearly every branch. Each is built once per process.
var splitStands = map[uint8]func() []*tree.Tree{
	1: func() []*tree.Tree {
		deep := gen.Generate(gen.Default(gen.RegimeSimulated), 104)
		lines := make([]string, len(deep.Constraints))
		for i, c := range deep.Constraints {
			lines[i] = c.Newick()
		}
		read, err := tree.ReadLines(lines)
		if err != nil {
			panic(err)
		}
		return read
	},
	2: func() []*tree.Tree { return gen.Generate(gen.Default(gen.RegimeEmpirical), 79).Constraints },
}

var splitTerraces = map[uint8]*Terrace{}

// FuzzSplitBookEquiv is the differential test of split bookings. It walks a
// stand — a random one, or one of splitStands — down the min-branches order,
// on fuzzer-chosen branches, to a state with missing taxa left, books up to
// three taxa above it that restructure nothing, and then, for up to three
// branches of each pending taxon whose insertion is a split the overlay can
// hold, books it with its patch (BookSplit) and holds every answer against the
// Terrace with the insertions made for real at the same ids (checkBookings):
// for every pending taxon its count, fresh and cached, its branch list in
// order, whether it restructures and each edge id's admissibility, and
// CountBoth of each taxon and the next. After the Pop every answer must be
// the one from before the booking.
func FuzzSplitBookEquiv(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		f.Add(uint8(1), seed, uint8(5), uint8(0)) // count-deep as read, five missing
		f.Add(uint8(1), seed, uint8(5), uint8(2))
		f.Add(uint8(2), seed, uint8(2), uint8(0)) // emp idx 79, penultimate frames
		f.Add(uint8(2), seed, uint8(3), uint8(1))
		f.Add(uint8(0), seed, uint8(3), uint8(1)) // random stands
	}
	f.Fuzz(func(t *testing.T, stand uint8, seed int64, missing, beneath uint8) {
		rng := rand.New(rand.NewSource(seed))
		var tr *Terrace
		if build, ok := splitStands[stand]; ok {
			if tr = splitTerraces[stand]; tr == nil {
				var err error
				if tr, err = New(build(), 0); err != nil {
					t.Fatal(err)
				}
				splitTerraces[stand] = tr
			}
		} else {
			_, cons := randomScenario(rng, 8+rng.Intn(16), 2+rng.Intn(4), 4, 0.6)
			var err error
			if tr, err = New(cons, 0); err != nil {
				t.Skip()
			}
		}
		defer func() {
			for tr.Depth() > 0 {
				tr.RemoveTaxon()
			}
		}()
		left := max(2, int(missing%8))
		for tr.Taxa().Len()-tr.Agile().NumLeaves() > left {
			x := minBranches(tr)
			br := tr.AllowedBranches(x)
			if len(br) == 0 {
				return
			}
			tr.ExtendTaxon(x, br[rng.Intn(len(br))])
		}
		ov := tr.Overlay()
		for range beneath % 4 {
			var bookable []int
			for y := ov.NextPending(0); y >= 0; y = ov.NextPending(y + 1) {
				if ov.PendingCount(y) > 0 && !ov.Restructures(y) {
					bookable = append(bookable, y)
				}
			}
			if len(bookable) < 2 {
				break
			}
			x := bookable[rng.Intn(len(bookable))]
			br := overlaidBranches(ov, x)
			ov.Book(x, br[rng.Intn(len(br))])
		}
		defer ov.Reset()
		checked := 0
		for x := ov.NextPending(0); x >= 0; x = ov.NextPending(x + 1) {
			if ov.Shape(x) != Split || !ov.CanSplit(x) {
				continue
			}
			before := overlayAnswers(ov)
			br := overlaidBranches(ov, x)
			rng.Shuffle(len(br), func(i, j int) { br[i], br[j] = br[j], br[i] })
			for _, e := range br[:min(len(br), 3)] {
				checked++
				ov.BookSplit(x, e)
				checkBookings(t, tr, ov, "split walk")
				ov.Pop()
				if after := overlayAnswers(ov); !slices.EqualFunc(after, before, answersEqual) {
					t.Fatalf("booking %d at %d and popping it changed the overlay's answers", x, e)
				}
			}
		}
		t.Logf("%d taxa, %d missing, %d split bookings checked", tr.Taxa().Len(), tr.Taxa().Len()-tr.Agile().NumLeaves(), checked)
	})
}

// minBranches is the engine's dynamic rule on the Terrace's real state: in
// MissingTaxa order, the first pending taxon with the fewest branches.
func minBranches(tr *Terrace) int {
	best, bestCount := -1, -1
	for _, x := range tr.MissingTaxa() {
		if tr.agile.HasTaxon(x) {
			continue
		}
		if c := tr.PendingCount(x); best == -1 || c < bestCount {
			best, bestCount = x, c
		}
	}
	return best
}

// answers is what the overlay says of one pending taxon.
type answers struct {
	taxon, count int
	list         []int32
	shape        Shape
	admissible   []bool // by edge id of the overlaid state
	both         int    // CountBoth with the next pending taxon
}

func answersEqual(a, b answers) bool {
	return a.taxon == b.taxon && a.count == b.count && slices.Equal(a.list, b.list) && a.shape == b.shape &&
		slices.Equal(a.admissible, b.admissible) && a.both == b.both
}

// overlayAnswers takes down what ov says of every pending taxon.
func overlayAnswers(ov *Overlay) []answers {
	var out []answers
	edges := int32(ov.tr.agile.NumEdges() + 2*ov.Len())
	for y := ov.NextPending(0); y >= 0; y = ov.NextPending(y + 1) {
		a := answers{taxon: y, count: ov.PendingCount(y), list: overlaidBranches(ov, y), shape: ov.Shape(y)}
		for e := int32(0); e < edges; e++ {
			a.admissible = append(a.admissible, ov.EdgeAdmissible(e, y))
		}
		if z := ov.NextPending(y + 1); z >= 0 {
			a.both = ov.CountBoth(y, z)
		}
		out = append(out, a)
	}
	return out
}
