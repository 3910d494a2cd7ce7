package search

import (
	"fmt"
	"io"

	"gentrius/internal/tree"
)

// Checkpoint is a serializable snapshot of a running enumeration. The
// paper's third stopping rule defaults to 168 hours; runs of that length
// need to survive restarts. Every run, at any thread count, writes one form:
// payload version 2, the prefix path plus the task frontier (queued and
// in-flight task snapshots, see Frontier) of a run at a consistent cut, and
// it reads no other.
//
// Together with the original input a checkpoint restores the enumeration
// exactly, at any thread count: the resumed run produces exactly the
// remaining work.
//
// The constraint trees themselves are NOT stored: the caller re-supplies
// the same input (same trees, same order) on restore, and a fingerprint
// guards against mismatches.
type Checkpoint struct {
	Version      int            `json:"version"`
	Fingerprint  string         `json:"fingerprint"`
	InitialIndex int            `json:"initial_index"`
	Heuristic    OrderHeuristic `json:"heuristic"`
	Frontier     *Frontier      `json:"frontier,omitempty"`
	Counters     Counters       `json:"counters"`
}

// FrameSnapshot is one serialized branch-and-bound frame. Weight is the
// frame's Knuth-estimator branch weight, fixed when the frame was pushed;
// it must be stored rather than re-derived because work stealing shrinks a
// live frame's branch list after the weight was fixed.
type FrameSnapshot struct {
	Taxon    int     `json:"taxon"`
	Branches []int32 `json:"branches"`
	Idx      int     `json:"idx"`
	Inserted bool    `json:"inserted"`
	Weight   float64 `json:"weight,omitempty"`
}

// Frontier is the checkpoint's payload section: the complete set of
// outstanding work of a run at a consistent cut. Prefix is the
// common root path all tasks hang off (replayed without recounting on
// resume); Tasks covers both queued tasks (a single uninserted frame) and
// in-flight engines (a full frame stack). Threads records the snapshotting
// pool's width for observability only — resume accepts any thread count.
type Frontier struct {
	Prefix  []PathStep     `json:"prefix,omitempty"`
	Threads int            `json:"threads,omitempty"`
	Tasks   []FrontierTask `json:"tasks"`
}

// FrontierTask is one outstanding unit of work: the path from the initial
// split to the task's base state plus the engine frame stack above it.
type FrontierTask struct {
	Path   []PathStep      `json:"path,omitempty"`
	Frames []FrameSnapshot `json:"frames"`
}

// checkpointVersion is the payload version written, and the only one read.
const checkpointVersion = 2

// fingerprint identifies a constraint-tree input (order-sensitive).
func fingerprint(constraints []*tree.Tree) string {
	h := uint64(1469598103934665603) // FNV-1a
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	for _, c := range constraints {
		mix(c.Newick())
		mix("|")
	}
	return fmt.Sprintf("%016x", h)
}

// Fingerprint returns the input fingerprint stored in checkpoints taken on
// these constraint trees (order-sensitive).
func Fingerprint(constraints []*tree.Tree) string { return fingerprint(constraints) }

// NewFrontierCheckpoint assembles a checkpoint around a quiesced
// frontier. Counters must be the flushed global totals at quiesce time
// (including any prefix-walk counters), so that resume seeds them exactly.
func NewFrontierCheckpoint(constraints []*tree.Tree, initialIndex int, h OrderHeuristic, c Counters, fr *Frontier) *Checkpoint {
	return &Checkpoint{
		Version:      checkpointVersion,
		Fingerprint:  fingerprint(constraints),
		InitialIndex: initialIndex,
		Heuristic:    h,
		Frontier:     fr,
		Counters:     c,
	}
}

// Validate checks a checkpoint against the supplied constraint trees:
// payload version and frontier section, input fingerprint, initial-index
// range, and every task's frames (indices in range, inserted frames with a
// chosen branch, weights on every frame that still has branches). Start
// calls it before touching any frame.
func (cp *Checkpoint) Validate(constraints []*tree.Tree) error {
	if cp.Version != checkpointVersion {
		return fmt.Errorf("search: checkpoint version %d: %w", cp.Version, ErrVersion)
	}
	if cp.Frontier == nil {
		return fmt.Errorf("search: checkpoint missing its frontier section: %w", ErrVersion)
	}
	if got := fingerprint(constraints); got != cp.Fingerprint {
		return fmt.Errorf("search: checkpoint fingerprint %s, supplied input %s: %w",
			cp.Fingerprint, got, ErrFingerprint)
	}
	if cp.InitialIndex < 0 || cp.InitialIndex >= len(constraints) {
		return fmt.Errorf("search: checkpoint initial index %d out of range", cp.InitialIndex)
	}
	for ti := range cp.Frontier.Tasks {
		if err := validateTaskFrames(cp.Frontier.Tasks[ti].Frames, true); err != nil {
			return fmt.Errorf("search: frontier task %d: %w", ti, err)
		}
	}
	return nil
}

// validateTaskFrames rejects structurally corrupt frame stacks before any
// terrace mutation happens. needWeight is set for stored frames, whose
// weights cannot be re-derived.
func validateTaskFrames(frames []FrameSnapshot, needWeight bool) error {
	for i, f := range frames {
		if f.Idx < 0 || f.Idx > len(f.Branches) {
			return fmt.Errorf("corrupt frame %d (idx %d of %d branches)", i, f.Idx, len(f.Branches))
		}
		if f.Inserted && f.Idx == 0 {
			return fmt.Errorf("corrupt frame %d (inserted with idx 0)", i)
		}
		if needWeight && len(f.Branches) > 0 && !(f.Weight > 0) {
			return fmt.Errorf("corrupt frame %d (missing estimator weight)", i)
		}
	}
	return nil
}

// NewSeedTask converts a queued (not yet started) task — path, split taxon,
// branch share, estimator weight — into its frontier form: a single
// uninserted frame at index 0.
func NewSeedTask(path []PathStep, taxon int, branches []int32, weight float64) FrontierTask {
	seed := FrontierTask{Path: path, Frames: []FrameSnapshot{{Taxon: taxon, Branches: branches, Weight: weight}}}
	return seed.Clone()
}

// Clone returns a deep copy sharing no storage with t — what a driver puts
// into a snapshot when the live task's buffers are about to be recycled.
func (t *FrontierTask) Clone() FrontierTask {
	c := FrontierTask{
		Path:   append([]PathStep(nil), t.Path...),
		Frames: append([]FrameSnapshot(nil), t.Frames...),
	}
	for i := range c.Frames {
		c.Frames[i].Branches = append([]int32(nil), c.Frames[i].Branches...)
	}
	return c
}

// RemainingMass sums the Knuth-estimator mass of all outstanding work in
// the frontier: for each frame, weight × (branches not yet tried). The
// branch currently in flight under an inserted frame is excluded — its
// remainder is carried by the deeper frames. 1 − RemainingMass() is the
// consumed mass to seed into an estimator on resume (see
// obs.Estimator.AddLeafMass).
func (f *Frontier) RemainingMass() float64 {
	rem := 0.0
	for ti := range f.Tasks {
		for _, fr := range f.Tasks[ti].Frames {
			rem += fr.Weight * float64(len(fr.Branches)-fr.Idx)
		}
	}
	return rem
}

// Write serializes the checkpoint in the checksummed envelope format (see
// checkpointfile.go). For crash-safe persistence to disk use WriteFile.
func (cp *Checkpoint) Write(w io.Writer) error {
	data, err := cp.encode()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadCheckpoint parses a checkpoint in the checksummed envelope format.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("search: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}
