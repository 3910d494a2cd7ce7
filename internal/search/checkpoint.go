package search

import (
	"fmt"
	"io"

	"gentrius/internal/tree"
)

// Checkpoint is a serializable snapshot of a running enumeration. The
// paper's third stopping rule defaults to 168 hours; runs of that length
// need to survive restarts. Every run, at any thread count, writes version 2
// (frontier): the prefix path plus the task frontier (queued and in-flight
// task snapshots, see Frontier) of a run at a consistent cut. Version 1 is
// read only, for files written before serial runs wrote frontiers: the
// branch-and-bound stack of a single engine — each frame's taxon, branch
// list and position — plus the counters, viewed as a one-task frontier.
//
// Together with the original input either version restores the enumeration
// exactly, at any thread count: the resumed run produces exactly the
// remaining work.
//
// The constraint trees themselves are NOT stored: the caller re-supplies
// the same input (same trees, same order) on restore, and a fingerprint
// guards against mismatches.
type Checkpoint struct {
	Version      int             `json:"version"`
	Fingerprint  string          `json:"fingerprint"`
	InitialIndex int             `json:"initial_index"`
	Heuristic    OrderHeuristic  `json:"heuristic"`
	Frames       []FrameSnapshot `json:"frames,omitempty"`
	Frontier     *Frontier       `json:"frontier,omitempty"`
	Counters     Counters        `json:"counters"`
	Done         bool            `json:"done"`
	Started      bool            `json:"started"`
}

// FrameSnapshot is one serialized branch-and-bound frame. Weight is the
// frame's Knuth-estimator branch weight, fixed when the frame was pushed;
// it must be stored rather than re-derived because work stealing shrinks a
// live frame's branch list after the weight was fixed (v1 serial frames
// never lose branches, so their weights stay derivable — see FrontierView).
type FrameSnapshot struct {
	Taxon    int     `json:"taxon"`
	Branches []int32 `json:"branches"`
	Idx      int     `json:"idx"`
	Inserted bool    `json:"inserted"`
	Weight   float64 `json:"weight,omitempty"`
}

// Frontier is the version-2 payload section: the complete set of
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

// Checkpoint payload versions. checkpointVersion (1) is the serial
// frame-stack format, read only; checkpointVersionFrontier (2), the
// Frontier section, is the one written.
const (
	checkpointVersion         = 1
	checkpointVersionFrontier = 2
)

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

// NewFrontierCheckpoint assembles a version-2 checkpoint around a quiesced
// frontier. Counters must be the flushed global totals at quiesce time
// (including any prefix-walk counters), so that resume seeds them exactly.
func NewFrontierCheckpoint(constraints []*tree.Tree, initialIndex int, h OrderHeuristic, c Counters, fr *Frontier) *Checkpoint {
	return &Checkpoint{
		Version:      checkpointVersionFrontier,
		Fingerprint:  fingerprint(constraints),
		InitialIndex: initialIndex,
		Heuristic:    h,
		Frontier:     fr,
		Counters:     c,
		Started:      true,
		Done:         len(fr.Tasks) == 0,
	}
}

// Validate checks a checkpoint against the supplied constraint trees:
// payload version, version/frontier consistency, input fingerprint and
// initial-index range. Start calls it before touching any frame.
func (cp *Checkpoint) Validate(constraints []*tree.Tree) error {
	switch cp.Version {
	case checkpointVersion:
		if cp.Frontier != nil {
			return fmt.Errorf("search: version-1 checkpoint carries a frontier section: %w", ErrVersion)
		}
	case checkpointVersionFrontier:
		if cp.Frontier == nil {
			return fmt.Errorf("search: version-2 checkpoint missing its frontier section: %w", ErrVersion)
		}
	default:
		return fmt.Errorf("search: version %d: %w", cp.Version, ErrVersion)
	}
	if got := fingerprint(constraints); got != cp.Fingerprint {
		return fmt.Errorf("search: checkpoint fingerprint %s, supplied input %s: %w",
			cp.Fingerprint, got, ErrFingerprint)
	}
	if cp.InitialIndex < 0 || cp.InitialIndex >= len(constraints) {
		return fmt.Errorf("search: checkpoint initial index %d out of range", cp.InitialIndex)
	}
	return nil
}

// unstarted reports a serial snapshot taken before the engine's first step:
// nothing is counted and no frame exists yet, so all of the run is ahead.
func (cp *Checkpoint) unstarted() bool {
	return cp.Frontier == nil && !cp.Started && !cp.Done && len(cp.Frames) == 0
}

// FrontierView returns the checkpoint's outstanding work as a frontier,
// regardless of payload version. A version-2 checkpoint returns its stored
// frontier; a version-1 serial checkpoint is synthesized into a one-task
// frontier with weights re-derived top-down (valid because serial frames
// never lose branches to stealing), which Start resumes like any other.
// The returned frontier is validated:
// frame indices in range, inserted frames with a chosen branch, weights
// present on every frame that still has branches.
func (cp *Checkpoint) FrontierView() (*Frontier, error) {
	if cp.Frontier != nil {
		for ti := range cp.Frontier.Tasks {
			if err := validateTaskFrames(cp.Frontier.Tasks[ti].Frames, true); err != nil {
				return nil, fmt.Errorf("search: frontier task %d: %w", ti, err)
			}
		}
		return cp.Frontier, nil
	}
	fr := &Frontier{}
	if cp.Done || len(cp.Frames) == 0 {
		return fr, nil
	}
	if err := validateTaskFrames(cp.Frames, false); err != nil {
		return nil, fmt.Errorf("search: serial checkpoint frames: %w", err)
	}
	frames := make([]FrameSnapshot, len(cp.Frames))
	parentW := 1.0
	for i, f := range cp.Frames {
		w := 0.0
		if len(f.Branches) > 0 {
			w = parentW / float64(len(f.Branches))
		}
		frames[i] = f
		frames[i].Weight = w
		parentW = w
	}
	fr.Tasks = []FrontierTask{{Frames: frames}}
	return fr, nil
}

// validateTaskFrames rejects structurally corrupt frame stacks before any
// terrace mutation happens. needWeight is set for stored (v2) frames, whose
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

// ReadCheckpoint parses a checkpoint, accepting both the checksummed
// envelope and the legacy bare-JSON format.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("search: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}
