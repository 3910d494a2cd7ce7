package search

import "sort"

// Shard math: internal/dist splits a job's root frontier into coarse,
// independently executable sub-frontiers (one per shard) and merges results
// back. Splitting must be conservative — no task duplicated, none lost, and
// the Knuth-estimator mass exactly partitioned — because the coordinator's
// exactly-once merge argument leans on "the shard frontiers are a partition
// of the root frontier".

// Mass returns the task's outstanding Knuth-estimator mass: for each frame,
// weight × branches not yet tried (the same accounting as
// Frontier.RemainingMass, per task).
func (t *FrontierTask) Mass() float64 {
	m := 0.0
	for _, fr := range t.Frames {
		m += fr.Weight * float64(len(fr.Branches)-fr.Idx)
	}
	return m
}

// SplitFrontier partitions fr's tasks into at most k sub-frontiers,
// balancing estimator mass greedily (largest task first onto the lightest
// shard — LPT scheduling). Every task lands in exactly one shard; shard
// count is min(k, task count), so k larger than the task count simply
// yields singleton shards. Each shard inherits fr's Prefix. The split is
// deterministic: ties in task mass break by original task order, ties in
// shard load by shard index. Task contents are aliased, not deep-copied —
// shards are read-only views until serialized for dispatch.
func SplitFrontier(fr *Frontier, k int) []*Frontier {
	if fr == nil || len(fr.Tasks) == 0 || k < 1 {
		return nil
	}
	if k > len(fr.Tasks) {
		k = len(fr.Tasks)
	}
	order := make([]int, len(fr.Tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return fr.Tasks[order[a]].Mass() > fr.Tasks[order[b]].Mass()
	})
	shards := make([]*Frontier, k)
	load := make([]float64, k)
	for i := range shards {
		shards[i] = &Frontier{Prefix: fr.Prefix, Threads: fr.Threads}
	}
	for _, ti := range order {
		// Lightest shard wins; at equal load (e.g. exhausted zero-mass
		// tasks) the one with fewer tasks, so no shard is left empty.
		best := 0
		for s := 1; s < k; s++ {
			if load[s] < load[best] ||
				(load[s] == load[best] && len(shards[s].Tasks) < len(shards[best].Tasks)) {
				best = s
			}
		}
		shards[best].Tasks = append(shards[best].Tasks, fr.Tasks[ti])
		load[best] += fr.Tasks[ti].Mass()
	}
	return shards
}
