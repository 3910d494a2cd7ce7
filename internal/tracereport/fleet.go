// Fleet trace merging: joins N per-node JSONL traces (one coordinator, any
// number of workers) into a single timeline; one run's trace is a fleet of
// one, merged as it is. Nodes share no clock, so the merge first estimates
// each worker's clock offset NTP-free from the RPC pairs the fleet
// protocol already emits — every dispatch→shard-begin pair lower-bounds
// the offset (the begin happened after the dispatch), every
// shard-hb-send→shard-hb-recv pair upper-bounds it (the recv happened
// after the send) — then reconstructs every shard's lease lineage
// (dispatch → heartbeats → epoch fence → re-dispatch → merge), audits it
// for orphan spans, and ranks straggler nodes by lease-held time per unit
// of credited estimator mass.
package tracereport

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"gentrius/internal/obs"
)

// NodeTrace is one node's parsed trace, labelled for the merge. Its events
// belong to the node Name: the "node" tag of a coordinator event, or of a
// shard-begin, names the shard's holder, not the trace the event was read
// from.
type NodeTrace struct {
	Name   string
	Events []TraceEvent
}

// FleetNode summarizes one node after the merge.
type FleetNode struct {
	Name   string
	Role   string // "coordinator", "worker", or "run" (a lone trace without fleet events)
	Events int
	// Offset is the estimated clock offset ADDED to this node's local
	// timestamps to map them onto the coordinator's clock; bounded below
	// by OffsetLo (dispatch→begin pairs) and above by OffsetHi
	// (hb-send→hb-recv pairs). The coordinator's own offset is zero.
	Offset             int64
	OffsetLo, OffsetHi int64
	HasLo, HasHi       bool
	DispatchPairs      int // begin pairs that produced lower bounds
	HeartbeatPairs     int // hb pairs that produced upper bounds
}

// EpochLife is one epoch of one shard's lease lineage, in coordinator time.
type EpochLife struct {
	Job    string
	Shard  int
	Epoch  int
	Holder string // worker node when known, else the coordinator's peer name
	Cause  string // dispatch cause: initial / redispatch
	// Coordinator-side stamps.
	DispatchTS int64
	EndTS      int64
	Outcome    string // merged / expired / superseded / open
	// Worker-side stamps (aligned into coordinator time).
	BeginTS  int64
	HasBegin bool
	// Heartbeat accounting: sends observed on the worker, recvs accepted
	// by the coordinator. sends > recvs means the network (or a fault
	// injector) ate the difference.
	HBSends, HBRecvs int
	Checkpoints      int
	WorkerOutcome    string // shard-end outcome tag, "" when none seen
	// Estimator mass at dispatch and after the last ACCEPTED heartbeat.
	MassStartPPM, MassLastPPM int64
}

// Held is how long the lease was held, in coordinator-clock units.
func (e *EpochLife) Held() int64 { return e.EndTS - e.DispatchTS }

// CreditedPPM is the estimator mass this epoch durably retired: everything
// it started with when merged, only the accepted-heartbeat progress when
// the lease expired or was superseded.
func (e *EpochLife) CreditedPPM() int64 {
	if e.Outcome == "merged" {
		return e.MassStartPPM
	}
	d := e.MassStartPPM - e.MassLastPPM
	if d < 0 {
		return 0
	}
	return d
}

// ShardLife is one shard's full lineage, epochs in order.
type ShardLife struct {
	Job    string
	Shard  int
	Epochs []EpochLife
}

// StragglerRow ranks one node's lease economics: wall-clock share of held
// leases against the Knuth-estimator mass it durably retired. A blackholed
// or stalled node holds leases while crediting nothing, so it sorts first.
type StragglerRow struct {
	Node        string
	HeldUnits   int64
	CreditedPPM int64
	Score       float64 // held units per credited ppm (+1)
}

// FleetReport is the merged fleet timeline and its analyses.
type FleetReport struct {
	Units    string
	TraceIDs []string
	Nodes    []FleetNode
	Shards   []ShardLife
	// Stragglers is sorted most-suspect first.
	Stragglers []StragglerRow
	// Orphans lists lineage violations (a span joined to no dispatch, a
	// dispatch reaching no terminal state). Empty means every shard
	// lifecycle reconstructed completely.
	Orphans []string
	// Merged is every node's events mapped onto the coordinator clock and
	// sorted; src[i] is the index in Nodes of the trace Merged[i] was read
	// from.
	Merged          []TraceEvent
	src             []int
	FirstTS, LastTS int64
	Redispatches    int
	EpochsTotal     int
	CoordinatorName string // "" for a run
}

type epochKey struct {
	job   string
	shard int64
	epoch int64
}

func eventEpochKey(e *TraceEvent) epochKey {
	return epochKey{job: e.GetStr("job"), shard: e.Get("shard"), epoch: e.Get("epoch")}
}

// fleetEvent reports whether ev is a fleet lifecycle event (as opposed to
// engine/serving events riding in the same node trace).
func fleetEvent(ev string) bool {
	switch ev {
	case obs.EvFleetRun, obs.EvShardDispatch, obs.EvShardDone, obs.EvLeaseExpire, obs.EvShardFenced,
		obs.EvShardBegin, obs.EvShardEnd, obs.EvShardHeartbeat, obs.EvHeartbeatRecv, obs.EvShardCheckpoint:
		return true
	}
	return false
}

// MergeFleet joins per-node traces into one FleetReport. Exactly one node
// must contain coordinator-side events (shard-dispatch / fleet-run), unless
// the one trace given holds no fleet events at all: that run merges as a
// node of role "run", on its own clock, with no shard lineage.
func MergeFleet(nodes []NodeTrace, units string) (*FleetReport, error) {
	if units == "" {
		units = "units"
	}
	coord := -1
	for i, n := range nodes {
		for _, e := range n.Events {
			if e.Ev == obs.EvShardDispatch || e.Ev == obs.EvFleetRun {
				if coord >= 0 && coord != i {
					return nil, fmt.Errorf("tracereport: fleet merge: both %q and %q contain coordinator events",
						nodes[coord].Name, n.Name)
				}
				coord = i
			}
		}
	}
	rep := &FleetReport{Units: units}
	var cev []TraceEvent
	if coord >= 0 {
		rep.CoordinatorName, cev = nodes[coord].Name, nodes[coord].Events
	} else if len(nodes) != 1 || slices.ContainsFunc(nodes[0].Events, func(e TraceEvent) bool { return fleetEvent(e.Ev) }) {
		return nil, fmt.Errorf("tracereport: fleet merge: no node contains coordinator events (shard-dispatch)")
	}

	// Coordinator-side index: dispatch stamps, accepted-heartbeat stamps
	// (by seq, for clock pairing), expiries, and merges.
	dispatch := map[epochKey]*TraceEvent{}
	recvBySeq := map[epochKey]map[int64]int64{}
	expire := map[epochKey]int64{}
	doneTS := map[epochKey]int64{}
	traceIDs := map[string]bool{}
	for i := range cev {
		e := &cev[i]
		if id := e.GetStr("trace"); id != "" {
			traceIDs[id] = true
		}
		switch e.Ev {
		case obs.EvShardDispatch:
			k := eventEpochKey(e)
			if dispatch[k] == nil {
				dispatch[k] = e
			}
		case obs.EvHeartbeatRecv:
			k := eventEpochKey(e)
			if recvBySeq[k] == nil {
				recvBySeq[k] = map[int64]int64{}
			}
			recvBySeq[k][e.Get("seq")] = e.TS
		case obs.EvLeaseExpire:
			expire[eventEpochKey(e)] = e.TS
		case obs.EvShardDone:
			doneTS[eventEpochKey(e)] = e.TS
		}
	}

	// Per-node clock alignment. The coordinator, or a run, aligns to itself.
	offsets := make([]int64, len(nodes))
	for i, n := range nodes {
		fn := FleetNode{Name: n.Name, Role: "worker", Events: len(n.Events)}
		if coord < 0 {
			fn.Role = "run"
		}
		if i == coord {
			fn.Role = "coordinator"
			rep.Nodes = append(rep.Nodes, fn)
			continue
		}
		for j := range n.Events {
			e := &n.Events[j]
			if id := e.GetStr("trace"); id != "" {
				traceIDs[id] = true
			}
			switch e.Ev {
			case obs.EvShardBegin:
				// begin happened after the dispatch: offset >= disp - begin.
				if d := dispatch[eventEpochKey(e)]; d != nil {
					lo := d.TS - e.TS
					if !fn.HasLo || lo > fn.OffsetLo {
						fn.OffsetLo = lo
					}
					fn.HasLo = true
					fn.DispatchPairs++
				}
			case obs.EvShardHeartbeat:
				// recv happened after the send: offset <= recv - send.
				if m := recvBySeq[eventEpochKey(e)]; m != nil {
					if ts, ok := m[e.Get("seq")]; ok {
						hi := ts - e.TS
						if !fn.HasHi || hi < fn.OffsetHi {
							fn.OffsetHi = hi
						}
						fn.HasHi = true
						fn.HeartbeatPairs++
					}
				}
			}
		}
		switch {
		case fn.HasLo && fn.HasHi && fn.OffsetHi >= fn.OffsetLo:
			fn.Offset = fn.OffsetLo + (fn.OffsetHi-fn.OffsetLo)/2
		case fn.HasLo:
			fn.Offset = fn.OffsetLo
		case fn.HasHi:
			fn.Offset = fn.OffsetHi
		}
		offsets[i] = fn.Offset
		rep.Nodes = append(rep.Nodes, fn)
	}
	for id := range traceIDs {
		rep.TraceIDs = append(rep.TraceIDs, id)
	}
	sort.Strings(rep.TraceIDs)

	// Merge: every event onto the coordinator clock, with the node it came
	// from; ties keep node order, then each trace's own order.
	type mergeEntry struct {
		ev   TraceEvent
		node int
	}
	var entries []mergeEntry
	for i, n := range nodes {
		for _, e := range n.Events {
			e.TS += offsets[i]
			entries = append(entries, mergeEntry{ev: e, node: i})
		}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].ev.TS < entries[b].ev.TS })
	rep.Merged, rep.src = make([]TraceEvent, len(entries)), make([]int, len(entries))
	for i := range entries {
		rep.Merged[i], rep.src[i] = entries[i].ev, entries[i].node
	}
	if n := len(rep.Merged); n > 0 {
		rep.FirstTS, rep.LastTS = rep.Merged[0].TS, rep.Merged[n-1].TS
	}

	// Shard lifecycle reconstruction, from the merged (aligned) stream.
	lives := map[epochKey]*EpochLife{}
	var liveOrder []epochKey
	lifeAt := func(k epochKey) *EpochLife {
		l := lives[k]
		if l == nil {
			l = &EpochLife{Job: k.job, Shard: int(k.shard), Epoch: int(k.epoch),
				BeginTS: -1, MassLastPPM: -1}
			lives[k] = l
			liveOrder = append(liveOrder, k)
		}
		return l
	}
	for i := range rep.Merged {
		e := &rep.Merged[i]
		if !fleetEvent(e.Ev) {
			continue
		}
		k := eventEpochKey(e)
		switch e.Ev {
		case obs.EvShardDispatch:
			l := lifeAt(k)
			l.DispatchTS = e.TS
			l.Holder, l.Cause = e.GetStr("peer"), e.GetStr("cause")
			l.MassStartPPM = e.Get("mass_ppm")
			l.MassLastPPM = l.MassStartPPM
		case obs.EvShardBegin:
			// The holder is the worker that stamped the event, whichever trace
			// holds it: the coordinator's own worker writes to the coordinator's.
			node := e.GetStr("node")
			if node == "" {
				node = nodes[rep.src[i]].Name
			}
			if dispatch[k] == nil {
				rep.Orphans = append(rep.Orphans, fmt.Sprintf(
					"shard-begin on %s for %s/shard %d epoch %d matches no dispatch",
					node, k.job, k.shard, k.epoch))
				continue
			}
			l := lifeAt(k)
			l.BeginTS, l.HasBegin = e.TS, true
			l.Holder = node
		case obs.EvShardHeartbeat:
			lifeAt(k).HBSends++
		case obs.EvHeartbeatRecv:
			if dispatch[k] == nil {
				rep.Orphans = append(rep.Orphans, fmt.Sprintf(
					"heartbeat-recv for %s/shard %d epoch %d matches no dispatch",
					k.job, k.shard, k.epoch))
				continue
			}
			l := lifeAt(k)
			l.HBRecvs++
			l.MassLastPPM = e.Get("mass_ppm")
		case obs.EvShardCheckpoint:
			lifeAt(k).Checkpoints++
		case obs.EvShardEnd:
			lifeAt(k).WorkerOutcome = e.GetStr("outcome")
		case obs.EvShardDone:
			if dispatch[k] == nil {
				rep.Orphans = append(rep.Orphans, fmt.Sprintf(
					"shard-done for %s/shard %d epoch %d matches no dispatch",
					k.job, k.shard, k.epoch))
			}
		}
	}

	// Resolve outcomes: merged beats expired beats superseded beats open.
	nextEpoch := map[epochKey]int64{}
	for _, k := range liveOrder {
		nk := epochKey{k.job, k.shard, 0}
		if k.epoch > nextEpoch[nk] {
			nextEpoch[nk] = k.epoch
		}
	}
	for _, k := range liveOrder {
		l := lives[k]
		if dispatch[k] == nil && !l.HasBegin {
			continue // pure bookkeeping entry (hb for unknown dispatch, audited above)
		}
		switch {
		case func() bool { _, ok := doneTS[k]; return ok }():
			l.Outcome, l.EndTS = "merged", doneTS[k]
			l.MassLastPPM = 0
		case func() bool { _, ok := expire[k]; return ok }():
			l.Outcome, l.EndTS = "expired", expire[k]
		case k.epoch < nextEpoch[epochKey{k.job, k.shard, 0}]:
			l.Outcome = "superseded"
			if d := dispatch[epochKey{k.job, k.shard, k.epoch + 1}]; d != nil {
				l.EndTS = d.TS
			} else {
				l.EndTS = rep.LastTS
			}
		default:
			l.Outcome, l.EndTS = "open", rep.LastTS
			rep.Orphans = append(rep.Orphans, fmt.Sprintf(
				"%s/shard %d epoch %d dispatched at %d reaches no terminal state",
				k.job, k.shard, k.epoch, l.DispatchTS))
		}
		if l.MassLastPPM < 0 {
			l.MassLastPPM = l.MassStartPPM
		}
	}

	// Group into shards, sorted (job, shard, epoch).
	sort.Slice(liveOrder, func(a, b int) bool {
		ka, kb := liveOrder[a], liveOrder[b]
		if ka.job != kb.job {
			return ka.job < kb.job
		}
		if ka.shard != kb.shard {
			return ka.shard < kb.shard
		}
		return ka.epoch < kb.epoch
	})
	var cur *ShardLife
	for _, k := range liveOrder {
		l := lives[k]
		if l.Outcome == "" {
			continue
		}
		rep.EpochsTotal++
		if l.Epoch > 1 {
			rep.Redispatches++
		}
		if cur == nil || cur.Job != l.Job || cur.Shard != l.Shard {
			rep.Shards = append(rep.Shards, ShardLife{Job: l.Job, Shard: l.Shard})
			cur = &rep.Shards[len(rep.Shards)-1]
		}
		cur.Epochs = append(cur.Epochs, *l)
	}

	// Straggler ranking: per holder node, lease-held units per credited ppm.
	held := map[string]*StragglerRow{}
	var holders []string
	for _, sh := range rep.Shards {
		for i := range sh.Epochs {
			l := &sh.Epochs[i]
			row := held[l.Holder]
			if row == nil {
				row = &StragglerRow{Node: l.Holder}
				held[l.Holder] = row
				holders = append(holders, l.Holder)
			}
			row.HeldUnits += l.Held()
			row.CreditedPPM += l.CreditedPPM()
		}
	}
	for _, h := range holders {
		row := held[h]
		row.Score = float64(row.HeldUnits) / float64(row.CreditedPPM+1)
		rep.Stragglers = append(rep.Stragglers, *row)
	}
	sort.Slice(rep.Stragglers, func(a, b int) bool {
		if rep.Stragglers[a].Score != rep.Stragglers[b].Score {
			return rep.Stragglers[a].Score > rep.Stragglers[b].Score
		}
		return rep.Stragglers[a].Node < rep.Stragglers[b].Node
	})
	return rep, nil
}

// WriteMarkdown renders the fleet report, deterministically for a given
// set of input traces.
func (r *FleetReport) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# Fleet trace report\n\n")
	workers := 0
	for _, n := range r.Nodes {
		if n.Role == "worker" {
			workers++
		}
	}
	fmt.Fprintf(&b, "- nodes: %d (1 coordinator, %d workers)\n", len(r.Nodes), workers)
	if len(r.TraceIDs) > 0 {
		fmt.Fprintf(&b, "- trace ids: %s\n", strings.Join(r.TraceIDs, ", "))
	}
	fmt.Fprintf(&b, "- merged events: %d, span %d %s (ts %d..%d on the coordinator clock)\n",
		len(r.Merged), r.LastTS-r.FirstTS, r.Units, r.FirstTS, r.LastTS)
	fmt.Fprintf(&b, "- shards: %d, epochs: %d, re-dispatches: %d\n",
		len(r.Shards), r.EpochsTotal, r.Redispatches)

	fmt.Fprintf(&b, "\n## Node clock alignment\n\n")
	fmt.Fprintf(&b, "Offsets are added to each node's local timestamps to map them onto the\n")
	fmt.Fprintf(&b, "coordinator clock; bounds come from dispatch/heartbeat RPC pairs (no NTP).\n\n")
	fmt.Fprintf(&b, "| node | role | events | offset (%s) | bounds | dispatch pairs | heartbeat pairs |\n", r.Units)
	fmt.Fprintf(&b, "|---|---|---|---|---|---|---|\n")
	for _, n := range r.Nodes {
		bounds := "-"
		switch {
		case n.HasLo && n.HasHi:
			bounds = fmt.Sprintf("[%d, %d]", n.OffsetLo, n.OffsetHi)
		case n.HasLo:
			bounds = fmt.Sprintf("[%d, +inf)", n.OffsetLo)
		case n.HasHi:
			bounds = fmt.Sprintf("(-inf, %d]", n.OffsetHi)
		}
		fmt.Fprintf(&b, "| %s | %s | %d | %d | %s | %d | %d |\n",
			n.Name, n.Role, n.Events, n.Offset, bounds, n.DispatchPairs, n.HeartbeatPairs)
	}

	fmt.Fprintf(&b, "\n## Shard lifecycles\n\n")
	if len(r.Shards) == 0 {
		fmt.Fprintf(&b, "(no shard lineage in trace)\n")
	} else {
		fmt.Fprintf(&b, "| job | shard | epoch | holder | cause | dispatched | begun | hb acked/sent | checkpoints | outcome | ended | held (%s) | mass ppm start→last |\n", r.Units)
		fmt.Fprintf(&b, "|---|---|---|---|---|---|---|---|---|---|---|---|---|\n")
		for _, sh := range r.Shards {
			for i := range sh.Epochs {
				l := &sh.Epochs[i]
				begun := "-"
				if l.HasBegin {
					begun = fmt.Sprintf("%d", l.BeginTS)
				}
				outcome := l.Outcome
				if l.WorkerOutcome != "" && l.WorkerOutcome != "done" {
					outcome += "/" + l.WorkerOutcome
				}
				fmt.Fprintf(&b, "| %s | %d | %d | %s | %s | %d | %s | %d/%d | %d | %s | %d | %d | %d→%d |\n",
					l.Job, l.Shard, l.Epoch, l.Holder, l.Cause, l.DispatchTS, begun,
					l.HBRecvs, l.HBSends, l.Checkpoints, outcome, l.EndTS, l.Held(),
					l.MassStartPPM, l.MassLastPPM)
			}
		}
	}

	fmt.Fprintf(&b, "\n## Straggler ranking\n\n")
	fmt.Fprintf(&b, "Score is lease-held %s per credited estimator ppm: a node holding\n", r.Units)
	fmt.Fprintf(&b, "leases while crediting no durable progress ranks first.\n\n")
	fmt.Fprintf(&b, "| rank | node | lease-held (%s) | credited mass (ppm) | score |\n", r.Units)
	fmt.Fprintf(&b, "|---|---|---|---|---|\n")
	for i, s := range r.Stragglers {
		fmt.Fprintf(&b, "| %d | %s | %d | %d | %.6f |\n",
			i+1, s.Node, s.HeldUnits, s.CreditedPPM, s.Score)
	}

	fmt.Fprintf(&b, "\n## Orphan audit\n\n")
	if len(r.Orphans) == 0 {
		fmt.Fprintf(&b, "clean: every worker span joins a dispatch and every dispatch reaches a terminal state\n")
	} else {
		for _, o := range r.Orphans {
			fmt.Fprintf(&b, "- ORPHAN: %s\n", o)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
