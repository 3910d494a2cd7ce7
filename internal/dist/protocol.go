package dist

import (
	"context"

	"gentrius/internal/faultinject"
	"gentrius/internal/retry"

	"gentrius/internal/search"
)

// The fleet wire protocol. Three RPCs exist:
//
//	coordinator → worker:  Dispatch   (lease a shard)
//	worker → coordinator:  Heartbeat  (renew lease, piggyback durable progress)
//	worker → coordinator:  Result     (final shard counters + trees, or the run's failure)
//
// All payloads are JSON. Constraint trees travel as canonical Newick
// strings and are re-parsed on both sides from the SAME text, so taxon and
// edge ids — which tree.ReadLines assigns by first appearance — agree across
// processes; the checkpoint fingerprint guards against drift.

// Proto is the version of the messages below, carried by every request: a
// worker refuses a dispatch of another version, a coordinator fences a
// heartbeat or a result of another version and stops using that peer, so a
// mixed fleet runs on the peers that agree. Version 1 had no such field and
// re-sent every tree since dispatch, a string each, on every heartbeat;
// version 2 could answer a dispatch with a result finished earlier, and a
// failed run reported nothing.
const Proto = 3

// TreeDelta is the stand trees a heartbeat or a result carries, each tree of
// a shard crossing the wire once: Trees are the engine's blocks (see
// treeLog), TreesN canonical Newicks in all, each newline-terminated — the
// ones found since dispatch behind the first TreesAt, which is the cut of
// the last heartbeat the coordinator answered. The coordinator drops what it
// holds of the epoch behind TreesAt before it appends, so a message sent
// again is harmless. Empty when the dispatch had CollectTrees false.
type TreeDelta struct {
	TreesAt int      `json:"trees_at,omitempty"`
	TreesN  int      `json:"trees_n,omitempty"`
	Trees   []string `json:"trees,omitempty"`
}

// DispatchRequest leases one shard to a worker.
type DispatchRequest struct {
	Proto int    `json:"proto"`
	JobID string `json:"job_id"`
	Shard int    `json:"shard"`
	// TraceID is the coordinator-minted fleet-run trace id, derived
	// deterministically from (job id, fingerprint). Workers stamp it on
	// every local trace event and echo it on heartbeats and results, so N
	// per-node JSONL traces are joinable offline (obsreport -trace, one
	// path per node). It
	// also travels as the X-Fleet-Trace HTTP header so the serving
	// middleware can correlate fleet RPCs with access logs.
	TraceID string `json:"trace_id,omitempty"`
	// Epoch is the shard's fencing token: it increments on every
	// re-dispatch, and the worker echoes it on every heartbeat and on the
	// final result so the coordinator can tell lineages apart.
	Epoch int `json:"epoch"`
	// Fingerprint is the canonical input fingerprint (search.Fingerprint)
	// of Trees; a worker that parses a different one fails the shard.
	Fingerprint string `json:"fingerprint"`
	// Trees are the canonical constraint Newicks (one per constraint, in
	// order). The worker re-parses them verbatim.
	Trees []string `json:"trees"`
	// Checkpoint is the shard's frontier checkpoint with counters ZEROED:
	// the worker's result counters then measure exactly the work done
	// since this dispatch, which is what the coordinator's per-epoch base
	// accounting needs.
	Checkpoint *search.Checkpoint `json:"checkpoint"`
	// CoordURL tells the worker where to send heartbeats and the result.
	CoordURL string `json:"coord_url"`
	// Threads is the worker-side thread count for the shard (0 = 1).
	Threads int `json:"threads,omitempty"`
	// CollectTrees asks the worker to ship the shard's stand trees back
	// (heartbeats and result); jobs that only count leave it false.
	CollectTrees bool `json:"collect_trees,omitempty"`
	// HeartbeatMillis is the cadence the worker heartbeats at.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// DispatchResponse acknowledges a lease.
type DispatchResponse struct {
	Accepted bool `json:"accepted"`
}

// HeartbeatRequest renews a shard lease and piggybacks durable progress.
type HeartbeatRequest struct {
	Proto int    `json:"proto"`
	JobID string `json:"job_id"`
	Shard int    `json:"shard"`
	Epoch int    `json:"epoch"`
	// TraceID echoes the dispatch's fleet-run trace id; Node is the
	// worker's self-reported name. Both are observability-only.
	TraceID string `json:"trace_id,omitempty"`
	Node    string `json:"node,omitempty"`
	// Seq numbers this epoch's heartbeats from 1. The worker emits a
	// shard-hb-send trace event and the coordinator a shard-hb-recv event
	// carrying the same seq; each matched pair upper-bounds the worker's
	// clock offset in the NTP-free fleet-trace alignment (the dispatch →
	// shard-begin pair provides the lower bound).
	Seq int64 `json:"seq,omitempty"`
	// RemainingMass is the Knuth-estimator mass still outstanding in the
	// shard as of the cut (Coordinator.Status shows it per shard).
	RemainingMass float64 `json:"remaining_mass"`
	// Checkpoint is the latest periodic frontier checkpoint (nil before
	// the first one). Its counters are since-dispatch.
	Checkpoint *search.Checkpoint `json:"checkpoint,omitempty"`
	// The trees up to the checkpoint's cut (none without a checkpoint):
	// TreesAt + TreesN == Checkpoint.Counters.StandTrees. (The engines drain
	// the tree stream before every snapshot: delivered == counted at the cut.)
	TreeDelta
}

// HeartbeatResponse tells the worker whether its epoch is still current.
type HeartbeatResponse struct {
	// Fenced: a newer epoch owns the shard (or the job is gone). The
	// worker cancels the shard run and discards its state.
	Fenced bool `json:"fenced"`
}

// ShardResult is the final outcome of one shard epoch.
type ShardResult struct {
	Proto int    `json:"proto"`
	JobID string `json:"job_id"`
	Shard int    `json:"shard"`
	Epoch int    `json:"epoch"`
	// TraceID/Node mirror the heartbeat fields (observability-only).
	TraceID  string            `json:"trace_id,omitempty"`
	Node     string            `json:"node,omitempty"`
	Stop     search.StopReason `json:"stop"`
	Counters search.Counters   `json:"counters"`
	// The trees no heartbeat delivered: TreesAt + TreesN == Counters.StandTrees.
	TreeDelta
	// Err, when set, is why the epoch's run failed (the engine failed or
	// panicked, or the dispatched constraints did not parse or match their
	// fingerprint); the result then has no counters and no trees, and the
	// coordinator fails the job with it.
	Err string `json:"err,omitempty"`
}

// ResultResponse acknowledges a shard result.
type ResultResponse struct {
	// Fenced: the result's epoch was unknown or already superseded by a
	// completed merge; the worker can drop its copy either way.
	Fenced bool `json:"fenced"`
}

// WorkerClient is the coordinator's view of one peer worker.
type WorkerClient interface {
	// Name identifies the peer in logs, metrics and traces (its URL for
	// HTTP transports).
	Name() string
	// Dispatch leases a shard to the peer.
	Dispatch(ctx context.Context, req *DispatchRequest) (*DispatchResponse, error)
}

// CoordinatorClient is the worker's view of its coordinator.
type CoordinatorClient interface {
	Heartbeat(ctx context.Context, req *HeartbeatRequest) (*HeartbeatResponse, error)
	Result(ctx context.Context, req *ShardResult) (*ResultResponse, error)
}

// rpc makes one fleet RPC under the node's retry policy. Every attempt
// passes the rpcsend fault site, makes the call and passes the rpcrecv
// fault site, in that order on every path, so a seeded injector meets the
// same occurrences whichever RPC it is; the response of the first attempt
// to clear all three is returned. A nil ctx never aborts the backoff.
func rpc[Resp any](ctx context.Context, pol retry.Policy, fault *faultinject.Injector,
	site string, call func() (Resp, error)) (resp Resp, err error) {
	err = pol.Do(ctx, func() error {
		if err := fault.Err(faultinject.RPCSend, site); err != nil {
			return err
		}
		r, err := call()
		if err != nil {
			return err
		}
		if err := fault.Err(faultinject.RPCRecv, site); err != nil {
			return err
		}
		resp = r
		return nil
	})
	return resp, err
}
