package dist

import (
	"fmt"
	"hash/fnv"

	"gentrius/internal/obs"
	"gentrius/internal/search"
)

// Fleet-trace plumbing: the coordinator mints one trace id per fleet run
// and stamps it on every RPC; each side derives a fixed-context recorder
// (obs.Recorder.With) so every event it emits — including the engine's
// task-begin/task-end spans on the worker hot path — carries the
// {trace, job, node} tags and {shard, epoch} fields that make N per-node
// JSONL traces joinable into one fleet timeline (tracereport.MergeFleet,
// cmd/obsreport -trace coord.jsonl,w1.jsonl,...).

// fleetTraceID derives the fleet-run trace id from the job id and the
// canonical input fingerprint. Deterministic on purpose: re-running the
// same job yields the same id, and the byte-identical golden fleet traces
// in CI stay byte-identical.
func fleetTraceID(jobID, fingerprint string) string {
	h := fnv.New64a()
	h.Write([]byte(jobID))
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return fmt.Sprintf("%016x", h.Sum64())
}

// massPPM renders a Knuth-estimator remaining-mass fraction as integer
// parts-per-million — trace fields and gauges are int64.
func massPPM(f float64) int64 {
	if f <= 0 {
		return 0
	}
	return int64(f * 1e6)
}

// checkpointMassPPM reads the remaining mass out of a frontier checkpoint
// (0 for nil — a terminal or absent frontier has nothing left).
func checkpointMassPPM(cp *search.Checkpoint) int64 {
	if cp == nil || cp.Frontier == nil {
		return 0
	}
	return massPPM(cp.Frontier.RemainingMass())
}

// shardTracer emits one shard epoch's worker-side lifecycle events. It
// wraps a derived recorder whose fixed context tags every event with
// {trace, job, node} and {shard, epoch}; the same recorder is threaded
// into the enumeration engine (gentrius.Options.Obs) so the shard's
// task-lineage spans land in the node trace already shard-tagged. All
// methods are nil-safe (a worker without tracing pays one branch).
type shardTracer struct {
	rec *obs.Recorder
}

// newShardTracer derives the shard-scoped recorder from the node's base
// recorder. The fixed slices are built once here, so per-event emission
// through the tracer (and through the engine) stays allocation-free.
func newShardTracer(base *obs.Recorder, node string, req *DispatchRequest) *shardTracer {
	return &shardTracer{rec: base.With(
		[]obs.SField{obs.S("trace", req.TraceID), obs.S("job", req.JobID), obs.S("node", node)},
		obs.F("shard", int64(req.Shard)), obs.F("epoch", int64(req.Epoch)),
	)}
}

// Begin marks lease acceptance: the shard run is about to resume from its
// dispatch checkpoint carrying massPPM of estimator mass.
func (st *shardTracer) Begin(massPPM int64) {
	st.rec.Emit(obs.EvShardBegin, -1, obs.F("mass_ppm", massPPM))
}

// Checkpoint marks one durable on-demand frontier snapshot.
func (st *shardTracer) Checkpoint(cp *search.Checkpoint) {
	if st.rec == nil || cp == nil {
		return
	}
	st.rec.Emit(obs.EvShardCheckpoint, -1,
		obs.F("trees", cp.Counters.StandTrees),
		obs.F("states", cp.Counters.IntermediateStates),
		obs.F("mass_ppm", checkpointMassPPM(cp)))
}

// HeartbeatSend marks one heartbeat leaving the worker (including ones a
// fault injector blackholes — the worker did send it). The seq matches the
// coordinator's shard-hb-recv event for the same heartbeat; unmatched
// sends are exactly the lost ones.
func (st *shardTracer) HeartbeatSend(seq, massPPM int64) {
	st.rec.Emit(obs.EvShardHeartbeat, -1, obs.F("seq", seq), obs.F("mass_ppm", massPPM))
}

// End marks the epoch's terminal state on this worker. outcome is one of
// done / orphaned / fenced / failed / cancelled; counters are the final
// since-dispatch totals when the run produced any.
func (st *shardTracer) End(outcome string, counters search.Counters) {
	st.rec.EmitTagged(obs.EvShardEnd, -1,
		[]obs.SField{obs.S("outcome", outcome)},
		obs.F("trees", counters.StandTrees),
		obs.F("states", counters.IntermediateStates))
}
