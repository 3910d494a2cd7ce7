// Package dist shards one stand enumeration across a fleet of gentriusd
// nodes, built on the frontier-snapshot primitive from the checkpoint/resume
// work: a coordinator deals the job's root frontier's tasks in order into
// coarse shards (shard s of k holds tasks s, s+k, …) and dispatches each to
// a peer worker, which resumes it exactly as it would resume a local
// checkpoint.
//
// Robustness is the first-class design axis. The failure model:
//
//   - Leases & heartbeats. Every dispatched shard carries a lease; the
//     worker renews it by heartbeating, and each heartbeat piggybacks the
//     shard's latest frontier checkpoint (counters measured SINCE dispatch)
//     plus the stand trees found since the last heartbeat the coordinator
//     answered, up to that checkpoint's tree counter. A missed lease
//     expires the shard and the coordinator re-dispatches it — from the
//     last checkpoint, so recovery is resume-not-replay.
//
//   - Epoch fencing & exactly-once merge. Each (re-)dispatch increments
//     the shard's epoch. The coordinator records, per epoch, the counters
//     and the length of the shard's tree log already accounted before that
//     epoch started; a checkpoint is accepted only from the CURRENT epoch
//     (mixing lineages would double-count), while a completed result is
//     accepted from ANY known epoch — first completion wins, so a worker
//     whose lease expired while it kept computing and its replacement
//     cannot both contribute. Stale peers learn they are fenced from the
//     heartbeat/result response and cancel.
//
//   - One retry: the resume. A shard whose worker is lost — dead, orphaned
//     (it cancels its run after orphanAfter failed heartbeats) or unable to
//     deliver its result — resumes from its last accepted checkpoint when
//     its lease expires. A shard whose run fails reports the failure in its
//     result, and the job fails once with it.
//
//   - One tree log per shard (treeLog), on the worker and on the
//     coordinator. A tree crosses the wire once; what arrives is put behind
//     the cut it names, so a message sent twice or a late result overwrites.
//
//   - Retry/backoff with jitter on every RPC (internal/retry, the same
//     policy the daemon's persistence paths use), with rpcsend/rpcrecv/
//     heartbeat fault-injection sites for deterministic drills.
//
//   - One kind of worker. The coordinator holds an in-process Worker,
//     "local", as its last peer, picked only while no configured peer is
//     alive: a fleet at zero peers is a fleet of one, whose shards take the
//     same leases, heartbeats, fencing and merge as any.
//
// Time is abstracted behind Clock so the whole protocol runs deterministically
// under the tests' VirtualClock before any real network exists.
package dist

import "time"

// Clock abstracts time for the lease/heartbeat protocol.
// The tests' VirtualClock implements it deterministically; RealClock is the
// wall-clock implementation.
type Clock interface {
	Now() time.Time
	After(d time.Duration) <-chan time.Time
	// Until is After for an absolute deadline: the channel receives once the
	// clock reaches t, at once when it already has. A caller that derived t
	// from an earlier Now is not late by however far the clock moved since.
	Until(t time.Time) <-chan time.Time
	Sleep(d time.Duration)
}

// RealClock is the wall-clock Clock.
type RealClock struct{}

func (RealClock) Now() time.Time                         { return time.Now() }
func (RealClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (RealClock) Until(t time.Time) <-chan time.Time     { return time.After(time.Until(t)) }
func (RealClock) Sleep(d time.Duration)                  { time.Sleep(d) }

// Protocol defaults.
const (
	DefaultLeaseTTL       = 10 * time.Second
	DefaultHeartbeatEvery = 2 * time.Second
)
