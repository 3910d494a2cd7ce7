package dist

import "gentrius/internal/obs"

// Metrics is the fleet instrument set, registered under gentriusd_fleet_*:
// aggregates over every job and shard (one shard's epoch, lease state and
// remaining mass are Coordinator.Status while its job runs, the trace's
// shard-dispatch/lease-expire events afterwards). The zero value discards
// every update — obs instruments are nil-safe — so callers can skip it.
type Metrics struct {
	// Coordinator side.
	WorkersLive      *obs.Gauge   // peers currently believed alive
	ShardsDispatched *obs.Counter // dispatch RPCs accepted (incl. re-dispatches)
	ShardsCompleted  *obs.Counter // shards merged into a job total
	LeaseExpiries    *obs.Counter // leases that ran out of heartbeats
	Fenced           *obs.Counter // stale heartbeats/results turned away
	HeartbeatsRecv   *obs.Counter // heartbeats accepted (current epoch)
	ParkedAdopted    *obs.Counter // parked results adopted at dispatch
	LocalFallbacks   *obs.Counter // shards finished locally (fleet at zero)

	// Worker side.
	ShardsAccepted    *obs.Counter // dispatches this node accepted
	HeartbeatFailures *obs.Counter // heartbeats that exhausted retries
	ResultsParked     *obs.Counter // results parked while orphaned
	ShardsFencedAway  *obs.Counter // local runs cancelled by a newer epoch
}

// NewMetrics registers the fleet instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		WorkersLive:      reg.Gauge("gentriusd_fleet_workers_live", "peer workers currently believed alive"),
		ShardsDispatched: reg.Counter("gentriusd_fleet_shards_dispatched_total", "shard dispatches accepted by peers (including re-dispatches)"),
		ShardsCompleted:  reg.Counter("gentriusd_fleet_shards_completed_total", "shards merged into job totals"),
		LeaseExpiries:    reg.Counter("gentriusd_fleet_lease_expiries_total", "shard leases expired after missed heartbeats"),
		Fenced:           reg.Counter("gentriusd_fleet_fenced_total", "stale-epoch heartbeats and results turned away"),
		HeartbeatsRecv:   reg.Counter("gentriusd_fleet_heartbeats_total", "current-epoch heartbeats accepted"),
		ParkedAdopted:    reg.Counter("gentriusd_fleet_parked_adopted_total", "parked results adopted at re-dispatch"),
		LocalFallbacks:   reg.Counter("gentriusd_fleet_local_fallback_total", "shards finished locally with the fleet at zero"),

		ShardsAccepted:    reg.Counter("gentriusd_fleet_worker_shards_accepted_total", "shard dispatches this node accepted"),
		HeartbeatFailures: reg.Counter("gentriusd_fleet_worker_heartbeat_failures_total", "heartbeats that exhausted their retries"),
		ResultsParked:     reg.Counter("gentriusd_fleet_worker_results_parked_total", "shard results parked while orphaned from the coordinator"),
		ShardsFencedAway:  reg.Counter("gentriusd_fleet_worker_fenced_total", "local shard runs cancelled by a newer epoch"),
	}
}
