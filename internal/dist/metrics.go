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
	LeaseExpiries    *obs.Counter // leases that ran out of heartbeats
	Fenced           *obs.Counter // stale heartbeats/results turned away

	// Worker side.
	ShardsAccepted    *obs.Counter // dispatches this node accepted
	HeartbeatFailures *obs.Counter // heartbeats that exhausted retries
}

// NewMetrics registers the fleet instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		WorkersLive:      reg.Gauge("gentriusd_fleet_workers_live", "peer workers currently believed alive"),
		ShardsDispatched: reg.Counter("gentriusd_fleet_shards_dispatched_total", "shard dispatches accepted by peers (including re-dispatches)"),
		LeaseExpiries:    reg.Counter("gentriusd_fleet_lease_expiries_total", "shard leases expired after missed heartbeats"),
		Fenced:           reg.Counter("gentriusd_fleet_fenced_total", "stale-epoch heartbeats and results turned away"),

		ShardsAccepted:    reg.Counter("gentriusd_fleet_worker_shards_accepted_total", "shard dispatches this node accepted"),
		HeartbeatFailures: reg.Counter("gentriusd_fleet_worker_heartbeat_failures_total", "heartbeats that exhausted their retries"),
	}
}
