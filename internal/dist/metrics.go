package dist

import (
	"fmt"

	"gentrius/internal/obs"
)

// Metrics is the fleet instrument set, registered under gentriusd_fleet_*.
// The zero value (and a nil *Metrics) discards every update — obs
// instruments are nil-safe — so tests and library callers can skip it.
type Metrics struct {
	// Coordinator side.
	WorkersLive      *obs.Gauge   // peers currently believed alive
	ShardsDispatched *obs.Counter // dispatch RPCs accepted (incl. re-dispatches)
	ShardsCompleted  *obs.Counter // shards merged into a job total
	LeaseExpiries    *obs.Counter // leases that ran out of heartbeats
	Redispatches     *obs.Counter // re-dispatches after lease expiry
	Speculative      *obs.Counter // speculative re-dispatches of stragglers
	Fenced           *obs.Counter // stale heartbeats/results turned away
	HeartbeatsRecv   *obs.Counter // heartbeats accepted (current epoch)
	ParkedAdopted    *obs.Counter // parked results adopted at dispatch
	LocalFallbacks   *obs.Counter // shards finished locally (fleet at zero)

	// Worker side.
	ShardsAccepted    *obs.Counter // dispatches this node accepted
	HeartbeatFailures *obs.Counter // heartbeats that exhausted retries
	ResultsParked     *obs.Counter // results parked while orphaned
	ShardsFencedAway  *obs.Counter // local runs cancelled by a newer epoch

	// Per-shard labelled families (gentriusd_fleet_shard_*), registered
	// on first use so the series set mirrors the shards that actually
	// exist. reg nil (the discard Metrics) skips them entirely.
	reg *obs.Registry
}

// NewMetrics registers the fleet instruments on reg.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		reg:              reg,
		WorkersLive:      reg.Gauge("gentriusd_fleet_workers_live", "peer workers currently believed alive"),
		ShardsDispatched: reg.Counter("gentriusd_fleet_shards_dispatched_total", "shard dispatches accepted by peers (including re-dispatches)"),
		ShardsCompleted:  reg.Counter("gentriusd_fleet_shards_completed_total", "shards merged into job totals"),
		LeaseExpiries:    reg.Counter("gentriusd_fleet_lease_expiries_total", "shard leases expired after missed heartbeats"),
		Redispatches:     reg.Counter("gentriusd_fleet_redispatches_total", "shards re-dispatched from their last durable checkpoint"),
		Speculative:      reg.Counter("gentriusd_fleet_speculative_redispatches_total", "straggler shards speculatively re-dispatched"),
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

// shardGauge returns one labelled per-shard gauge; the registry registers
// it on first use. Nil-safe: a discard Metrics (nil reg) returns a nil
// gauge, which every obs instrument treats as a no-op.
func (m *Metrics) shardGauge(name, help string) *obs.Gauge {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.Gauge(name, help)
}

// ShardEpoch is the shard's current fencing epoch.
func (m *Metrics) ShardEpoch(job string, shard int) *obs.Gauge {
	return m.shardGauge(
		fmt.Sprintf(`gentriusd_fleet_shard_epoch{job=%q,shard="%d"}`, job, shard),
		"current fencing epoch of one fleet shard")
}

// ShardState is the shard's lease state (0 pending, 1 leased, 2 done).
func (m *Metrics) ShardState(job string, shard int) *obs.Gauge {
	return m.shardGauge(
		fmt.Sprintf(`gentriusd_fleet_shard_state{job=%q,shard="%d"}`, job, shard),
		"lease state of one fleet shard (0 pending, 1 leased, 2 done)")
}

// ShardMass is the shard's Knuth-estimator remaining mass in ppm.
func (m *Metrics) ShardMass(job string, shard int) *obs.Gauge {
	return m.shardGauge(
		fmt.Sprintf(`gentriusd_fleet_shard_remaining_mass_ppm{job=%q,shard="%d"}`, job, shard),
		"Knuth-estimator remaining mass of one fleet shard, parts per million")
}

// ShardDispatches counts dispatches per (shard, epoch) — the epoch label
// makes re-dispatches after an epoch fence directly visible in /metrics
// (scripts/dist_recovery.sh asserts on it).
func (m *Metrics) ShardDispatches(job string, shard, epoch int) *obs.Counter {
	if m == nil || m.reg == nil {
		return nil
	}
	return m.reg.Counter(
		fmt.Sprintf(`gentriusd_fleet_shard_dispatches_total{job=%q,shard="%d",epoch="%d"}`, job, shard, epoch),
		"dispatches of one fleet shard, by fencing epoch")
}
