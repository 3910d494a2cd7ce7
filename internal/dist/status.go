package dist

import (
	"slices"
	"strings"
)

// Live fleet introspection: the coordinator exposes the same picture
// obsreport reconstructs post-hoc from the nodes' traces — per-peer
// liveness and per-shard lease/epoch/estimator state — as one JSON snapshot
// (GET /v1/fleet/status in gentriusd) and a compact summary for /healthz.

// PeerStatus is one worker endpoint as the coordinator sees it.
type PeerStatus struct {
	Name  string `json:"name"`
	Alive bool   `json:"alive"`
	// LastHeartbeatAgeSeconds is how long ago this peer's last accepted
	// heartbeat arrived; negative when it has never heartbeated.
	LastHeartbeatAgeSeconds float64 `json:"last_heartbeat_age_seconds"`
	// ActiveLeases counts shards currently leased to the peer across jobs.
	ActiveLeases int `json:"active_leases"`
}

// ShardStatus is one shard's lease lineage state.
type ShardStatus struct {
	Shard int    `json:"shard"`
	State string `json:"state"` // pending | leased | done
	Epoch int    `json:"epoch"`
	Peer  string `json:"peer,omitempty"` // holder when leased
	// LeaseRemainingSeconds is the time left before the lease expires
	// (leased shards only; omitted otherwise).
	LeaseRemainingSeconds float64 `json:"lease_remaining_seconds,omitempty"`
	// RemainingMassPPM is the Knuth-estimator mass still outstanding, and
	// EstimatorFraction the same as a fraction of the shard's starting
	// mass (1 = untouched, 0 = finished).
	RemainingMassPPM  int64   `json:"remaining_mass_ppm"`
	EstimatorFraction float64 `json:"estimator_fraction"`
}

// JobStatus is one running job's shard topology.
type JobStatus struct {
	Job     string        `json:"job"`
	TraceID string        `json:"trace_id"`
	Shards  []ShardStatus `json:"shards"`
}

// FleetStatus is the coordinator's live topology snapshot.
type FleetStatus struct {
	CoordURL string       `json:"coord_url,omitempty"`
	Peers    []PeerStatus `json:"peers"`
	Jobs     []JobStatus  `json:"jobs"`
}

var shardStateNames = [...]string{"pending", "leased", "done"}

// Status snapshots the fleet: every peer's liveness and lease load, and
// every running job's per-shard epoch/lease/estimator state.
func (c *Coordinator) Status() *FleetStatus {
	now := c.cfg.Clock.Now()

	c.mu.Lock()
	peers := make([]PeerStatus, len(c.peers))
	for p := range c.peers {
		age := -1.0
		if !c.lastHB[p].IsZero() {
			age = now.Sub(c.lastHB[p]).Seconds()
		}
		peers[p] = PeerStatus{
			Name:                    c.peerName(p),
			Alive:                   c.alive[p],
			LastHeartbeatAgeSeconds: age,
		}
	}
	jobs := make([]*fleetJob, 0, len(c.jobs))
	for _, j := range c.jobs {
		jobs = append(jobs, j)
	}
	c.mu.Unlock()

	// The local worker's leases are listed on its shards, not as a peer.
	st := &FleetStatus{CoordURL: c.cfg.CoordURL, Peers: peers[:c.local], Jobs: []JobStatus{}}
	for _, job := range jobs {
		job.mu.Lock()
		js := JobStatus{Job: job.id, TraceID: job.stats.TraceID}
		for _, s := range job.shards {
			ss := ShardStatus{
				Shard:            s.idx,
				State:            shardStateNames[s.status],
				Epoch:            s.epoch,
				RemainingMassPPM: massPPM(s.latestMass),
			}
			if s.initialMass > 0 {
				ss.EstimatorFraction = s.latestMass / s.initialMass
			}
			if s.status == shardLeased {
				ss.Peer = c.peerName(s.peer)
				if d := s.deadline.Sub(now); d > 0 {
					ss.LeaseRemainingSeconds = d.Seconds()
				}
				peers[s.peer].ActiveLeases++
			}
			js.Shards = append(js.Shards, ss)
		}
		job.mu.Unlock()
		st.Jobs = append(st.Jobs, js)
	}
	// Deterministic order for tests and operators alike.
	slices.SortFunc(st.Jobs, func(a, b JobStatus) int { return strings.Compare(a.Job, b.Job) })
	return st
}

// FleetHealth is the /healthz summary of a fleet role.
type FleetHealth struct {
	Role  string `json:"role"` // coordinator | worker
	Peers int    `json:"peers,omitempty"`
	// PeerHeartbeatAgeSeconds maps peer name → age of its last accepted
	// heartbeat (-1: never heard from). Coordinator role only.
	PeerHeartbeatAgeSeconds map[string]float64 `json:"peer_heartbeat_age_seconds,omitempty"`
	// ActiveShards is how many shard leases this node is executing
	// (worker role; a coordinator that also accepts leases reports both).
	ActiveShards int `json:"active_shards,omitempty"`
	// TraceIDs lists the fleet-run trace ids of running jobs.
	TraceIDs []string `json:"trace_ids,omitempty"`
}

// Health summarizes the coordinator for /healthz.
func (c *Coordinator) Health() *FleetHealth {
	st := c.Status()
	fh := &FleetHealth{
		Role:                    "coordinator",
		Peers:                   len(st.Peers),
		PeerHeartbeatAgeSeconds: map[string]float64{},
	}
	for _, p := range st.Peers {
		fh.PeerHeartbeatAgeSeconds[p.Name] = p.LastHeartbeatAgeSeconds
	}
	for _, j := range st.Jobs {
		fh.TraceIDs = append(fh.TraceIDs, j.TraceID)
	}
	slices.Sort(fh.TraceIDs)
	return fh
}

// Health summarizes a worker for /healthz. Every gentriusd is a fleet
// worker (it accepts leases on /v1/shards), so this is the baseline every
// node reports; a coordinator's Health supersedes it.
func (w *Worker) Health() *FleetHealth {
	return &FleetHealth{Role: "worker", ActiveShards: w.ActiveShards()}
}
