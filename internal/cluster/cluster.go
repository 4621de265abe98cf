// Package cluster is the distributed execution plane: a coordinator
// that lives inside vmat-server and a worker client (fronted by
// cmd/vmat-worker) that turns N processes — on one machine or many —
// into one fleet executing scenario work units.
//
// The design transplants the repository's fault-tolerance vocabulary
// (fail-stop crash, bounded retries, graceful degradation) from the
// simulated sensor network up to the serving layer:
//
//   - Workers register over HTTP, which hands out the address of the
//     streaming transport (internal/wire), and then claim
//     content-addressed work units via time-bounded leases over one
//     persistent conn carrying batched grants, streamed completions,
//     and piggybacked heartbeats.
//   - Every unit is a trial range of a scenario (internal/shard): with
//     sharding on (CoordinatorConfig.ShardTrials > 0) a scenario is
//     split into ranges of at most ShardTrials trials, and otherwise it
//     is the one range [0, Trials). The coordinator merges completed
//     rows back in trial order and returns only the whole assembled
//     scenario. It holds no store and no log: the job manager that
//     called Execute stores the rows, so a partial assembly can never
//     reach the store.
//   - A heartbeat extends a worker's leases; a lease that outlives its
//     TTL (worker crash, network partition, missed heartbeats) is
//     reassigned to the queue with a bounded attempt budget.
//   - Completed results echo the unit's content address and a CRC32 of
//     the encoded rows, and must carry exactly the trial indices of
//     their range. The coordinator verifies all of it before accepting
//     a result.
//   - Because every unit is a pure function of its spec, and the store
//     is first-write-wins, results are bit-identical no matter how many
//     workers run, crash, or duplicate work — the end-to-end test in
//     this package pins a sweep's CSV export across 0 workers (local
//     fallback), 1 worker, and sharded fleets with one killed mid-sweep.
//
// The coordinator implements service.Executor: the job manager
// dispatches execution through it when cluster mode is on and falls
// back to the local pool whenever the fleet cannot take a unit (no
// workers connected, coordinator draining, retry budget exhausted, or
// the last worker gone for a WorkerTTL), so enabling the plane can
// never strand work.
package cluster

import (
	"encoding/json"
	"errors"
	"time"

	"repro/internal/shard"
)

// Metric names the cluster plane reports. Per-worker completions carry
// a worker label (the worker's registered name, stable across
// restarts); result rejections carry a reason label.
const (
	MetricWorkersConnected = "cluster_workers_connected"
	MetricLeasesActive     = "cluster_leases_active"
	MetricLeasesGranted    = "cluster_leases_granted_total"
	MetricLeasesExpired    = "cluster_leases_expired_total"
	MetricLeasesReassigned = "cluster_leases_reassigned_total"
	MetricUnitsCompleted   = "cluster_units_completed_total"
	MetricUnitsAbandoned   = "cluster_units_abandoned_total"
	MetricResultsRejected  = "cluster_results_rejected_total"
	MetricResultsStale     = "cluster_results_stale_total"
	MetricWorkersExpired   = "cluster_workers_expired_total"
	// MetricHeartbeatGap observes the microseconds between consecutive
	// heartbeats from the same worker — the operational signal for
	// late heartbeats before they become expired leases.
	MetricHeartbeatGap = "cluster_heartbeat_gap_us"
	// MetricShardsPlanned counts the units of scenarios split into more
	// than one (a scenario leased as one unit is not counted — watch
	// leases_granted for those).
	MetricShardsPlanned = "cluster_shards_planned_total"
	// MetricShardsMerged counts verified results of those units merged
	// into their parent scenario's assembly.
	MetricShardsMerged = "cluster_shards_merged_total"
	// MetricScenariosAssembled counts split scenarios whose every unit
	// merged, i.e. completed sharded Execute calls.
	MetricScenariosAssembled = "cluster_scenarios_assembled_total"
)

// ErrUnknownWorker is returned to a worker the coordinator does not
// know (never registered, expired for missed heartbeats, or the server
// restarted). The worker client re-registers and carries on.
var ErrUnknownWorker = errors.New("cluster: unknown worker")

// ErrAborted is returned by Worker.Run when the test-only Abort channel
// closes: the simulated fail-stop crash, mid-unit, with no completion
// report and no deregistration.
var ErrAborted = errors.New("cluster: worker aborted (simulated crash)")

// Unit is one leased piece of work: a fully normalized scenario spec,
// the trial range this unit covers, the parent scenario's address and
// the unit's own content address, shard.Key(parent, start, end). The
// key doubles as the integrity anchor: a completing worker must echo
// it, and the coordinator recomputes nothing it cannot check. Unit is
// the shard descriptor itself, so the wire grants and the planner speak
// the same type.
type Unit = shard.Descriptor

// JSON types for the /v1/cluster API and the wire payloads. Durations
// travel as nanoseconds (Go's time.Duration JSON form); the protocol is
// internal to the two binaries in this repository, both stamped from
// the same build, and the wire magic changes whenever a payload does.

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Name    string `json:"name"`
	Version string `json:"version,omitempty"`
}

// RegisterResponse assigns the worker its identity and cadence.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTL is how long a granted lease lives without a heartbeat.
	LeaseTTL time.Duration `json:"lease_ttl"`
	// Heartbeat is the interval the worker must beat at over its conn.
	Heartbeat time.Duration `json:"heartbeat"`
	// Wire is the coordinator's streaming-transport address
	// (host:port). The worker opens one persistent conn there and gets,
	// holds and reports every unit over it; a worker offered none exits
	// with an error.
	Wire string `json:"wire,omitempty"`
}

// HeartbeatRequest renews the worker's liveness and extends the leases
// it still holds.
type HeartbeatRequest struct {
	WorkerID string   `json:"worker_id"`
	Units    []string `json:"units,omitempty"`
}

// CompleteRequest reports a finished unit. Rows is the JSON encoding of
// the []experiments.ScenarioRow result; CRC32 is the IEEE checksum of
// exactly those bytes, and Key must echo the unit's content address.
// Error, when non-empty, reports a deterministic execution failure
// (the rows are absent and the unit completes as failed, same as a
// local execution would).
type CompleteRequest struct {
	WorkerID string          `json:"worker_id"`
	UnitID   string          `json:"unit_id"`
	Key      string          `json:"key"`
	Rows     json.RawMessage `json:"rows,omitempty"`
	CRC32    uint32          `json:"crc32"`
	Error    string          `json:"error,omitempty"`
}

// DeregisterRequest announces a graceful exit when no wire session is
// up to carry a Bye; any lease the worker still holds is requeued.
type DeregisterRequest struct {
	WorkerID string `json:"worker_id"`
}

// Streaming-transport payloads. The frame layer (internal/wire) moves
// opaque typed payloads; every one of them is JSON. Hello/HelloAck/Want
// are small control messages; Grant carries a shard.EncodeBatch of
// units (a JSON array of descriptors); Complete and Heartbeat carry a
// CompleteRequest and a HeartbeatRequest.

// helloPayload opens a worker's conn with its registered identity.
type helloPayload struct {
	WorkerID string `json:"worker_id"`
}

// helloAckPayload accepts or rejects the Hello. A rejected worker
// (coordinator restarted, worker expired) re-registers over HTTP and
// reconnects with its new identity. The cadence is not repeated here:
// the worker learned it once, from RegisterResponse.
type helloAckPayload struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
}

// wantPayload advertises how many more units the worker can take; the
// coordinator pushes Grant frames until the demand is satisfied.
type wantPayload struct {
	N int `json:"n"`
}
