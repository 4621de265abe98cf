package cluster

import (
	"context"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
)

// shardSpec is testSpec with a controllable trial count, so the
// planner produces a known number of shards.
func shardSpec(seed uint64, trials int) experiments.ScenarioConfig {
	spec := experiments.ScenarioConfig{
		N: 12, Topology: "line", Query: "min", Attack: "none",
		Synopses: 8, Trials: trials, Seed: seed,
	}
	spec.Normalize()
	return spec
}

// completeShardUnit executes a unit via its own Run (the trial range
// when sharded) and reports a verified result.
func completeShardUnit(t *testing.T, c *Coordinator, workerID string, unit Unit) {
	t.Helper()
	rows, err := unit.Run()
	if err != nil {
		t.Fatalf("run unit %s: %v", unit.ID, err)
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(CompleteRequest{
		WorkerID: workerID, UnitID: unit.ID, Key: unit.Key,
		Rows: raw, CRC32: crc32.ChecksumIEEE(raw),
	}); err != nil {
		t.Fatalf("complete %s: %v", unit.ID, err)
	}
}

// A sharded Execute plans trial-range units that assemble — in trial
// order — into exactly the rows a whole local run produces, no matter
// what order the shards complete in.
func TestShardedExecuteMergesOutOfOrder(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{ShardTrials: 2, WorkerTTL: time.Hour, Metrics: reg})
	w := c.Register(RegisterRequest{Name: "shardy"})

	spec := shardSpec(50, 6)
	res := executeAsync(c, context.Background(), spec)
	units := make([]Unit, 3)
	for i := range units {
		units[i] = leaseUnit(t, c, w.WorkerID)
		if !units[i].Sharded() {
			t.Fatalf("unit %d is not a shard: %+v", i, units[i])
		}
		if units[i].Parent == "" || units[i].Key == units[i].Parent {
			t.Fatalf("shard %d key/parent malformed: %+v", i, units[i])
		}
	}
	covered := 0
	for _, u := range units {
		covered += u.End - u.Start
	}
	if covered != spec.Trials {
		t.Fatalf("shards cover %d trials, want %d", covered, spec.Trials)
	}
	// Complete in reverse: assembly must not depend on arrival order.
	for i := len(units) - 1; i >= 0; i-- {
		completeShardUnit(t, c, w.WorkerID, units[i])
	}

	r := <-res
	if !r.ok || r.err != nil {
		t.Fatalf("sharded Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
	want, err := experiments.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.rows, want) {
		t.Fatal("assembled rows differ from a whole local run")
	}
	if v := reg.Counter(MetricShardsPlanned).Value(); v != 3 {
		t.Fatalf("shards planned = %d, want 3", v)
	}
	if v := reg.Counter(MetricShardsMerged).Value(); v != 3 {
		t.Fatalf("shards merged = %d, want 3", v)
	}
	if v := reg.Counter(MetricScenariosAssembled).Value(); v != 1 {
		t.Fatalf("scenarios assembled = %d, want 1", v)
	}
	if u, err := c.Lease(w.WorkerID); err != nil || u != nil {
		t.Fatalf("lease after assembly = (%v, %v), want no work", u, err)
	}
}

// One shard failing deterministically fails the whole scenario — the
// error surfaces from Execute as an owned failure and the sibling
// shards are withdrawn.
func TestShardErrorFailsWholeScenario(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{ShardTrials: 2, WorkerTTL: time.Hour})
	w := c.Register(RegisterRequest{})

	res := executeAsync(c, context.Background(), shardSpec(51, 6))
	u := leaseUnit(t, c, w.WorkerID)
	if err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, UnitID: u.ID, Key: u.Key,
		Error: "synthetic shard failure",
	}); err != nil {
		t.Fatal(err)
	}
	r := <-res
	if !r.ok || r.err == nil {
		t.Fatalf("Execute = (ok=%v, err=%v), want owned failure", r.ok, r.err)
	}
	if u2, err := c.Lease(w.WorkerID); err != nil || u2 != nil {
		t.Fatalf("sibling shard still leasable after group failure: (%v, %v)", u2, err)
	}
}

// A shard that exhausts its lease budget abandons the whole scenario:
// the waiting Execute falls back to the local pool and the sibling
// shards are withdrawn (a scenario missing one shard can never
// assemble).
func TestShardBudgetExhaustionAbandonsWholeScenario(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{
		ShardTrials: 2,
		LeaseTTL:    20 * time.Millisecond,
		WorkerTTL:   time.Hour,
		MaxAttempts: 1,
		Metrics:     reg,
	})
	w := c.Register(RegisterRequest{Name: "crashy"})

	res := executeAsync(c, context.Background(), shardSpec(52, 4))
	leaseUnit(t, c, w.WorkerID) // never heartbeat; the only permitted attempt
	r := <-res
	if r.ok || r.err != nil {
		t.Fatalf("Execute after shard budget exhaustion = (ok=%v, err=%v), want local fallback", r.ok, r.err)
	}
	if v := reg.Counter(MetricUnitsAbandoned).Value(); v != 1 {
		t.Fatalf("abandoned groups = %d, want 1", v)
	}
	if u, err := c.Lease(w.WorkerID); err != nil || u != nil {
		t.Fatalf("sibling shard survived group abandonment: (%v, %v)", u, err)
	}
}

// The store sees a sharded scenario exactly once, assembled, under the
// parent scenario's address — never under a shard's address, never
// partially. The coordinator holds no store: the job manager that
// dispatched the scenario to it writes the assembled rows back.
func TestShardedStoreWriteBackUnderParentKey(t *testing.T) {
	reg := metrics.New()
	st, err := store.Open(t.TempDir(), store.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	c := newTestCoordinator(t, CoordinatorConfig{ShardTrials: 2, WorkerTTL: time.Hour})
	mgr := service.New(service.Config{Workers: 1, Store: st, Cluster: c})
	defer mgr.Drain(context.Background())
	w := c.Register(RegisterRequest{})

	spec := shardSpec(53, 4)
	job, err := mgr.Submit(service.Spec{ScenarioConfig: spec})
	if err != nil {
		t.Fatal(err)
	}
	first := leaseUnit(t, c, w.WorkerID)
	completeShardUnit(t, c, w.WorkerID, first)
	// Half-assembled: nothing may be in the store yet.
	if rows, okS, err := st.GetScenario(spec); okS || err != nil || rows != nil {
		t.Fatalf("store has a partial assembly: (%v, %v, %v)", rows, okS, err)
	}
	second := leaseUnit(t, c, w.WorkerID)
	completeShardUnit(t, c, w.WorkerID, second)
	waitFor(t, job.Done(), "the sharded job")
	if job.Status() != service.StatusDone {
		t.Fatalf("job ended %s: %s", job.Status(), job.Err())
	}

	got, okS, err := st.GetScenario(spec)
	if err != nil || !okS {
		t.Fatalf("assembled scenario missing from store: (ok=%v, err=%v)", okS, err)
	}
	if !reflect.DeepEqual(got, job.Rows()) {
		t.Fatal("store rows differ from the assembled job rows")
	}
	if v := reg.Counter(store.MetricPuts).Value(); v != 1 {
		t.Fatalf("store puts = %d, want 1 (the assembled scenario)", v)
	}
	for _, u := range []Unit{first, second} {
		if st.Has(u.Key) {
			t.Fatalf("shard key %.12s leaked into the store", u.Key)
		}
	}
}
