package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// testSpec is a small, fast scenario; distinct seeds give distinct
// content addresses.
func testSpec(seed uint64) experiments.ScenarioConfig {
	spec := experiments.ScenarioConfig{
		N: 12, Topology: "line", Query: "min", Attack: "none",
		Synopses: 8, Trials: 2, Seed: seed,
	}
	spec.Normalize()
	return spec
}

func newTestCoordinator(t *testing.T, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

// leaseUnit polls Lease until the worker receives a unit or the
// deadline passes.
func leaseUnit(t *testing.T, c *Coordinator, workerID string) Unit {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		unit, err := c.Lease(workerID)
		if err != nil {
			t.Fatalf("lease: %v", err)
		}
		if unit != nil {
			return *unit
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no unit leased within deadline")
	return Unit{}
}

// completeUnit executes the unit locally and reports a verified result.
func completeUnit(t *testing.T, c *Coordinator, workerID string, unit Unit) {
	t.Helper()
	rows, err := experiments.RunScenario(unit.Spec)
	if err != nil {
		t.Fatalf("run unit: %v", err)
	}
	raw, err := json.Marshal(rows)
	if err != nil {
		t.Fatalf("marshal rows: %v", err)
	}
	if err := c.Complete(CompleteRequest{
		WorkerID: workerID, UnitID: unit.ID, Key: unit.Key,
		Rows: raw, CRC32: crc32.ChecksumIEEE(raw),
	}); err != nil {
		t.Fatalf("complete: %v", err)
	}
}

type execResult struct {
	rows []experiments.ScenarioRow
	ok   bool
	err  error
}

func executeAsync(c *Coordinator, ctx context.Context, spec experiments.ScenarioConfig) chan execResult {
	ch := make(chan execResult, 1)
	go func() {
		rows, ok, err := c.Execute(ctx, spec)
		ch <- execResult{rows, ok, err}
	}()
	return ch
}

func TestExecuteNoWorkersFallsBack(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{})
	rows, ok, err := c.Execute(context.Background(), testSpec(1))
	if ok || err != nil || rows != nil {
		t.Fatalf("Execute with empty fleet = (%v, %v, %v), want (nil, false, nil)", rows, ok, err)
	}
}

func TestLeaseCompleteRoundTrip(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{Metrics: reg})
	w := c.Register(RegisterRequest{Name: "alpha"})

	spec := testSpec(2)
	res := executeAsync(c, context.Background(), spec)
	unit := leaseUnit(t, c, w.WorkerID)
	if unit.Key == "" {
		t.Fatal("leased unit has no content address")
	}
	completeUnit(t, c, w.WorkerID, unit)

	r := <-res
	if !r.ok || r.err != nil {
		t.Fatalf("Execute = (ok=%v, err=%v), want remote success", r.ok, r.err)
	}
	want, err := experiments.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.rows, want) {
		t.Fatal("remote rows differ from a local run of the same spec")
	}
	if v := reg.Counter(MetricLeasesGranted).Value(); v != 1 {
		t.Fatalf("leases granted = %d, want 1", v)
	}
	if v := reg.Counter(MetricUnitsCompleted + `{worker="alpha"}`).Value(); v != 1 {
		t.Fatalf("per-worker completions = %d, want 1", v)
	}
	if ws := c.WorkersStatus(); ws.Connected != 1 || ws.LeasesActive != 0 {
		t.Fatalf("status after completion = %+v", ws)
	}
}

func TestCompleteBadCRCCostsTheLease(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{Metrics: reg})
	w := c.Register(RegisterRequest{Name: "liar"})

	res := executeAsync(c, context.Background(), testSpec(3))
	unit := leaseUnit(t, c, w.WorkerID)
	rows, _ := experiments.RunScenario(unit.Spec)
	raw, _ := json.Marshal(rows)
	if err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, UnitID: unit.ID, Key: unit.Key,
		Rows: raw, CRC32: crc32.ChecksumIEEE(raw) + 1,
	}); err != nil {
		t.Fatalf("corrupt complete should be dropped, not errored: %v", err)
	}
	if v := reg.Counter(MetricResultsRejected + `{reason="crc"}`).Value(); v != 1 {
		t.Fatalf("crc rejections = %d, want 1", v)
	}
	// The unit went back to the queue: lease it again and finish it.
	unit2 := leaseUnit(t, c, w.WorkerID)
	if unit2.ID != unit.ID {
		t.Fatalf("requeued unit %s, leased %s", unit.ID, unit2.ID)
	}
	completeUnit(t, c, w.WorkerID, unit2)
	if r := <-res; !r.ok || r.err != nil {
		t.Fatalf("Execute after requeue = (ok=%v, err=%v)", r.ok, r.err)
	}
	if v := reg.Counter(MetricLeasesReassigned).Value(); v != 1 {
		t.Fatalf("reassignments = %d, want 1", v)
	}
}

func TestCompleteKeyMismatchRejected(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{Metrics: reg})
	w := c.Register(RegisterRequest{})

	res := executeAsync(c, context.Background(), testSpec(4))
	unit := leaseUnit(t, c, w.WorkerID)
	rows, _ := experiments.RunScenario(unit.Spec)
	raw, _ := json.Marshal(rows)
	if err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, UnitID: unit.ID, Key: "not-the-address",
		Rows: raw, CRC32: crc32.ChecksumIEEE(raw),
	}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter(MetricResultsRejected + `{reason="key"}`).Value(); v != 1 {
		t.Fatalf("key rejections = %d, want 1", v)
	}
	completeUnit(t, c, w.WorkerID, leaseUnit(t, c, w.WorkerID))
	if r := <-res; !r.ok || r.err != nil {
		t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
}

// An unsplit scenario's result, the range [0, Trials), must carry every
// trial, as any shard result must carry its range: a completion one row short costs the lease and
// the unit is requeued, instead of passing on a truncated scenario.
func TestCompleteWholeUnitWithTooFewRowsRejected(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{Metrics: reg})
	w := c.Register(RegisterRequest{Name: "short"})

	spec := testSpec(6)
	res := executeAsync(c, context.Background(), spec)
	unit := leaseUnit(t, c, w.WorkerID)
	want, err := experiments.RunScenario(unit.Spec)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := json.Marshal(want[:len(want)-1])
	if err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, UnitID: unit.ID, Key: unit.Key,
		Rows: raw, CRC32: crc32.ChecksumIEEE(raw),
	}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter(MetricResultsRejected + `{reason="range"}`).Value(); v != 1 {
		t.Fatalf("range rejections = %d, want 1", v)
	}
	unit2 := leaseUnit(t, c, w.WorkerID)
	if unit2.ID != unit.ID {
		t.Fatalf("requeued unit %s, leased %s", unit.ID, unit2.ID)
	}
	completeUnit(t, c, w.WorkerID, unit2)
	if r := <-res; !r.ok || r.err != nil || !reflect.DeepEqual(r.rows, want) {
		t.Fatalf("Execute after requeue = (ok=%v, err=%v, %d rows)", r.ok, r.err, len(r.rows))
	}
}

func TestRemoteExecutionErrorSurfaces(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{})
	w := c.Register(RegisterRequest{})

	res := executeAsync(c, context.Background(), testSpec(5))
	unit := leaseUnit(t, c, w.WorkerID)
	if err := c.Complete(CompleteRequest{
		WorkerID: w.WorkerID, UnitID: unit.ID, Key: unit.Key,
		Error: "synthetic failure",
	}); err != nil {
		t.Fatal(err)
	}
	r := <-res
	if !r.ok || r.err == nil {
		t.Fatalf("Execute = (ok=%v, err=%v), want owned failure", r.ok, r.err)
	}
}

func TestLeaseExpiryReassignsThenAbandons(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{
		LeaseTTL:    20 * time.Millisecond,
		WorkerTTL:   time.Hour, // keep the worker alive; only leases expire
		MaxAttempts: 2,
		Metrics:     reg,
	})
	w := c.Register(RegisterRequest{Name: "crashy"})

	res := executeAsync(c, context.Background(), testSpec(6))
	// Two leases, never heartbeat, never complete: the second expiry
	// exhausts the attempt budget and the unit falls back.
	leaseUnit(t, c, w.WorkerID)
	leaseUnit(t, c, w.WorkerID) // granted only after the first expires
	r := <-res
	if r.ok || r.err != nil {
		t.Fatalf("Execute after budget exhaustion = (ok=%v, err=%v), want local fallback", r.ok, r.err)
	}
	if v := reg.Counter(MetricLeasesExpired).Value(); v != 2 {
		t.Fatalf("expired leases = %d, want 2", v)
	}
	if v := reg.Counter(MetricLeasesReassigned).Value(); v != 1 {
		t.Fatalf("reassignments = %d, want 1 (the second expiry abandons)", v)
	}
	if v := reg.Counter(MetricUnitsAbandoned).Value(); v != 1 {
		t.Fatalf("abandoned units = %d, want 1", v)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{
		LeaseTTL:  40 * time.Millisecond,
		WorkerTTL: time.Hour,
	})
	w := c.Register(RegisterRequest{})

	res := executeAsync(c, context.Background(), testSpec(7))
	unit := leaseUnit(t, c, w.WorkerID)
	// Beat well past several TTLs; the lease must survive.
	for i := 0; i < 20; i++ {
		if err := c.Heartbeat(HeartbeatRequest{WorkerID: w.WorkerID, Units: []string{unit.ID}}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ws := c.WorkersStatus(); ws.LeasesActive != 1 || ws.LeasesExpired != 0 {
		t.Fatalf("lease did not survive heartbeats: %+v", ws)
	}
	completeUnit(t, c, w.WorkerID, unit)
	if r := <-res; !r.ok || r.err != nil {
		t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
}

func TestSilentWorkerExpires(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{
		LeaseTTL:          20 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		WorkerTTL:         30 * time.Millisecond,
		Metrics:           reg,
	})
	c.Register(RegisterRequest{Name: "ghost"})
	deadline := time.Now().Add(5 * time.Second)
	for c.WorkersStatus().Connected != 0 {
		if time.Now().After(deadline) {
			t.Fatal("silent worker never expired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := reg.Counter(MetricWorkersExpired).Value(); v != 1 {
		t.Fatalf("expired workers = %d, want 1", v)
	}
}

func TestExecuteContextCancelWithdrawsUnit(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{})
	w := c.Register(RegisterRequest{})

	ctx, cancel := context.WithCancel(context.Background())
	res := executeAsync(c, ctx, testSpec(8))
	cancel()
	r := <-res
	if !r.ok || !errors.Is(r.err, context.Canceled) {
		t.Fatalf("Execute = (ok=%v, err=%v), want owned cancellation", r.ok, r.err)
	}
	// The unit was withdrawn: nothing left to lease.
	unit, err := c.Lease(w.WorkerID)
	if err != nil || unit != nil {
		t.Fatalf("lease after withdrawal = (%v, %v), want no work", unit, err)
	}
}

func TestStaleCompletionCountedAndAcked(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{Metrics: reg})
	w := c.Register(RegisterRequest{})
	if err := c.Complete(CompleteRequest{WorkerID: w.WorkerID, UnitID: "u999999", Key: "k"}); err != nil {
		t.Fatalf("stale completion must be acked, got %v", err)
	}
	if v := reg.Counter(MetricResultsStale).Value(); v != 1 {
		t.Fatalf("stale completions = %d, want 1", v)
	}
}

// A unit whose lease expired sits in the pending queue when its
// original worker's valid completion arrives late. The completion wins
// (first-write-wins), and the finished unit must leave the pending
// queue: it must not be leasable again, must not leak an active lease,
// and a later Drain must not close its done channel a second time.
func TestLateCompletionOfRequeuedUnitFinishesIt(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{
		LeaseTTL:  20 * time.Millisecond,
		WorkerTTL: time.Hour,
		Metrics:   reg,
	})
	w := c.Register(RegisterRequest{Name: "slow"})

	res := executeAsync(c, context.Background(), testSpec(12))
	unit := leaseUnit(t, c, w.WorkerID)
	// Never heartbeat: wait for the lease to expire and the unit to be
	// requeued.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(MetricLeasesReassigned).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(time.Millisecond)
	}
	// The original worker finishes anyway; the valid result is accepted.
	completeUnit(t, c, w.WorkerID, unit)
	if r := <-res; !r.ok || r.err != nil {
		t.Fatalf("Execute = (ok=%v, err=%v), want late completion accepted", r.ok, r.err)
	}
	// The finished unit must be gone from the pending queue…
	if u2, err := c.Lease(w.WorkerID); err != nil || u2 != nil {
		t.Fatalf("finished unit leased again: (%v, %v)", u2, err)
	}
	// …and from the lease table.
	if ws := c.WorkersStatus(); ws.LeasesActive != 0 {
		t.Fatalf("leases active = %d after completion, want 0", ws.LeasesActive)
	}
	// Drain must not re-abandon (double-close) the finished unit.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatalf("drain after late completion: %v", err)
	}
}

// A stale worker (lease expired and reassigned) reporting a corrupt
// payload or an execution error must not release the current holder's
// lease, burn the unit's attempt budget, or terminate the unit under
// the worker now running it.
func TestStaleWorkerCompletionDoesNotDisturbCurrentHolder(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{
		LeaseTTL:  20 * time.Millisecond,
		WorkerTTL: time.Hour,
		Metrics:   reg,
	})
	w1 := c.Register(RegisterRequest{Name: "stale"})
	w2 := c.Register(RegisterRequest{Name: "fresh"})

	res := executeAsync(c, context.Background(), testSpec(13))
	unit := leaseUnit(t, c, w1.WorkerID)
	// w1 goes silent; the lease expires and w2 picks the unit up.
	unit2 := leaseUnit(t, c, w2.WorkerID)
	if unit2.ID != unit.ID {
		t.Fatalf("reassigned unit %s, leased %s", unit.ID, unit2.ID)
	}
	// Keep w2's lease alive for the rest of the test.
	stopBeat := make(chan struct{})
	defer close(stopBeat)
	go func() {
		for {
			select {
			case <-stopBeat:
				return
			case <-time.After(5 * time.Millisecond):
				c.Heartbeat(HeartbeatRequest{WorkerID: w2.WorkerID, Units: []string{unit.ID}})
			}
		}
	}()

	staleBefore := reg.Counter(MetricResultsStale).Value()
	// Stale w1 reports a CRC mismatch, then an execution error.
	rows, _ := experiments.RunScenario(unit.Spec)
	raw, _ := json.Marshal(rows)
	if err := c.Complete(CompleteRequest{
		WorkerID: w1.WorkerID, UnitID: unit.ID, Key: unit.Key,
		Rows: raw, CRC32: crc32.ChecksumIEEE(raw) + 1,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.Complete(CompleteRequest{
		WorkerID: w1.WorkerID, UnitID: unit.ID, Key: unit.Key,
		Error: "stale synthetic failure",
	}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(MetricResultsStale).Value() - staleBefore; got != 2 {
		t.Fatalf("stale completions = %d, want 2", got)
	}
	// w2 still holds the lease: the stale reports neither released it
	// nor requeued the unit.
	if ws := c.WorkersStatus(); ws.LeasesActive != 1 {
		t.Fatalf("leases active = %d after stale reports, want 1", ws.LeasesActive)
	}
	// w2's valid result wins; the stale error did not terminate the unit.
	completeUnit(t, c, w2.WorkerID, unit2)
	if r := <-res; !r.ok || r.err != nil {
		t.Fatalf("Execute = (ok=%v, err=%v), want current holder's success", r.ok, r.err)
	}
}

// Worker-supplied names are restricted to label-safe characters before
// they reach the worker="..." metric label.
func TestRegisterSanitizesWorkerName(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{Metrics: reg})
	w := c.Register(RegisterRequest{Name: "al\"pha}\nbeta{"})

	res := executeAsync(c, context.Background(), testSpec(14))
	completeUnit(t, c, w.WorkerID, leaseUnit(t, c, w.WorkerID))
	if r := <-res; !r.ok || r.err != nil {
		t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
	if v := reg.Counter(MetricUnitsCompleted + `{worker="alphabeta"}`).Value(); v != 1 {
		t.Fatalf("sanitized per-worker completions = %d, want 1", v)
	}
	// A name that sanitizes to nothing falls back to the assigned ID.
	w2 := c.Register(RegisterRequest{Name: "\"\n{}"})
	if ws := c.WorkersStatus(); ws.Connected != 2 {
		t.Fatalf("connected = %d, want 2", ws.Connected)
	}
	if w2.WorkerID == "" {
		t.Fatal("no worker ID assigned")
	}
}

// A fleet that shrinks to nothing hands the units it left pending back
// to the local pool once it has been empty for a WorkerTTL, instead of
// holding them for a worker that may never join.
func TestEmptiedFleetFallsBackToLocal(t *testing.T) {
	reg := metrics.New()
	c := newTestCoordinator(t, CoordinatorConfig{
		LeaseTTL:  400 * time.Millisecond,
		WorkerTTL: 200 * time.Millisecond,
		Metrics:   reg,
	})
	w := c.Register(RegisterRequest{Name: "leaver"})

	res := executeAsync(c, context.Background(), testSpec(15))
	leaseUnit(t, c, w.WorkerID)
	if err := c.Deregister(w.WorkerID); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.ok || r.err != nil {
			t.Fatalf("Execute after the fleet emptied = (ok=%v, err=%v), want local fallback", r.ok, r.err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("Execute still waiting 2s after the last worker left: %+v", c.WorkersStatus())
	}
	if v := reg.Counter(MetricUnitsAbandoned).Value(); v != 1 {
		t.Fatalf("abandoned groups = %d, want 1", v)
	}
}

func TestDrainAbandonsPendingAndWaitsInFlight(t *testing.T) {
	c := newTestCoordinator(t, CoordinatorConfig{WorkerTTL: time.Hour})
	w := c.Register(RegisterRequest{})

	// One unit in flight (leased), one pending behind it.
	inFlight := executeAsync(c, context.Background(), testSpec(9))
	unit := leaseUnit(t, c, w.WorkerID)
	pending := executeAsync(c, context.Background(), testSpec(10))

	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drainDone <- c.Drain(ctx)
	}()

	// The pending unit is handed back to the local pool immediately.
	if r := <-pending; r.ok {
		t.Fatalf("pending unit survived drain: ok=%v err=%v", r.ok, r.err)
	}
	select {
	case err := <-drainDone:
		t.Fatalf("drain returned (%v) before the in-flight lease finished", err)
	case <-time.After(30 * time.Millisecond):
	}
	// The worker reports its unit; drain completes.
	completeUnit(t, c, w.WorkerID, unit)
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if r := <-inFlight; !r.ok || r.err != nil {
		t.Fatalf("in-flight unit lost to drain: ok=%v err=%v", r.ok, r.err)
	}
	// Draining coordinators refuse new work.
	if _, ok, err := c.Execute(context.Background(), testSpec(11)); ok || err != nil {
		t.Fatalf("Execute while draining = (ok=%v, err=%v), want local fallback", ok, err)
	}
}

func TestCoordinatorCloseStopsGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		c := NewCoordinator(CoordinatorConfig{LeaseTTL: 20 * time.Millisecond})
		c.Register(RegisterRequest{})
		if err := c.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		c.Close()
		c.Close() // idempotent
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after coordinator lifecycles", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
