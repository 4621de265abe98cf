package core_test

import (
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// aggregationStartSlot probes a fault-free execution of the fixture and
// returns the network slot at which the aggregation phase begins.
func aggregationStartSlot(t *testing.T, f *fixture, seed uint64) int {
	t.Helper()
	start := -1
	cfg := f.config(seed)
	cfg.Trace = func(ev core.Event) {
		if ev.Kind == core.EventPhase && ev.Label == "aggregation" && start < 0 {
			start = ev.Slot
		}
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("probe run: %v", err)
	}
	if start < 0 {
		t.Fatal("probe run never reached the aggregation phase")
	}
	return start
}

// TestSubtreeRootCrashReturnsPartial is the acceptance scenario: on a
// line, node 1 is the root of the subtree holding every other sensor.
// Crashing it mid-aggregation must not hang the engine — it returns a
// result within its slot deadline, explicitly marked Partial with the
// orphaned subtree counted as unreachable.
func TestSubtreeRootCrashReturnsPartial(t *testing.T) {
	const n = 12
	f := newFixture(t, topology.Line(n), 901)
	aggStart := aggregationStartSlot(t, f, 901)

	cfg := f.config(901)
	cfg.Faults = &faults.Spec{Crashes: []faults.NodeEvent{{Node: 1, At: aggStart + 2}}}
	cfg.ARQ = &simnet.ARQConfig{}
	cfg.MaxSlots = aggStart + 4*(n+2) // generous for aggregation, tight overall
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	done := make(chan struct{})
	var out *core.Outcome
	go func() {
		defer close(done)
		out, err = eng.Run()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine hung after the subtree root crashed")
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Kind != core.OutcomeResult {
		t.Fatalf("outcome = %v, want a (partial) result", out.Kind)
	}
	if !out.Partial {
		t.Fatal("outcome not marked Partial although the whole subtree was cut off")
	}
	// Node 1 crashed and nodes 2..n-1 sit behind it.
	if out.Unreachable != n-1 {
		t.Fatalf("Unreachable = %d, want %d", out.Unreachable, n-1)
	}
	if out.Faults.Crashes != 1 {
		t.Fatalf("fault counters = %+v, want exactly one crash", out.Faults)
	}
	// The minimum fixed before the crash cannot include the orphaned
	// sensors' readings after node 1 stopped forwarding; whatever came
	// through, the engine must have stayed within its slot budget plus
	// the bounded confirmation/broadcast tail.
	if out.Slots > cfg.MaxSlots+4*(eng.L()+4) {
		t.Fatalf("Slots = %d, deadline %d not respected", out.Slots, cfg.MaxSlots)
	}
}

// TestDeadlineCheckpointReturnsEarly: an explicit tiny MaxSlots makes the
// post-aggregation checkpoint fire even without faults, returning the
// aggregated minima as a DeadlineExceeded partial result instead of
// running confirmation.
func TestDeadlineCheckpointReturnsEarly(t *testing.T) {
	f := newFixture(t, topology.Line(8), 17)
	cfg := f.config(17)
	cfg.MaxSlots = 1
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	out, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Kind != core.OutcomeResult || !out.DeadlineExceeded || !out.Partial {
		t.Fatalf("outcome = %+v, want a Partial DeadlineExceeded result", out)
	}
	if len(out.Mins) != 1 || math.IsInf(out.Mins[0], 1) {
		t.Fatalf("Mins = %v, want the aggregated minimum carried through", out.Mins)
	}
	if out.Unreachable != 0 {
		t.Fatalf("Unreachable = %d without faults, want 0", out.Unreachable)
	}
}

// TestDeadlineAbortsPinpointingToAlarm: when the budget expires before a
// junk-triggered walk finishes, the engine must abort to an alarm rather
// than revoke on timed-out predicate tests.
func TestDeadlineAbortsPinpointingToAlarm(t *testing.T) {
	f := newFixture(t, topology.Line(10), 33)
	aggStart := aggregationStartSlot(t, f, 33)
	cfg := f.config(33)
	cfg.Malicious = map[topology.NodeID]bool{5: true}
	cfg.Adversary = adversary.NewJunkInjector(1)
	cfg.L = 9                    // full line depth: the default honest depth stops before node 5
	cfg.MaxSlots = aggStart + 25 // expires during the first walk steps
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	out, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out.Kind != core.OutcomeAlarm {
		t.Fatalf("outcome = %v, want alarm after the deadline cut pinpointing short", out.Kind)
	}
	if !out.DeadlineExceeded || !out.Partial {
		t.Fatalf("outcome = %+v, want DeadlineExceeded and Partial set", out)
	}
	if len(out.RevokedKeys) != 0 || len(out.RevokedNodes) != 0 {
		t.Fatalf("revocations %v/%v performed under an expired deadline", out.RevokedKeys, out.RevokedNodes)
	}
}

// TestFaultyOutcomesAreDeterministic: the whole fault pipeline is seeded,
// so identical configurations reproduce identical degraded outcomes.
func TestFaultyOutcomesAreDeterministic(t *testing.T) {
	run := func() *core.Outcome {
		f := newFixture(t, topology.Grid(5, 5), 55)
		cfg := f.config(55)
		cfg.Faults = &faults.Spec{CrashProb: 0.01, RecoverProb: 0.1, LinkDownProb: 0.02, LinkUpProb: 0.2}
		cfg.ARQ = &simnet.ARQConfig{}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		out, err := eng.Run()
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return out
	}
	a, b := run(), run()
	if a.Kind != b.Kind || a.Slots != b.Slots || a.Unreachable != b.Unreachable ||
		a.Partial != b.Partial || a.Faults != b.Faults ||
		a.Stats.TotalBytes() != b.Stats.TotalBytes() ||
		a.Stats.Retransmits != b.Stats.Retransmits {
		t.Fatalf("equal seeds diverged:\n%+v\n%+v", a, b)
	}
}

// TestNoGoroutineLeakAfterDegradedRun is the core half of the
// goroutine-leak regression check: executions that end early on the
// deadline with concurrent step workers must leave no sensor goroutine
// behind.
func TestNoGoroutineLeakAfterDegradedRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := uint64(0); trial < 3; trial++ {
		f := newFixture(t, topology.Grid(5, 5), 70+trial)
		cfg := f.config(70 + trial)
		cfg.Faults = &faults.Spec{CrashProb: 0.02, RecoverProb: 0.1}
		cfg.ARQ = &simnet.ARQConfig{}
		cfg.MaxSlots = 40 // force the early-return path
		eng, err := core.NewEngine(cfg)
		if err != nil {
			t.Fatalf("NewEngine: %v", err)
		}
		if _, err := eng.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after degraded runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
