package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/simnet"
)

// TestScenarioDeterministicAcrossWorkers is the serving layer's parity
// contract: the rows the HTTP API returns must be bit-identical to the
// CLI's for any worker count.
func TestScenarioDeterministicAcrossWorkers(t *testing.T) {
	cfg := DefaultScenario()
	cfg.N = 40
	cfg.Trials = 6
	base, err := RunScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) != cfg.Trials {
		t.Fatalf("got %d rows, want %d", len(base), cfg.Trials)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		c := cfg
		c.Workers = workers
		rows, err := RunScenario(c)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rows, base) {
			t.Fatalf("workers=%d rows differ from workers=0", workers)
		}
	}
}

func TestScenarioQueries(t *testing.T) {
	for _, query := range []string{"min", "count", "sum", "average"} {
		cfg := ScenarioConfig{N: 30, Query: query, Synopses: 50, Trials: 2, Seed: 5}
		rows, err := RunScenario(cfg)
		if err != nil {
			t.Fatalf("%s: %v", query, err)
		}
		for _, r := range rows {
			if r.Outcome != core.OutcomeResult.String() {
				t.Fatalf("%s trial %d: outcome %s, want result", query, r.Trial, r.Outcome)
			}
			if !r.Answered || r.Answer <= 0 {
				t.Fatalf("%s trial %d: unanswered honest run (answer=%g)", query, r.Trial, r.Answer)
			}
		}
	}
}

// TestScenarioRowsAlwaysJSONSafe: under heavy burst loss the base
// station can announce a minimum of +Inf (no sensor value survived the
// trip), and json.Marshal rejects non-finite floats — which used to turn
// a server job view into an empty 200 body. This seed reproduces the
// all-values-lost trial; the row must come back unanswered and the slice
// must marshal.
func TestScenarioRowsAlwaysJSONSafe(t *testing.T) {
	rows, err := RunScenario(ScenarioConfig{
		N: 40, Topology: "geometric", Query: "min", Attack: "none",
		Trials: 3, Seed: 19,
		Faults: &faults.Spec{Burst: &faults.BurstSpec{EnterProb: 0.1, ExitProb: 0.2, LossBad: 0.5}},
		ARQ:    &simnet.ARQConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(rows); err != nil {
		t.Fatalf("fault rows not JSON-safe: %v", err)
	}
	sawUnanswered := false
	for _, r := range rows {
		if !r.Answered {
			sawUnanswered = true
			if r.Answer != 0 {
				t.Fatalf("trial %d: unanswered row carries answer %v", r.Trial, r.Answer)
			}
		}
	}
	if !sawUnanswered {
		t.Fatal("seed no longer reproduces an all-values-lost trial; pick a new one")
	}
}

func TestScenarioValidate(t *testing.T) {
	bad := []ScenarioConfig{
		{N: 1, Topology: "line", Query: "min", Attack: "none", Synopses: 1, Trials: 1},
		{N: 10, Topology: "ring", Query: "min", Attack: "none", Synopses: 1, Trials: 1},
		{N: 10, Topology: "line", Query: "max", Attack: "none", Synopses: 1, Trials: 1},
		{N: 10, Topology: "line", Query: "min", Attack: "explode", Synopses: 1, Trials: 1},
		{N: 10, Topology: "line", Query: "min", Attack: "drop", Synopses: 1, Trials: 1},
		{N: 10, Topology: "line", Query: "min", Attack: "none", Synopses: 1, Trials: 0},
		{N: 10, Topology: "line", Query: "min", Attack: "none", Synopses: 1, Trials: 1, LossRate: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, cfg)
		}
	}
	good := DefaultScenario()
	good.Normalize()
	if err := good.Validate(); err != nil {
		t.Errorf("default scenario rejected: %v", err)
	}
}

// Validate accepts a grid n exactly when the grid topology holds n
// nodes: n=60 would lay out 8×8 = 64 and fail its first trial, so it is
// refused up front, while every n that runs today keeps running.
func TestScenarioValidateGridShape(t *testing.T) {
	for n := 2; n <= 400; n++ {
		cfg := ScenarioConfig{N: n, Topology: "grid", Query: "min", Attack: "none", Synopses: 1, Trials: 1}
		g, err := ScenarioTopology("grid", n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if verr := cfg.Validate(); (verr == nil) != (g.NumNodes() == n) {
			t.Errorf("n=%d: grid holds %d nodes, Validate = %v", n, g.NumNodes(), verr)
		}
	}
	for n, runs := range map[int]bool{56: true, 60: false, 64: true} {
		cfg := ScenarioConfig{N: n, Topology: "grid", Query: "min", Attack: "none", Synopses: 4, Trials: 1, Seed: 5}
		if _, err := RunScenario(cfg); (err == nil) != runs {
			t.Errorf("n=%d grid: RunScenario err = %v, want runs=%v", n, err, runs)
		}
	}
}

func TestScenarioCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := DefaultScenario()
	cfg.Context = ctx
	_, err := RunScenario(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScenarioTraceTagsTrials(t *testing.T) {
	cfg := ScenarioConfig{N: 20, Topology: "line", Query: "min", Attack: "none", Synopses: 1, Trials: 3, Seed: 9}
	var mu sync.Mutex
	seen := map[int]int{}
	cfg.Trace = func(trial int, ev core.Event) {
		mu.Lock()
		seen[trial]++
		mu.Unlock()
	}
	if _, err := RunScenario(cfg); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < cfg.Trials; trial++ {
		if seen[trial] == 0 {
			t.Fatalf("trial %d emitted no events (seen=%v)", trial, seen)
		}
	}
}
