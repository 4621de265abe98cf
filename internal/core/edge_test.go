package core_test

import (
	"math"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/keydist"
	"repro/internal/topology"
)

func TestAlarmOnlyDetectsButDoesNotRevoke(t *testing.T) {
	f := newFixture(t, bypassGraph(), 90)
	f.readings[4] = 1
	cfg := f.config(90)
	cfg.Malicious = maliciousSet(2)
	cfg.Adversary = adversary.NewDropper(50)
	cfg.AlarmOnly = true
	out := run(t, cfg)
	if out.Kind != core.OutcomeAlarm {
		t.Fatalf("outcome = %v, want alarm", out.Kind)
	}
	if len(out.RevokedKeys) != 0 || len(out.RevokedNodes) != 0 {
		t.Fatalf("alarm-only run revoked: keys %v nodes %v", out.RevokedKeys, out.RevokedNodes)
	}
	if out.PredicateTests != 0 {
		t.Fatalf("alarm-only run ran %d predicate tests", out.PredicateTests)
	}
	if out.Veto == nil {
		t.Fatal("alarm carried no veto")
	}
}

func TestAlarmOnlyJunkDetection(t *testing.T) {
	f := newFixture(t, topology.Grid(3, 4), 91)
	cfg := f.config(91)
	cfg.Malicious = maliciousSet(7)
	cfg.Adversary = adversary.NewJunkInjector(-1000)
	cfg.AlarmOnly = true
	out := run(t, cfg)
	if out.Kind != core.OutcomeAlarm {
		t.Fatalf("outcome = %v, want alarm", out.Kind)
	}
}

func TestRevokedSensorIsCutOff(t *testing.T) {
	// Wholly revoking a sensor makes honest receivers ignore it: a
	// revoked cut vertex partitions its subtree out of the aggregate
	// (the paper's component semantics).
	f := newFixture(t, topology.Line(4), 92)
	registry := keydist.NewRegistry(f.dep, 0)
	registry.RevokeNode(2)
	cfg := f.config(92)
	cfg.Registry = registry
	cfg.L = 3 // the honest component is 0-1; keep L covering the old depth
	out := run(t, cfg)
	if out.Kind != core.OutcomeResult {
		t.Fatalf("outcome = %v", out.Kind)
	}
	// Only node 1's reading can arrive: 2 is revoked, 3 sits behind it.
	if out.Mins[0] != f.readings[1] {
		t.Fatalf("min = %g, want %g (only node 1 reachable)", out.Mins[0], f.readings[1])
	}
}

func TestRevokedEdgeKeyForcesFallback(t *testing.T) {
	// Revoking the canonical edge key between two honest neighbors makes
	// them fall back to their next shared key — traffic still flows.
	f := newFixture(t, topology.Line(3), 93)
	shared := f.dep.SharedIndices(1, 2)
	if len(shared) < 2 {
		t.Skip("fixture pair shares fewer than 2 keys")
	}
	registry := keydist.NewRegistry(f.dep, 0)
	registry.RevokeKey(shared[0])
	cfg := f.config(93)
	cfg.Registry = registry
	out := run(t, cfg)
	if out.Kind != core.OutcomeResult {
		t.Fatalf("outcome = %v", out.Kind)
	}
	if want := f.trueMin(nil); out.Mins[0] != want {
		t.Fatalf("min = %g, want %g", out.Mins[0], want)
	}
}

func TestAllSharedKeysRevokedSeversLink(t *testing.T) {
	f := newFixture(t, topology.Line(3), 94)
	registry := keydist.NewRegistry(f.dep, 0)
	for _, idx := range f.dep.SharedIndices(1, 2) {
		registry.RevokeKey(idx)
	}
	cfg := f.config(94)
	cfg.Registry = registry
	out := run(t, cfg)
	if out.Kind != core.OutcomeResult {
		t.Fatalf("outcome = %v", out.Kind)
	}
	if out.Mins[0] != f.readings[1] {
		t.Fatalf("min = %g, want %g (node 2 unreachable without keys)", out.Mins[0], f.readings[1])
	}
}

func TestMultiInstanceVetoPicksOffendingInstance(t *testing.T) {
	// Only instance 2's minimum crosses the dropper; the veto must carry
	// that instance.
	f := newFixture(t, bypassGraph(), 95)
	cfg := f.config(95)
	cfg.Malicious = maliciousSet(2)
	cfg.Adversary = adversary.NewDropper(50)
	cfg.Instances = 4
	cfg.Readings = func(id topology.NodeID, inst int) float64 {
		if id == topology.BaseStation {
			return core.Inf()
		}
		if id == 4 && inst == 2 {
			return 1 // only this instance has a droppable minimum at the vetoer
		}
		return 100 + float64(10*inst) + float64(id)
	}
	out := run(t, cfg)
	if out.Kind != core.OutcomeVetoRevocation {
		t.Fatalf("outcome = %v", out.Kind)
	}
	if out.Veto.Instance != 2 || out.Veto.Value != 1 {
		t.Fatalf("veto = %+v, want instance 2 value 1", out.Veto)
	}
	requireRevokedMaliciousOnly(t, out, f.dep, cfg.Malicious)
}

func TestMultipathJunkStillPinpointed(t *testing.T) {
	f := newFixture(t, topology.Grid(3, 4), 96)
	cfg := f.config(96)
	cfg.Multipath = true
	cfg.Malicious = maliciousSet(7)
	cfg.Adversary = adversary.NewJunkInjector(-999)
	out := run(t, cfg)
	if out.Kind != core.OutcomeJunkAggRevocation {
		t.Fatalf("outcome = %v, want junk-agg-revocation", out.Kind)
	}
	requireRevokedMaliciousOnly(t, out, f.dep, cfg.Malicious)
}

func TestNaNReadingsIgnored(t *testing.T) {
	f := newFixture(t, topology.Grid(3, 3), 97)
	cfg := f.config(97)
	cfg.Readings = func(id topology.NodeID, _ int) float64 {
		switch id {
		case 0:
			return core.Inf()
		case 3:
			return math.NaN()
		case 5:
			return 7
		default:
			return 50 + float64(id)
		}
	}
	out := run(t, cfg)
	if out.Kind != core.OutcomeResult || out.Mins[0] != 7 {
		t.Fatalf("outcome %v mins %v, want result 7", out.Kind, out.Mins)
	}
}

func TestRepeatedRunsAccumulateAcrossRegistryCampaignKeyBudget(t *testing.T) {
	// Across a campaign, the number of distinct revoked keys grows
	// monotonically and individual announcements match the registry.
	f := newFixture(t, bypassGraph(), 98)
	f.readings[4] = 1
	registry := keydist.NewRegistry(f.dep, 0)
	strat := adversary.NewDropper(50)
	prev := 0
	for i := 0; i < 3; i++ {
		cfg := f.config(uint64(98 + i))
		cfg.Malicious = maliciousSet(2)
		cfg.Adversary = strat
		cfg.Registry = registry
		out := run(t, cfg)
		if out.Kind == core.OutcomeResult {
			break
		}
		if registry.RevokedKeyCount() <= prev {
			t.Fatalf("revoked key count did not grow: %d -> %d", prev, registry.RevokedKeyCount())
		}
		prev = registry.RevokedKeyCount()
	}
	if registry.KeyRevocationAnnouncements() != prev {
		t.Fatalf("announcements %d != distinct revoked keys %d",
			registry.KeyRevocationAnnouncements(), prev)
	}
}

func TestLossyHonestRunStaysWithinModel(t *testing.T) {
	// With mild loss and no adversary, the execution still terminates
	// with a deterministic outcome kind (result or a spurious-veto walk
	// from an honestly-lost minimum, never an error).
	f := newFixture(t, bypassGraph(), 99)
	cfg := f.config(99)
	cfg.LossRate = 0.02
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatalf("lossy run errored: %v", err)
	}
}
