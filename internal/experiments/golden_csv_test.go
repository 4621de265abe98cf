package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/simnet"
)

// The cross-engine golden contract: the scenario rows below were captured
// from the pre-refactor simulator (goroutine-per-slot fan-out with
// barriers) and checked in as CSV. The event-loop engine must reproduce
// every field byte-for-byte — including the faults+ARQ+MaxSlots schedule
// and the partial/degraded rows, whose RNG consumption is the most
// fragile part of the delivery pipeline. Floats are encoded with %x
// (hexadecimal floating point), which is exact, so a one-ulp drift in
// any answer or flooding-round column fails the test.
//
// Regenerate with `go test ./internal/experiments -run GoldenCSV
// -update-golden` — but only when a behavior change is intended and
// explained; the whole point of the file is that refactors do not get to
// touch it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden CSVs from the current engine")

// goldenCSVSpecs are the pinned scenarios. They deliberately cover every
// delivery-pipeline branch: plain attacks on each topology shape,
// multipath, residual loss with choking, crash/churn faults with the ARQ
// and a slot deadline, and a burst+partition schedule that forces
// partial results.
func goldenCSVSpecs() []struct {
	name string
	cfg  ScenarioConfig
} {
	return []struct {
		name string
		cfg  ScenarioConfig
	}{
		{"geometric-min-drop", ScenarioConfig{
			N: 40, Topology: "geometric", Query: "min", Attack: "drop",
			Malicious: 2, Synopses: 100, Trials: 3, Seed: 7,
		}},
		{"grid-count-junk", ScenarioConfig{
			N: 36, Topology: "grid", Query: "count", Attack: "junk",
			Malicious: 1, Synopses: 40, Trials: 2, Seed: 13,
		}},
		{"line-min-multipath", ScenarioConfig{
			N: 30, Topology: "line", Query: "min", Attack: "none",
			Synopses: 100, Trials: 2, Seed: 11, Multipath: true,
		}},
		{"choke-sum-loss", ScenarioConfig{
			N: 40, Topology: "geometric", Query: "sum", Attack: "choke",
			Malicious: 2, Synopses: 30, LossRate: 0.1, Trials: 2, Seed: 17,
		}},
		{"faults-arq-deadline", ScenarioConfig{
			N: 30, Topology: "geometric", Query: "min", Attack: "none",
			Synopses: 100, Trials: 4, Seed: 41, MaxSlots: 400,
			Faults: &faults.Spec{CrashProb: 0.005, RecoverProb: 0.05, LinkDownProb: 0.01, LinkUpProb: 0.2},
			ARQ:    &simnet.ARQConfig{},
		}},
		{"burst-partition-partial", ScenarioConfig{
			N: 30, Topology: "geometric", Query: "min", Attack: "none",
			Synopses: 100, Trials: 3, Seed: 43, MaxSlots: 300,
			Faults: &faults.Spec{
				CrashProb: 0.01, RecoverProb: 0.02,
				Burst:     &faults.BurstSpec{EnterProb: 0.1, ExitProb: 0.2, LossBad: 0.7},
				Partition: &faults.PartitionSpec{FromSlot: 10, ToSlot: 200, Frac: 0.3},
			},
			ARQ: &simnet.ARQConfig{MaxRetries: 2},
		}},
	}
}

// scenarioRowsCSV renders rows with exact float encoding, one line per
// trial, prefixed by the scenario name.
func scenarioRowsCSV(name string, rows []ScenarioRow) string {
	var b strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%d,%s,%v,%x,%d,%x,%d,%d,%d,%d,%d,%v,%d,%d\n",
			name, r.Trial, r.Outcome, r.Answered, r.Answer, r.Slots,
			r.FloodingRounds, r.PredicateTests, r.RevokedKeys, r.RevokedNodes,
			r.TotalBytes, r.MaxNodeBytes, r.Partial, r.Unreachable, r.Retransmits)
	}
	return b.String()
}

const scenarioGoldenHeader = "name,trial,outcome,answered,answer,slots,flooding_rounds,predicate_tests,revoked_keys,revoked_nodes,total_bytes,max_node_bytes,partial,unreachable,retransmits\n"

func TestScenarioGoldenCSV(t *testing.T) {
	path := filepath.Join("testdata", "scenario_golden.csv")
	var got strings.Builder
	got.WriteString(scenarioGoldenHeader)
	sawPartial := false
	for _, spec := range goldenCSVSpecs() {
		rows, err := RunScenario(spec.cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		for _, r := range rows {
			if r.Partial {
				sawPartial = true
			}
		}
		got.WriteString(scenarioRowsCSV(spec.name, rows))
	}
	// The golden set must actually exercise the degraded path; a spec
	// change that silently makes every trial complete would weaken the
	// contract without failing it.
	if !sawPartial {
		t.Fatalf("golden scenarios produced no partial/degraded row; adjust the fault specs")
	}
	compareGolden(t, path, got.String())
}

// TestFig8GoldenCSV pins the synopsis pipeline end to end: the
// per-instance minima and the estimator run over 2×12 trials of
// deterministic synopses, so any change to the hash layout, the
// PRG-to-exponential mapping, or the min-merge order shows up as a
// hex-float mismatch.
func TestFig8GoldenCSV(t *testing.T) {
	path := filepath.Join("testdata", "fig8_golden.csv")
	rows := RunFig8(Fig8Config{Synopses: 50, Counts: []int{10, 100}, Trials: 12, Seed: 22})
	var got strings.Builder
	got.WriteString("count,average,p50,p90,p95,p99\n")
	for _, r := range rows {
		fmt.Fprintf(&got, "%d,%x,%x,%x,%x,%x\n", r.Count, r.Average, r.P50, r.P90, r.P95, r.P99)
	}
	compareGolden(t, path, got.String())
}

// TestQuickTierGoldenCSV pins the -quick tier of every non-scenario
// vmat-bench experiment, at the configurations the binary runs (the
// QuickX constructors) and their default seed. Each row is written field
// by field with floats in %x, so an engine change that moves any of
// these numbers, however slightly, fails here rather than passing the
// shape and worker-count checks.
func TestQuickTierGoldenCSV(t *testing.T) {
	must := func(rows any, err error) any {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return rows
	}
	experiments := []struct {
		name string
		rows func() any
	}{
		{"fig7", func() any { return must(RunFig7(QuickFig7())) }},
		{"fig8", func() any { return RunFig8(QuickFig8()) }},
		{"msweep", func() any { return RunMSweep(QuickMSweep()) }},
		{"comm", func() any { return must(RunComm(QuickComm())) }},
		{"rounds", func() any { return must(RunRounds(QuickRounds())) }},
		{"pinpoint", func() any { return must(RunPinpoint(QuickPinpoint())) }},
		{"campaign", func() any { return must(RunCampaign(QuickCampaign())) }},
		{"wormhole", func() any { return must(RunWormhole(QuickWormhole())) }},
		{"choking", func() any { return must(RunChoking(QuickChoking())) }},
		{"loss", func() any { return must(RunLoss(QuickLoss())) }},
		{"avail", func() any { return must(RunAvailability(QuickAvailability())) }},
		{"faults", func() any { return must(RunFaults(QuickFaults())) }},
	}
	var got strings.Builder
	for _, exp := range experiments {
		writeRowsCSV(t, &got, exp.name, exp.rows())
	}
	compareGolden(t, filepath.Join("testdata", "quick_golden.csv"), got.String())
}

// writeRowsCSV writes a header naming rows' struct fields, then one line
// per row prefixed by name. Floats are written in %x, which is exact;
// a field of a kind it cannot print exactly fails the test, so a new
// row field cannot slip out of the golden unnoticed.
func writeRowsCSV(t *testing.T, b *strings.Builder, name string, rows any) {
	t.Helper()
	v := reflect.ValueOf(rows)
	typ := v.Type().Elem()
	fields := make([]string, typ.NumField())
	for i := range fields {
		fields[i] = typ.Field(i).Name
	}
	fmt.Fprintf(b, "# %s: %s\n", name, strings.Join(fields, ","))
	for i := 0; i < v.Len(); i++ {
		b.WriteString(name)
		for j := range fields {
			f := v.Index(i).Field(j)
			switch f.Kind() {
			case reflect.Float64:
				fmt.Fprintf(b, ",%x", f.Float())
			case reflect.Int, reflect.Int64, reflect.String, reflect.Bool:
				fmt.Fprintf(b, ",%v", f.Interface())
			default:
				t.Fatalf("%s.%s: cannot write a %s field", name, fields[j], f.Kind())
			}
		}
		b.WriteByte('\n')
	}
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if string(want) != got {
		t.Fatalf("rows drifted from the checked-in golden CSV %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
