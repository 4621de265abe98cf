package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

func TestSimHonestMin(t *testing.T) {
	out := runCLI(t, "-n", "30", "-seed", "3")
	if !strings.Contains(out, "outcome: result") {
		t.Fatalf("missing result outcome:\n%s", out)
	}
	if !strings.Contains(out, "minimum: 101") {
		t.Fatalf("wrong minimum (node 1 holds 101):\n%s", out)
	}
}

func TestSimCountQuery(t *testing.T) {
	out := runCLI(t, "-n", "30", "-query", "count", "-synopses", "40", "-seed", "4")
	if !strings.Contains(out, "count estimate:") {
		t.Fatalf("missing count estimate:\n%s", out)
	}
}

func TestSimSumQuery(t *testing.T) {
	out := runCLI(t, "-n", "25", "-query", "sum", "-synopses", "40", "-seed", "5")
	if !strings.Contains(out, "sum estimate:") {
		t.Fatalf("missing sum estimate:\n%s", out)
	}
}

func TestSimJunkAttackRevokes(t *testing.T) {
	out := runCLI(t, "-n", "25", "-attack", "junk", "-seed", "6")
	if !strings.Contains(out, "junk-agg-revocation") {
		t.Fatalf("junk attack not classified:\n%s", out)
	}
	if !strings.Contains(out, "revoked:") {
		t.Fatalf("no revocation reported:\n%s", out)
	}
}

func TestSimVerboseTrace(t *testing.T) {
	out := runCLI(t, "-n", "20", "-v", "-seed", "7")
	for _, want := range []string{"phase announce", "phase tree-formation", "phase aggregation", "outcome result"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q:\n%s", want, out)
		}
	}
}

func TestSimMultipathFlag(t *testing.T) {
	out := runCLI(t, "-n", "25", "-multipath", "-seed", "8")
	if !strings.Contains(out, "outcome: result") {
		t.Fatalf("multipath run failed:\n%s", out)
	}
}

func TestSimAverageQuery(t *testing.T) {
	out := runCLI(t, "-n", "25", "-query", "average", "-synopses", "40", "-seed", "10")
	if !strings.Contains(out, "average estimate:") {
		t.Fatalf("missing average estimate:\n%s", out)
	}
}

func TestSimTopologies(t *testing.T) {
	for _, topo := range []string{"geometric", "grid", "line"} {
		out := runCLI(t, "-n", "12", "-topology", topo, "-seed", "11")
		if !strings.Contains(out, "outcome: result") {
			t.Fatalf("topology %s failed:\n%s", topo, out)
		}
	}
}

func TestSimCampaignMode(t *testing.T) {
	out := runCLI(t, "-n", "30", "-attack", "drop", "-campaign", "10", "-seed", "12")
	if !strings.Contains(out, "--- execution 1 ---") {
		t.Fatalf("campaign mode did not iterate:\n%s", out)
	}
}

func TestSimLossFlag(t *testing.T) {
	out := runCLI(t, "-n", "20", "-loss", "0.01", "-seed", "13")
	if !strings.Contains(out, "outcome:") {
		t.Fatalf("lossy run produced no outcome:\n%s", out)
	}
}

func TestSimRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "1"}, &buf); err == nil {
		t.Fatal("n=1 accepted")
	}
	if err := run([]string{"-query", "mode"}, &buf); err == nil {
		t.Fatal("unknown query accepted")
	}
	if err := run([]string{"-attack", "nuke"}, &buf); err == nil {
		t.Fatal("unknown attack accepted")
	}
	if err := run([]string{"-topology", "torus"}, &buf); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestSimDeterministicForSeed(t *testing.T) {
	a := runCLI(t, "-n", "30", "-attack", "drop", "-seed", "9")
	b := runCLI(t, "-n", "30", "-attack", "drop", "-seed", "9")
	if a != b {
		t.Fatal("same seed produced different output")
	}
}

func TestSimVersionFlag(t *testing.T) {
	out := runCLI(t, "-version")
	if !strings.Contains(out, "vmat-sim") || !strings.Contains(out, version) {
		t.Fatalf("version output = %q", out)
	}
}

func TestSimTraceNDJSON(t *testing.T) {
	out := runCLI(t, "-n", "20", "-seed", "3", "-trace")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var events int
	for _, line := range lines {
		if !strings.HasPrefix(line, "{") {
			continue // human-readable report lines
		}
		events++
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("trace line is not JSON: %q: %v", line, err)
		}
		if _, ok := ev["kind"]; !ok {
			t.Fatalf("trace line missing kind: %q", line)
		}
		if trial, ok := ev["trial"].(float64); !ok || trial != 0 {
			t.Fatalf("trace line should carry trial 0: %q", line)
		}
	}
	if events == 0 {
		t.Fatalf("no NDJSON events in output:\n%s", out)
	}
}
