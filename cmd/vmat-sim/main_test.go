package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/cases.golden. Use it only for an
// intended, explained change to what vmat-sim prints.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/cases.golden from the current binary")

// goldenCases cover every query, topology (a grid n that fills its
// rectangle and two that round up), attack, aggregation and loss flag,
// the revocation threshold, campaign mode, both trace encodings, each
// fault flag with the ARQ and a slot deadline, and the flag errors.
var goldenCases = [][]string{
	{"-n", "30", "-seed", "3"},
	{"-n", "30", "-query", "count", "-synopses", "40", "-seed", "4"},
	{"-n", "25", "-query", "sum", "-synopses", "40", "-seed", "5"},
	{"-n", "25", "-query", "average", "-synopses", "40", "-seed", "10"},
	{"-n", "12", "-topology", "grid", "-seed", "11"},
	{"-n", "10", "-topology", "grid", "-query", "count", "-synopses", "20", "-seed", "11"},
	{"-n", "14", "-topology", "grid", "-query", "sum", "-synopses", "20", "-attack", "junk", "-seed", "2"},
	{"-n", "13", "-topology", "grid", "-query", "average", "-synopses", "20", "-seed", "3"},
	{"-n", "12", "-topology", "line", "-seed", "11"},
	{"-n", "16", "-topology", "line", "-query", "min", "-attack", "drop", "-seed", "4"},
	{"-n", "30", "-attack", "drop", "-malicious", "2", "-seed", "9"},
	{"-n", "25", "-attack", "hide", "-seed", "6"},
	{"-n", "25", "-attack", "junk", "-seed", "6"},
	{"-n", "30", "-attack", "choke", "-malicious", "2", "-seed", "7"},
	{"-n", "30", "-attack", "drop-choke", "-malicious", "3", "-multipath", "-seed", "8"},
	{"-n", "30", "-attack", "mute", "-seed", "8"},
	{"-n", "30", "-query", "count", "-synopses", "30", "-attack", "junk", "-malicious", "2", "-seed", "14"},
	{"-n", "30", "-query", "average", "-synopses", "30", "-attack", "drop", "-seed", "15"},
	{"-n", "25", "-multipath", "-seed", "8"},
	{"-n", "20", "-loss", "0.01", "-seed", "13"},
	{"-n", "25", "-attack", "junk", "-theta", "1", "-seed", "6"},
	{"-n", "30", "-attack", "drop", "-campaign", "10", "-seed", "12"},
	{"-n", "40", "-attack", "drop", "-malicious", "3", "-campaign", "8", "-seed", "4"},
	{"-n", "30", "-attack", "junk", "-malicious", "2", "-campaign", "6", "-seed", "6"},
	{"-n", "20", "-v", "-seed", "7"},
	{"-n", "12", "-attack", "junk", "-v", "-seed", "6"},
	{"-n", "20", "-trace", "-seed", "3"},
	{"-n", "30", "-crash", "0.005", "-arq", "-seed", "41"},
	{"-n", "30", "-crash", "0.01", "-recover", "0.02", "-max-slots", "300", "-seed", "43"},
	{"-n", "30", "-link-down", "0.01", "-link-up", "0.3", "-arq", "-seed", "41"},
	{"-n", "30", "-burst-loss", "0.7", "-arq", "-max-slots", "400", "-seed", "43"},
	{"-n", "30", "-query", "count", "-synopses", "20", "-crash", "0.005", "-link-down", "0.01", "-arq", "-max-slots", "600", "-seed", "5"},
	{"-n", "1"},
	{"-topology", "torus"},
	{"-attack", "nuke"},
	{"-n", "10", "-query", "mode"},
}

// TestSimGolden pins vmat-sim's exact output for every case in
// goldenCases: stdout, then the error run returned (main prints it
// after "vmat-sim: ").
func TestSimGolden(t *testing.T) {
	var b strings.Builder
	for _, args := range goldenCases {
		fmt.Fprintf(&b, "=== vmat-sim %s\n", strings.Join(args, " "))
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			fmt.Fprintf(&out, "error: %v\n", err)
		}
		b.Write(out.Bytes())
	}
	got := b.String()
	path := filepath.Join("testdata", "cases.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		header := ""
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if strings.HasPrefix(w, "=== ") {
				header = w
			}
			if g != w {
				t.Fatalf("%s: line %d (case %q) differs:\ngot:  %q\nwant: %q", path, i+1, header, g, w)
			}
		}
	}
}

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
