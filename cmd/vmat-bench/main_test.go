package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/all_quick.golden. Use it only for an
// intended, explained change to what vmat-bench prints.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/all_quick.golden from the current binary")

func runBench(t *testing.T, args ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String()
}

// TestBenchAllQuickGolden pins the exact stdout of `vmat-bench -exp all
// -quick`: every table of every experiment in the table's order, with
// its blank separator lines. internal/experiments pins the rows; this
// pins what the binary does with them (config tiers, seed and workers
// plumbing, table writers and their arguments).
func TestBenchAllQuickGolden(t *testing.T) {
	got := runBench(t, "-exp", "all", "-quick")
	path := filepath.Join("testdata", "all_quick.golden")
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
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s: line %d differs:\ngot:  %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "nope"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBenchWormholeQuick(t *testing.T) {
	out := runBench(t, "-exp", "wormhole", "-quick")
	if !strings.Contains(out, "Figure 2(c)") || !strings.Contains(out, "hopcount_invalid") {
		t.Fatalf("wormhole table malformed:\n%s", out)
	}
}

func TestBenchFig8Quick(t *testing.T) {
	out := runBench(t, "-exp", "fig8", "-quick")
	if !strings.Contains(out, "Figure 8") || !strings.Contains(out, "avg_rel_err") {
		t.Fatalf("fig8 table malformed:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) < 5 {
		t.Fatalf("fig8 table too short:\n%s", out)
	}
}

func TestBenchCampaignQuick(t *testing.T) {
	out := runBench(t, "-exp", "campaign", "-quick")
	if !strings.Contains(out, "revocation campaign") || !strings.Contains(out, "ring_coverage") {
		t.Fatalf("campaign table malformed:\n%s", out)
	}
}

func TestBenchLossQuick(t *testing.T) {
	out := runBench(t, "-exp", "loss", "-quick")
	if !strings.Contains(out, "radio loss") {
		t.Fatalf("loss table malformed:\n%s", out)
	}
}

func TestBenchSeedFlag(t *testing.T) {
	a := runBench(t, "-exp", "wormhole", "-quick", "-seed", "5")
	b := runBench(t, "-exp", "wormhole", "-quick", "-seed", "5")
	if a != b {
		t.Fatal("same seed produced different tables")
	}
}

func TestBenchWorkersFlagInvisibleInOutput(t *testing.T) {
	a := runBench(t, "-exp", "choking", "-quick", "-workers", "1")
	b := runBench(t, "-exp", "choking", "-quick", "-workers", "8")
	if a != b {
		t.Fatalf("worker count changed the table:\n%s\nvs\n%s", a, b)
	}
}

func TestBenchFaultsQuick(t *testing.T) {
	out := runBench(t, "-exp", "faults", "-quick")
	if !strings.Contains(out, "Graceful degradation") || !strings.Contains(out, "avg_retransmits") {
		t.Fatalf("faults table malformed:\n%s", out)
	}
}

func TestBenchVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "vmat-bench") || !strings.Contains(out, version) {
		t.Fatalf("version output = %q", out)
	}
}

func TestBenchScenarioQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "scenario", "-quick"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "trial") {
		t.Fatalf("scenario output missing trial rows:\n%s", out)
	}
}

// stripCacheLines removes the cache-summary line so warm and cold
// outputs can be compared for table equality.
func stripCacheLines(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "cache: ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestBenchCacheDirWarmRun is the CLI face of the result store: the
// second identical invocation prints byte-identical tables with zero
// cache misses, i.e. nothing was re-executed.
func TestBenchCacheDirWarmRun(t *testing.T) {
	dir := t.TempDir()
	cold := runBench(t, "-exp", "scenario", "-quick", "-cache-dir", dir)
	if !strings.Contains(cold, "cache: 0 hits, 1 misses") {
		t.Fatalf("cold run summary wrong:\n%s", cold)
	}
	warm := runBench(t, "-exp", "scenario", "-quick", "-cache-dir", dir)
	if !strings.Contains(warm, "cache: 1 hits, 0 misses") {
		t.Fatalf("warm run did not hit the store:\n%s", warm)
	}
	if stripCacheLines(cold) != stripCacheLines(warm) {
		t.Fatalf("warm table differs from cold table:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	// Different seed is a different content address.
	other := runBench(t, "-exp", "scenario", "-quick", "-seed", "99", "-cache-dir", dir)
	if !strings.Contains(other, "cache: 0 hits, 1 misses") {
		t.Fatalf("changed seed still hit the cache:\n%s", other)
	}
	// Worker count is execution-only: it must not change the address.
	rewarm := runBench(t, "-exp", "scenario", "-quick", "-workers", "3", "-cache-dir", dir)
	if !strings.Contains(rewarm, "cache: 1 hits, 0 misses") {
		t.Fatalf("worker count changed the cache key:\n%s", rewarm)
	}
	// Without the flag nothing is cached and no summary is printed.
	plain := runBench(t, "-exp", "scenario", "-quick")
	if strings.Contains(plain, "cache:") {
		t.Fatalf("cacheless run printed a cache summary:\n%s", plain)
	}
}

// TestBenchCacheAcrossExperiments warms two experiments into one store
// and confirms each is keyed independently.
func TestBenchCacheAcrossExperiments(t *testing.T) {
	dir := t.TempDir()
	runBench(t, "-exp", "choking", "-quick", "-cache-dir", dir)
	runBench(t, "-exp", "wormhole", "-quick", "-cache-dir", dir)
	warmA := runBench(t, "-exp", "choking", "-quick", "-cache-dir", dir)
	warmB := runBench(t, "-exp", "wormhole", "-quick", "-cache-dir", dir)
	for _, out := range []string{warmA, warmB} {
		if !strings.Contains(out, "cache: 1 hits, 0 misses (2 entries)") {
			t.Fatalf("warm rerun summary wrong:\n%s", out)
		}
	}
}
