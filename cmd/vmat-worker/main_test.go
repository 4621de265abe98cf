package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

func TestVersionFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "vmat-worker") {
		t.Fatalf("version output %q", buf.String())
	}
}

// syncBuffer is a bytes.Buffer the test can read while run writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestSIGTERMGracefulDrain delivers a real SIGTERM to the process while
// the worker binary's run loop holds a lease mid-execution. The
// contract: finish the unit, report the result, deregister, and return
// nil (exit 0) — the coordinator must see the result, not a reassigned
// lease.
func TestSIGTERMGracefulDrain(t *testing.T) {
	coord := cluster.NewCoordinator(cluster.CoordinatorConfig{
		LeaseTTL:          500 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		WorkerTTL:         time.Hour,
	})
	defer coord.Close()
	if _, err := coord.StartWire("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	cluster.RegisterHTTP(mux, coord)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// A unit heavy enough (~500ms) that the signal sent right after it
	// starts lands well before execution finishes.
	spec := experiments.ScenarioConfig{
		N: 40, Topology: "geometric", Query: "min", Attack: "drop",
		Malicious: 1, Synopses: 50, Trials: 50, Seed: 7,
	}
	spec.Normalize()
	var buf syncBuffer
	runDone := make(chan error, 1)
	go func() { runDone <- run([]string{"-server", srv.URL, "-name", "sigterm-test"}, &buf) }()
	deadline := time.Now().Add(10 * time.Second)
	for coord.WorkersStatus().Connected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}

	type execResult struct {
		rows []experiments.ScenarioRow
		ok   bool
		err  error
	}
	res := make(chan execResult, 1)
	go func() {
		rows, ok, err := coord.Execute(context.Background(), spec)
		res <- execResult{rows, ok, err}
	}()

	// Wait until the binary's worker runs the unit, then TERM the
	// process for real — the same signal systemd or an operator sends.
	// A held lease is not enough: a grant arrives before its unit starts,
	// and a drain in between releases it unrun.
	for !strings.Contains(buf.String(), "running ") {
		if time.Now().After(deadline) {
			t.Fatalf("worker never started the unit:\n%s", buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	if err := <-runDone; err != nil {
		t.Fatalf("run after SIGTERM = %v, want nil (exit 0)", err)
	}
	r := <-res
	if !r.ok || r.err != nil || len(r.rows) == 0 {
		t.Fatalf("held unit not completed through drain: (ok=%v, err=%v, rows=%d)", r.ok, r.err, len(r.rows))
	}
	want, err := experiments.RunScenario(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.rows) != len(want) {
		t.Fatalf("drained unit returned %d rows, want %d", len(r.rows), len(want))
	}
	ws := coord.WorkersStatus()
	if ws.Connected != 0 {
		t.Fatalf("worker did not deregister: %+v", ws)
	}
	if ws.LeasesExpired != 0 {
		t.Fatalf("graceful drain leaked an expired lease: %+v", ws)
	}
	out := buf.String()
	if !strings.Contains(out, "drained after 1 completed units") {
		t.Fatalf("worker log does not report the drain:\n%s", out)
	}
}
