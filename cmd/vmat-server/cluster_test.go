package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestClusterModeEndToEnd boots the real server binary with -cluster,
// verifies /healthz reports the empty fleet as degraded, joins an
// in-process worker, runs a job through the fleet, checks the cluster
// metrics are exposed, and SIGTERMs the whole thing — the drain order
// (cluster first, then sweeps, jobs, listener) must exit cleanly with
// the worker still attached.
func TestClusterModeEndToEnd(t *testing.T) {
	addr := freeAddr(t)
	var buf strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", addr, "-workers", "2", "-cluster",
			"-lease-ttl", "2s", "-data-dir", t.TempDir(), "-wire-addr", "127.0.0.1:0",
		}, &buf)
	}()
	base := "http://" + addr
	waitHealthy(t, base)

	healthz := func() map[string]any {
		t.Helper()
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	if body := healthz(); body["status"] != "degraded" {
		t.Fatalf("healthz with -cluster and no workers = %v, want degraded", body)
	}

	wctx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	w := cluster.NewWorker(cluster.WorkerConfig{Server: base, Name: "e2e-worker"})
	workerDone := make(chan error, 1)
	go func() { workerDone <- w.Run(wctx) }()

	deadline := time.Now().Add(10 * time.Second)
	for healthz()["status"] != "ok" {
		if time.Now().After(deadline) {
			t.Fatalf("healthz never recovered after worker joined: %v", healthz())
		}
		time.Sleep(10 * time.Millisecond)
	}

	spec := `{"n":24,"topology":"line","query":"min","attack":"none","trials":2,"seed":9}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for {
		var view struct {
			Status string          `json:"status"`
			Rows   json.RawMessage `json:"rows"`
		}
		r, err := http.Get(base + "/v1/jobs/" + submitted.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if view.Status == "done" {
			if len(view.Rows) == 0 {
				t.Fatal("done job has no rows")
			}
			break
		}
		if view.Status == "failed" || view.Status == "cancelled" {
			t.Fatalf("job ended %s", view.Status)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`service_jobs_executed_total{path="cluster"} 1`,
		`cluster_units_completed_total{worker="e2e-worker"} 1`,
		"cluster_workers_connected 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// SIGTERM with the worker still connected: the coordinator drains
	// first, so the exit is clean and the worker sees an orderly plane.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after SIGTERM = %v\noutput:\n%s", err, buf.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("cluster-mode server did not drain\noutput:\n%s", buf.String())
	}
	stopWorker()
	<-workerDone // the worker exits on its own cancel; errors are fine once the server is gone
	out := buf.String()
	for _, want := range []string{"cluster mode on", "drained, bye"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
