package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/wire"
)

// e2eGrid is the sweep every fleet size runs: 8 cells, each a few dozen
// milliseconds, so a 3-worker fleet genuinely interleaves and the
// killed worker's leases are reassigned while peers still hold work.
const e2eGrid = `{"n": [24, 30], "query": ["min", "count"], "loss_rate": [0, 0.1], "trials": 6, "seed": 99}`

// runClusteredSweep stands up a full server stack (job manager, sweep
// orchestrator, coordinator, streaming transport, HTTP mux) plus an
// in-process worker fleet, runs e2eGrid through it, and returns the CSV
// export and the stack's metrics registry. Workers stream units over
// the wire transport, exactly as vmat-worker does. killOne crashes the
// first worker fail-stop on its first lease — no completion, no
// deregistration — so its lease must expire and be reassigned.
// shardTrials > 0 splits every cell into trial-range units.
// No store is configured: every cell executes, so the CSV reflects this
// run alone.
func runClusteredSweep(t *testing.T, nWorkers int, killOne bool, shardTrials int) ([]byte, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	coord := NewCoordinator(CoordinatorConfig{
		LeaseTTL:          400 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		WorkerTTL:         time.Hour, // the killed worker must not free its lease by expiring
		ShardTrials:       shardTrials,
		Metrics:           reg,
	})
	defer coord.Close()
	if _, err := coord.StartWire("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	mgr := service.New(service.Config{Metrics: reg, Cluster: coord, Workers: 4, Version: "e2e"})
	swm := sweep.NewManager(sweep.Config{Service: mgr, Metrics: reg, Version: "e2e"})
	mux := http.NewServeMux()
	mux.Handle("/", service.NewHandler(mgr, "e2e", coord, nil))
	sweep.Register(mux, swm)
	RegisterHTTP(mux, coord)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// With cluster mode on and nobody registered, /healthz must say so.
	if status := healthzStatus(t, srv.URL); status != "degraded" {
		t.Fatalf("healthz with empty fleet = %q, want degraded", status)
	}

	ctx, cancelWorkers := context.WithCancel(context.Background())
	defer cancelWorkers()
	var runDones []chan error
	var doomed chan struct{} // closed when the killed worker takes its first lease
	startWorkers := func(from, to int) {
		for i := from; i < to; i++ {
			cfg := WorkerConfig{Server: srv.URL, Name: fmt.Sprintf("e2e-%d", i), Reconnect: fastReconnect()}
			if killOne && i == 0 {
				doomed = make(chan struct{})
				var once sync.Once
				cfg.Abort = doomed
				cfg.OnLease = func(Unit) { once.Do(func() { close(doomed) }) }
			}
			w := NewWorker(cfg)
			done := make(chan error, 1)
			go func() { done <- w.Run(ctx) }()
			runDones = append(runDones, done)
		}
	}
	// The killed worker joins alone and its peers only once it has
	// died on its first lease: peers already holding every unit it could
	// have leased would leave it nothing to die on.
	first := nWorkers
	if killOne {
		first = 1
	}
	startWorkers(0, first)
	if nWorkers > 0 {
		waitConnected(t, coord, first)
		if status := healthzStatus(t, srv.URL); status != "ok" {
			t.Fatalf("healthz with %d workers = %q, want ok", first, status)
		}
	}

	// Submit the sweep over the wire and poll it to completion.
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(e2eGrid))
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
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("sweep submit = %d", resp.StatusCode)
	}
	if killOne {
		select {
		case <-doomed:
		case <-time.After(time.Minute):
			t.Fatal("the worker to be killed never took a lease")
		}
		startWorkers(1, nWorkers)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s did not finish; fleet=%d kill=%v status=%+v",
				submitted.ID, nWorkers, killOne, coord.WorkersStatus())
		}
		var view struct {
			Status string `json:"status"`
		}
		getJSON(t, srv.URL+"/v1/sweeps/"+submitted.ID, &view)
		if view.Status == "done" {
			break
		}
		if view.Status != "running" {
			t.Fatalf("sweep ended %q, want done", view.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}

	csvResp, err := http.Get(srv.URL + "/v1/sweeps/" + submitted.ID + "/results?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	csv, err := io.ReadAll(csvResp.Body)
	csvResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	cancelWorkers()
	for i, done := range runDones {
		err := <-done
		if killOne && i == 0 {
			if err != ErrAborted {
				t.Fatalf("killed worker run = %v, want ErrAborted", err)
			}
		} else if err != nil {
			t.Fatalf("worker %d run = %v", i, err)
		}
	}
	if err := coord.Drain(context.Background()); err != nil {
		t.Fatalf("coordinator drain: %v", err)
	}
	if err := swm.Drain(context.Background()); err != nil {
		t.Fatalf("sweep drain: %v", err)
	}
	if err := mgr.Drain(context.Background()); err != nil {
		t.Fatalf("service drain: %v", err)
	}
	return csv, reg
}

func healthzStatus(t *testing.T, base string) string {
	t.Helper()
	var body struct {
		Status string `json:"status"`
	}
	getJSON(t, base+"/healthz", &body)
	return body.Status
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestSweepBitIdenticalAcrossFleets is the tentpole's end-to-end
// contract: the same sweep exports a byte-identical CSV whether it runs
// on the local pool (0 workers), one worker, or three workers with one
// killed fail-stop mid-sweep — and the kill case provably exercised the
// lease-reassignment path.
func TestSweepBitIdenticalAcrossFleets(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-fleet e2e sweep is not short")
	}
	local, localReg := runClusteredSweep(t, 0, false, 0)
	if !bytes.Contains(local, []byte("\n")) || len(local) == 0 {
		t.Fatalf("local CSV is empty")
	}
	// 0 workers: every cell fell back to the local pool.
	if v := localReg.Counter(service.MetricJobsExecuted + `{path="local"}`).Value(); v == 0 {
		t.Fatal("0-worker sweep executed nothing locally")
	}
	if v := localReg.Counter(service.MetricJobsExecuted + `{path="cluster"}`).Value(); v != 0 {
		t.Fatalf("0-worker sweep executed %d units on a cluster it does not have", v)
	}

	one, oneReg := runClusteredSweep(t, 1, false, 0)
	if !bytes.Equal(local, one) {
		t.Fatalf("1-worker CSV differs from local CSV:\nlocal:\n%s\nworker:\n%s", local, one)
	}
	if v := oneReg.Counter(service.MetricJobsExecuted + `{path="cluster"}`).Value(); v == 0 {
		t.Fatal("1-worker sweep never dispatched to the cluster")
	}

	killed, killedReg := runClusteredSweep(t, 3, true, 0)
	if !bytes.Equal(local, killed) {
		t.Fatalf("kill-case CSV differs from local CSV:\nlocal:\n%s\nkilled:\n%s", local, killed)
	}
	if v := killedReg.Counter(MetricLeasesReassigned).Value(); v == 0 {
		t.Fatal("killing a worker mid-sweep produced no lease reassignment")
	}
	if v := killedReg.Counter(MetricLeasesExpired).Value(); v == 0 {
		t.Fatal("killed worker's lease never expired")
	}
}

// TestShardedSweepBitIdenticalWithKilledWorker is the sharded fabric's
// end-to-end contract: split every cell into trial-range shards, spread
// them over a 4-worker streaming fleet, kill one worker fail-stop
// mid-shard — and the merged CSV must still be byte-identical to the
// 0-worker local run, with the reassignment path provably exercised.
func TestShardedSweepBitIdenticalWithKilledWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded e2e sweep is not short")
	}
	local, _ := runClusteredSweep(t, 0, false, 0)
	if len(local) == 0 {
		t.Fatal("local CSV is empty")
	}
	sharded, reg := runClusteredSweep(t, 4, true, 2)
	if !bytes.Equal(local, sharded) {
		t.Fatalf("sharded kill-case CSV differs from local CSV:\nlocal:\n%s\nsharded:\n%s", local, sharded)
	}
	if v := reg.Counter(MetricShardsPlanned).Value(); v == 0 {
		t.Fatal("sharded sweep planned no shards")
	}
	if v := reg.Counter(MetricShardsMerged).Value(); v == 0 {
		t.Fatal("sharded sweep merged no shards")
	}
	if v := reg.Counter(MetricLeasesReassigned).Value(); v == 0 {
		t.Fatal("killing a worker mid-shard produced no lease reassignment")
	}
	if v := reg.Counter(wire.MetricFramesSent).Value(); v == 0 {
		t.Fatal("sharded sweep never used the streaming transport")
	}
}
