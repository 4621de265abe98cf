package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// newTestPlane wires a coordinator to a real HTTP listener and a real
// streaming transport, the same paths vmat-worker speaks in production.
func newTestPlane(t *testing.T, cfg CoordinatorConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	c := NewCoordinator(cfg)
	if _, err := c.StartWire("127.0.0.1:0"); err != nil {
		c.Close()
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	RegisterHTTP(mux, c)
	srv := httptest.NewServer(mux)
	t.Cleanup(func() {
		srv.Close()
		c.Close()
	})
	return c, srv
}

func fastCadence() CoordinatorConfig {
	return CoordinatorConfig{
		LeaseTTL:          150 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		WorkerTTL:         time.Hour, // workers die by abort here, not by silence
	}
}

// waitConnected blocks until n workers are registered: Execute falls
// back to the local pool on an empty fleet, so tests must not race the
// worker's registration.
func waitConnected(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.WorkersStatus().Connected < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d workers: %+v", n, c.WorkersStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestWorkerGracefulDrainFinishesHeldLease pins the drain contract at
// the client level: a cancel that lands mid-unit does not interrupt the
// unit — it is finished, reported, and only then does the worker leave.
// (cmd/vmat-worker's test covers the same path with a real SIGTERM.)
func TestWorkerGracefulDrainFinishesHeldLease(t *testing.T) {
	c, srv := newTestPlane(t, fastCadence())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gate := make(chan struct{})
	started := make(chan struct{})
	w := NewWorker(WorkerConfig{
		Server: srv.URL, Reconnect: fastReconnect(),
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			// Signal here, not from OnLease: a grant arrives before its
			// unit starts, and a cancel in between releases it unrun.
			close(started)
			<-gate // hold the lease until the test has cancelled ctx
			return u.Run()
		},
	})
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, c, 1)

	spec := testSpec(30)
	res := executeAsync(c, context.Background(), spec)
	<-started
	cancel() // drain signal arrives while the unit is executing
	// Hold long enough that several heartbeats must fire to keep the
	// lease alive past its TTL.
	time.Sleep(400 * time.Millisecond)
	close(gate)

	r := <-res
	if !r.ok || r.err != nil {
		t.Fatalf("held unit lost to drain: (ok=%v, err=%v)", r.ok, r.err)
	}
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
	if ws := c.WorkersStatus(); ws.Connected != 0 || ws.LeasesExpired != 0 {
		t.Fatalf("drain left cluster state %+v, want clean deregistration", ws)
	}
}

// A coordinator that advertises no streaming transport has no way to
// hand out work: the worker exits with an error instead of idling.
func TestWorkerWithoutTransportExits(t *testing.T) {
	c := NewCoordinator(fastCadence())
	defer c.Close()
	mux := http.NewServeMux()
	RegisterHTTP(mux, c)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	w := NewWorker(WorkerConfig{Server: srv.URL, Reconnect: fastReconnect()})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.Run(ctx); err == nil || errors.Is(err, ErrAborted) {
		t.Fatalf("worker run against a coordinator with no transport = %v, want an error", err)
	}
	if ctx.Err() != nil {
		t.Fatal("worker kept running until the test gave up")
	}
}

// A completion a dead conn could not carry waits for the next session
// under the same identity; a re-registration drops it. The coordinator
// that forgot the worker requeued the unit, and a restarted one numbers
// its units afresh, so the old completion could name another unit.
func TestWorkerReregistrationDropsUnsentCompletions(t *testing.T) {
	_, srv := newTestPlane(t, fastCadence())
	w := NewWorker(WorkerConfig{Server: srv.URL, Reconnect: fastReconnect()})
	w.held["u000001"] = []byte(`{"unit_id":"u000001"}`)
	if err := w.register(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(w.held) != 0 {
		t.Fatalf("re-registration kept %d unsent completions, want none", len(w.held))
	}
}

func TestWorkerCrashMidUnitReassignsLease(t *testing.T) {
	reg := metrics.New()
	cfg := fastCadence()
	cfg.Metrics = reg
	c, srv := newTestPlane(t, cfg)

	abort := make(chan struct{})
	crashy := NewWorker(WorkerConfig{
		Server: srv.URL, Name: "crashy", Reconnect: fastReconnect(),
		Abort: abort,
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			close(abort) // die the moment work starts
			<-u.Spec.Context.Done()
			return nil, u.Spec.Context.Err()
		},
	})
	crashDone := make(chan error, 1)
	go func() { crashDone <- crashy.Run(context.Background()) }()
	waitConnected(t, c, 1)

	res := executeAsync(c, context.Background(), testSpec(31))
	if err := <-crashDone; !errors.Is(err, ErrAborted) {
		t.Fatalf("crashed worker run = %v, want ErrAborted", err)
	}

	// A healthy worker picks up the expired lease and finishes the unit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthy := NewWorker(WorkerConfig{Server: srv.URL, Name: "healthy", Reconnect: fastReconnect()})
	healthyDone := make(chan error, 1)
	go func() { healthyDone <- healthy.Run(ctx) }()

	r := <-res
	if !r.ok || r.err != nil {
		t.Fatalf("unit lost to the crash: (ok=%v, err=%v)", r.ok, r.err)
	}
	if v := reg.Counter(MetricLeasesReassigned).Value(); v < 1 {
		t.Fatalf("reassignments = %d, want >= 1", v)
	}
	if v := reg.Counter(MetricUnitsCompleted + `{worker="healthy"}`).Value(); v != 1 {
		t.Fatalf("healthy completions = %d, want 1", v)
	}
	cancel()
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy worker run: %v", err)
	}
}

func TestWorkerReregistersAfterCoordinatorForgetsIt(t *testing.T) {
	c, srv := newTestPlane(t, fastCadence())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{Server: srv.URL, Name: "phoenix", Reconnect: fastReconnect()})
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()

	// Wait for registration, then expire the worker behind its back.
	deadline := time.Now().Add(5 * time.Second)
	for c.WorkersStatus().Connected == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	for _, ws := range c.workers {
		c.dropWorkerLocked(ws, "test eviction")
	}
	c.mu.Unlock()

	// The next heartbeat finds the worker unknown and the coordinator
	// drops its conn; the redial is refused at Hello, so the worker
	// re-registers, and once back in the fleet it still does work.
	waitConnected(t, c, 1)
	if _, ok, err := c.Execute(context.Background(), testSpec(32)); !ok || err != nil {
		t.Fatalf("Execute after forced re-registration = (ok=%v, err=%v)", ok, err)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

func TestWorkerShutdownLeaksNoGoroutines(t *testing.T) {
	c, srv := newTestPlane(t, fastCadence())
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		w := NewWorker(WorkerConfig{Server: srv.URL, Reconnect: fastReconnect()})
		runDone := make(chan error, 1)
		go func() { runDone <- w.Run(ctx) }()
		waitConnected(t, c, 1)
		if _, ok, err := c.Execute(context.Background(), testSpec(uint64(40+i))); !ok || err != nil {
			t.Fatalf("Execute = (ok=%v, err=%v)", ok, err)
		}
		cancel()
		if err := <-runDone; err != nil {
			t.Fatal(err)
		}
	}
	srv.CloseClientConnections() // drop idle keep-alives before counting
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after worker lifecycles", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
