package cluster

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/experiments"
	"repro/internal/frame"
	"repro/internal/metrics"
	"repro/internal/wire"
)

// fastReconnect keeps restart tests quick while still exercising the
// jittered schedule.
func fastReconnect() backoff.Policy {
	return backoff.Policy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Jitter: 0.3}
}

// waitWired blocks until n workers hold a live streaming conn.
func waitWired(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.WorkersStatus().WireConnected < n {
		if time.Now().After(deadline) {
			t.Fatalf("fleet never reached %d wire conns: %+v", n, c.WorkersStatus())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A worker executes units over the streaming transport — batched
// grants in, streamed completions out — unsplit scenarios (the range
// [0, Trials)) and trial-range shards alike, and the results match a
// whole local run exactly.
func TestWorkerExecutesUnitsOverWire(t *testing.T) {
	for _, tc := range []struct {
		name        string
		shardTrials int
		seed        uint64
		trials      int
		units       int   // units completed for 3 scenarios
		assembled   int64 // sharded scenarios merged back together
	}{
		{name: "whole-scenario", seed: 20, trials: 2, units: 3},
		{name: "sharded", shardTrials: 2, seed: 60, trials: 4, units: 6, assembled: 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := metrics.New()
			cfg := fastCadence()
			cfg.Metrics = reg
			cfg.ShardTrials = tc.shardTrials
			c, srv := newTestPlane(t, cfg)

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := NewWorker(WorkerConfig{Server: srv.URL, Name: "wired", Reconnect: fastReconnect()})
			runDone := make(chan error, 1)
			go func() { runDone <- w.Run(ctx) }()
			waitConnected(t, c, 1)
			waitWired(t, c, 1)

			for i := 0; i < 3; i++ {
				spec := shardSpec(tc.seed+uint64(i), tc.trials)
				rows, ok, err := c.Execute(context.Background(), spec)
				if !ok || err != nil {
					t.Fatalf("Execute %d over wire = (ok=%v, err=%v)", i, ok, err)
				}
				want, _ := experiments.RunScenario(spec)
				if !reflect.DeepEqual(rows, want) {
					t.Fatalf("unit %d: wire rows differ from local run", i)
				}
			}
			if v := reg.Counter(wire.MetricFramesSent).Value(); v == 0 {
				t.Fatal("no frames sent by the wire server")
			}
			if v := reg.Counter(wire.MetricFramesReceived).Value(); v == 0 {
				t.Fatal("no frames received by the wire server")
			}
			if v := reg.Counter(MetricScenariosAssembled).Value(); v != tc.assembled {
				t.Fatalf("scenarios assembled = %d, want %d", v, tc.assembled)
			}

			cancel()
			if err := <-runDone; err != nil {
				t.Fatalf("worker run after graceful cancel: %v", err)
			}
			// Read after Run returns: a unit counts once its completion is
			// sent, which can trail the coordinator assembling the scenario.
			if got := w.Completed(); got != tc.units {
				t.Fatalf("worker completed %d units, want %d", got, tc.units)
			}
			if ws := c.WorkersStatus(); ws.Connected != 0 {
				t.Fatalf("worker did not deregister on drain: %+v", ws)
			}
			deadline := time.Now().Add(5 * time.Second)
			for c.WorkersStatus().WireConnected != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("wire conn survived the worker's exit: %+v", c.WorkersStatus())
				}
				time.Sleep(2 * time.Millisecond)
			}
		})
	}
}

// restartableStack is a coordinator + HTTP API + streaming transport
// whose HTTP address can be re-bound after a kill, simulating a
// vmat-server restart.
type restartableStack struct {
	c    *Coordinator
	srv  *http.Server
	addr string
}

func startStack(t *testing.T, addr string, reg *metrics.Registry) *restartableStack {
	t.Helper()
	cfg := fastCadence()
	cfg.Metrics = reg
	c := NewCoordinator(cfg)
	if _, err := c.StartWire("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	RegisterHTTP(mux, c)
	srv := &http.Server{Handler: mux}
	// The restarted listener may race the dying one's close; retry the
	// bind briefly like an init system would.
	var ln net.Listener
	deadline := time.Now().Add(5 * time.Second)
	for {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	go srv.Serve(ln)
	return &restartableStack{c: c, srv: srv, addr: ln.Addr().String()}
}

func (s *restartableStack) kill() {
	s.srv.Close()
	s.c.Close()
}

// The resilience contract: kill the server outright — listener, wire
// transport, coordinator state, worker table, everything — restart it
// on the same HTTP address, and a running worker must rejoin (fresh
// registration, fresh wire conn to the NEW transport port) and execute
// work for the new coordinator without being restarted itself.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	first := startStack(t, "127.0.0.1:0", metrics.New())
	w := NewWorker(WorkerConfig{
		Server: "http://" + first.addr, Name: "survivor",
		Reconnect: fastReconnect(),
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, first.c, 1)
	waitWired(t, first.c, 1)

	spec := shardSpec(70, 4)
	want, _ := experiments.RunScenario(spec)
	if rows, ok, err := first.c.Execute(context.Background(), spec); !ok || err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("Execute before restart = (ok=%v, err=%v)", ok, err)
	}

	// Kill everything. The worker's conn drops and its dials bounce off
	// a dead address while we hold the port down.
	first.kill()
	time.Sleep(50 * time.Millisecond)

	second := startStack(t, first.addr, metrics.New())
	defer second.kill()
	waitConnected(t, second.c, 1) // the worker re-registered on its own
	waitWired(t, second.c, 1)     // ...and found the NEW wire port
	if rows, ok, err := second.c.Execute(context.Background(), spec); !ok || err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("Execute after restart = (ok=%v, err=%v)", ok, err)
	}
	if w.Reconnects() == 0 {
		t.Fatal("worker reports zero reconnects across a coordinator restart")
	}

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run after restart + drain: %v", err)
	}
}

// A worker whose conn is severed mid-session (not a coordinator
// restart: the coordinator still knows it) reconnects to the same
// transport and keeps working; the server counts the reconnect.
func TestWorkerReconnectsAfterConnLoss(t *testing.T) {
	reg := metrics.New()
	cfg := fastCadence()
	cfg.Metrics = reg
	c, srv := newTestPlane(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{Server: srv.URL, Name: "blipped", Reconnect: fastReconnect()})
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, c, 1)
	waitWired(t, c, 1)

	// Sever every open conn server-side, as a middlebox or network blip
	// would.
	c.wire.mu.Lock()
	for cn := range c.wire.open {
		cn.wc.Close()
	}
	c.wire.mu.Unlock()

	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(wire.MetricReconnects).Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server never observed the reconnect")
		}
		time.Sleep(2 * time.Millisecond)
	}
	waitWired(t, c, 1)
	if _, ok, err := c.Execute(context.Background(), testSpec(71)); !ok || err != nil {
		t.Fatalf("Execute after reconnect = (ok=%v, err=%v)", ok, err)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

// A hostile client cannot take the transport down: garbage after the
// handshake closes that conn (counted as a frame error) and the
// listener keeps serving. A peer from a build that framed "VMW2" is
// refused the same way, at its first frame.
func TestWireServerSurvivesHostileConn(t *testing.T) {
	reg := metrics.New()
	cfg := fastCadence()
	cfg.Metrics = reg
	c, srv := newTestPlane(t, cfg)
	addr := c.wire.addr

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	nc.Write([]byte("GET / HTTP/1.1\r\nHost: not-a-wire-client\r\n\r\n"))
	nc.Close()
	waitFrameErrors(t, reg, 1)

	// A VMW2 Hello, CRC and all, draws no HelloAck: the conn closes.
	old, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	old.Write(frame.Append(nil, [4]byte{'V', 'M', 'W', '2'}, []byte{byte(wire.Hello)}, []byte(`{"worker_id":"w0001"}`)))
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := old.Read(make([]byte, 1)); n != 0 || err == nil {
		t.Fatalf("VMW2 Hello answered: %d bytes, err %v", n, err)
	}
	waitFrameErrors(t, reg, 2)

	// The transport still serves a real worker afterwards.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := NewWorker(WorkerConfig{Server: srv.URL, Name: "after-hostile", Reconnect: fastReconnect()})
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, c, 1)
	waitWired(t, c, 1)
	if _, ok, err := c.Execute(context.Background(), testSpec(73)); !ok || err != nil {
		t.Fatalf("Execute after hostile conn = (ok=%v, err=%v)", ok, err)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}

	// A worker the coordinator does not know is rejected at Hello and
	// told why, so it can re-register.
	nc2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc2.Close()
	conn := wire.NewConn(nc2)
	conn.Send(wire.Hello, []byte(`{"worker_id":"w9999"}`))
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ft, payload, err := conn.Recv()
	if err != nil || ft != wire.HelloAck {
		t.Fatalf("unknown-worker Hello: frame %d, err %v", ft, err)
	}
	var ack helloAckPayload
	if err := json.Unmarshal(payload, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.OK || ack.Error == "" {
		t.Fatalf("unknown worker accepted: %+v", ack)
	}
}

// A conn that closes before sending a byte is a probe (a port scan, a
// load balancer's TCP check), not a framing fault, so the handshake
// drops it without counting; a conn that dies inside its first frame
// header still counts. Each conn is served to completion on the test's
// goroutine, over a pipe, so the counter is read after the handshake
// has run.
func TestWireServerBareConnectNotAFrameError(t *testing.T) {
	reg := metrics.New()
	cfg := fastCadence()
	cfg.Metrics = reg
	c, _ := newTestPlane(t, cfg)
	serve := func(sent []byte) {
		client, server := net.Pipe()
		go func() {
			if len(sent) > 0 {
				client.Write(sent)
			}
			client.Close()
		}()
		c.wire.wg.Add(1)
		c.wire.serveConn(wire.NewConn(server))
	}

	serve(nil)
	if n := reg.Counter(wire.MetricFrameErrors).Value(); n != 0 {
		t.Fatalf("bare connect counted: frame errors = %d, want 0", n)
	}
	hello := wire.AppendFrame(nil, wire.Hello, []byte(`{"worker_id":"w0001"}`))
	serve(hello[:frame.HeaderLen-3])
	if n := reg.Counter(wire.MetricFrameErrors).Value(); n != 1 {
		t.Fatalf("torn header: frame errors = %d, want 1", n)
	}
}

// waitFrameErrors waits until the wire server has counted n frame
// errors.
func waitFrameErrors(t *testing.T, reg *metrics.Registry, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter(wire.MetricFrameErrors).Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("frame errors = %d, want %d", reg.Counter(wire.MetricFrameErrors).Value(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A wire session that dies with a grant still queued must not strand
// it, and must not lose the result of the unit that was executing:
// the queued grant leaves the held set, so the next session's
// heartbeats stop renewing its lease and the coordinator reassigns it;
// and the reader closes the dead conn, so the executing unit's
// completion fails to send instead of being written into the dead
// socket (and re-run once its lease expired), stays held, and goes out
// first on the next session.
func TestWireSessionLossReleasesQueuedGrants(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // one trial slot, so the second grant waits queued
	// No heartbeat falls between the sever and the completion: its write
	// would draw a reset and fail the completion's Send by itself.
	cfg := CoordinatorConfig{
		LeaseTTL:          1500 * time.Millisecond,
		HeartbeatInterval: 500 * time.Millisecond,
		WorkerTTL:         time.Hour,
		ShardTrials:       1,
	}
	c, srv := newTestPlane(t, cfg)

	gate := make(chan struct{})
	granted := make(chan struct{}, 16)
	var mu sync.Mutex
	runs := map[int]int{} // trial start → executions
	w := NewWorker(WorkerConfig{
		Server: srv.URL, Name: "severed", Reconnect: fastReconnect(),
		OnLease: func(Unit) { granted <- struct{}{} },
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			mu.Lock()
			runs[u.Start]++
			first := len(runs) == 1 && runs[u.Start] == 1
			mu.Unlock()
			if first {
				<-gate
			}
			return u.Run()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, c, 1)
	waitWired(t, c, 1)

	spec := shardSpec(74, 2)
	res := executeAsync(c, context.Background(), spec)
	<-granted
	<-granted // one unit executing (gated), one queued behind it

	c.wire.mu.Lock()
	for cn := range c.wire.open {
		cn.wc.Close()
	}
	c.wire.mu.Unlock()
	time.Sleep(50 * time.Millisecond) // let the worker's reader see the loss
	close(gate)

	select {
	case r := <-res:
		want, _ := experiments.RunScenario(spec)
		if !r.ok || r.err != nil || !reflect.DeepEqual(r.rows, want) {
			t.Fatalf("Execute after the sever = (ok=%v, err=%v)", r.ok, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Execute still waiting 5s after the sever: %+v", c.WorkersStatus())
	}
	mu.Lock()
	for start, n := range runs {
		if n != 1 {
			t.Errorf("unit at trial %d executed %d times, want 1", start, n)
		}
	}
	mu.Unlock()
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
}
