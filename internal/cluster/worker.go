package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/backoff"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/wire"
)

// WorkerConfig configures a worker client. Server is required; zero
// values elsewhere pick serving defaults.
type WorkerConfig struct {
	// Server is the coordinator's base URL, e.g. http://host:8080.
	Server string
	// Name identifies this worker in logs and per-worker metrics; it is
	// stable across restarts (the coordinator-assigned ID is not).
	// Defaults to the assigned ID.
	Name string
	// Version is reported at registration.
	Version string
	// Reconnect is the backoff schedule for re-dialling the streaming
	// transport and re-registering after a conn loss or coordinator
	// restart. Jittered by default so a restarted coordinator is not
	// greeted by the whole fleet in lockstep. Zero picks
	// {Base: 100ms, Max: 5s, Jitter: 0.3}.
	Reconnect backoff.Policy
	// Log receives progress lines. Nil discards them. Units log from
	// their own goroutines, so it must be safe for concurrent use.
	Log func(format string, args ...any)
	// Metrics, when non-nil, receives the engine counters of every unit
	// the default RunUnit executes (core_executions_total and friends),
	// so a worker process can report how much engine work it really did —
	// the chaos harness sums this across the fleet to bound duplicate
	// execution. Ignored when RunUnit is overridden.
	Metrics *metrics.Registry

	// RunUnit overrides unit execution (tests use it to gate timing).
	// Nil runs the unit's own Run, its trial range.
	RunUnit func(Unit) ([]experiments.ScenarioRow, error)
	// OnLease, when non-nil, is called with each unit as its grant
	// arrives, before it is queued: the unit may start much later, or
	// never if the session winds down first.
	OnLease func(Unit)
	// Abort simulates a fail-stop crash for tests: when it closes, the
	// worker stops dead — mid-unit, with no completion report and no
	// deregistration — so its lease must expire and be reassigned.
	Abort <-chan struct{}
}

// Worker is the client side of the execution plane: register over
// HTTP, then stream units over one persistent wire conn (batched
// grants, streamed completions, piggybacked heartbeats) and run them
// side by side on GOMAXPROCS trial slots. It survives coordinator
// restarts: a lost conn or forgotten identity re-registers and
// reconnects on a jittered backoff without restarting the process.
type Worker struct {
	wc         WorkerConfig
	registered RegisterResponse // identity, cadence and wire address of the last registration
	client     *http.Client     // registration and deregistration
	log        func(format string, args ...any)

	completed  atomic.Int64
	sessions   int // wire sessions established (first + reconnects)
	reconnects atomic.Int64

	// held maps each unit granted but not yet reported to its encoded
	// completion: nil while the unit is queued or executing, set once
	// it finished on a conn that died before the completion went out.
	// Heartbeats renew every held unit's lease, so an unsent completion
	// stays valid until the next session sends it. Only the goroutine
	// running Run touches it.
	held map[string][]byte
}

// prefetch sizes the wire queue: a worker holds prefetch-1 units queued
// beyond the ones executing, so a finishing unit's slots go to the next
// without a round-trip.
const prefetch = 2

// NewWorker returns an unstarted worker client.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Reconnect.Base <= 0 {
		cfg.Reconnect = backoff.Policy{Base: 100 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.3}
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if cfg.RunUnit == nil {
		reg := cfg.Metrics
		cfg.RunUnit = func(u Unit) ([]experiments.ScenarioRow, error) {
			u.Spec.Metrics = reg
			return u.Run()
		}
	}
	return &Worker{wc: cfg, client: &http.Client{Timeout: 30 * time.Second}, log: cfg.Log, held: map[string][]byte{}}
}

// Completed returns how many units this worker finished and reported.
// Safe to call while Run is executing.
func (w *Worker) Completed() int { return int(w.completed.Load()) }

// Reconnects returns how many times the worker re-established its
// coordinator session (wire redial or full re-registration) after the
// first. Safe to call while Run is executing.
func (w *Worker) Reconnects() int { return int(w.reconnects.Load()) }

// Run is the worker's main loop. Cancelling ctx is the graceful-drain
// signal: the worker finishes every unit it is executing, reports the
// results, deregisters, and returns nil — mirroring vmat-server's
// SIGTERM drain. The test-only Abort channel instead stops the loop
// dead with ErrAborted. Conn loss and coordinator restarts are not
// exits: the worker redials, or re-registers, and resumes on a
// jittered backoff. A coordinator that advertises no streaming
// transport is one: Run returns an error.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		if ctx.Err() != nil {
			return nil // drained before ever joining the fleet
		}
		return err
	}
	w.log("registered as %s (lease TTL %s, heartbeat %s, wire %q)",
		w.registered.WorkerID, w.registered.LeaseTTL, w.registered.Heartbeat, w.registered.Wire)

	attempt := 0
	for {
		if w.aborted() {
			return ErrAborted
		}
		if ctx.Err() != nil {
			return w.deregister()
		}
		established, err := w.runWire(ctx)
		if established {
			attempt = 0 // the session worked before it broke; start the schedule over
		}
		switch {
		case err == nil:
			return w.deregister() // graceful drain finished inside the session
		case errors.Is(err, ErrAborted):
			return ErrAborted
		}
		w.log("wire session lost (%v), reconnecting", err)
		if !w.sleep(ctx, w.wc.Reconnect.Delay(attempt)) {
			continue // woken by ctx or abort; loop top decides
		}
		attempt++
		if errors.Is(err, ErrUnknownWorker) || !established {
			// The coordinator forgot us, or the transport could not even
			// be reached — a restarted coordinator hosts the wire on a
			// fresh port, so the stale address must be thrown away.
			// Re-register over HTTP (it retries its own backoff until
			// the coordinator is back) to refresh identity and address.
			w.log("re-registering with %s", w.wc.Server)
			if rerr := w.register(ctx); rerr != nil {
				if ctx.Err() != nil {
					return nil
				}
				return rerr
			}
		}
	}
}

// runWire is one streaming session: dial, Hello, send the completions
// an earlier session could not, then serve granted units until the
// conn dies (returns the error), the worker is rejected
// (ErrUnknownWorker), drain completes (nil), or the abort channel
// closes (ErrAborted). established reports whether the handshake
// succeeded, so the caller can reset its backoff schedule.
func (w *Worker) runWire(ctx context.Context) (established bool, err error) {
	nc, err := net.DialTimeout("tcp", w.wireAddr(), 10*time.Second)
	if err != nil {
		return false, err
	}
	conn := wire.NewConn(nc)
	defer conn.Close()

	hello, _ := json.Marshal(helloPayload{WorkerID: w.registered.WorkerID})
	if err := conn.Send(wire.Hello, hello); err != nil {
		return false, err
	}
	conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, payload, err := conn.Recv()
	if err != nil {
		return false, err
	}
	if t != wire.HelloAck {
		return false, fmt.Errorf("cluster: unexpected %d frame in handshake", t)
	}
	var ack helloAckPayload
	if err := json.Unmarshal(payload, &ack); err != nil {
		return false, err
	}
	if !ack.OK {
		return false, ErrUnknownWorker
	}
	conn.SetReadDeadline(time.Time{})
	if w.sessions++; w.sessions > 1 {
		w.reconnects.Add(1) // a session after the first is a survived reconnect
	}
	// Completions the last session finished on a dead conn go out before
	// any new work is asked for.
	for id, completion := range w.held {
		if completion == nil {
			continue
		}
		if err := conn.Send(wire.Complete, completion); err != nil {
			return true, err
		}
		w.reported(id)
	}
	return true, w.serve(ctx, conn)
}

// unitDone is what a unit's goroutine reports to the session loop once
// the unit ran and its completion was sent, or failed to be.
type unitDone struct {
	id         string
	width      int    // the trial slots the unit held
	completion []byte // the encoded completion, kept when it failed to send
	sendErr    error
	crashed    bool // the simulated crash fired: nothing was sent
}

// serve is a session's event loop. It alone owns the free trial slots,
// the FIFO of grants waiting for them, the held map, demand and
// heartbeats. A reader goroutine only decodes frames and hands grant
// batches to it; each unit runs on a goroutine of its own, sends its
// own completion and reports back (unitDone).
//
// A unit takes its trial width in slots (one-trial units run one per
// core, a unit whose spec asks for every core runs alone, and the
// trials running at once never exceed GOMAXPROCS). Units start in
// grant order: a unit at the head of the queue that does not fit holds
// back the ones behind it, so a wide unit is not starved by narrow
// ones. Demand follows the slots: the opening Want is prefetch, a unit
// that starts with slots to spare asks for one more, and a unit that
// finishes with every slot taken asks for its replacement. At
// GOMAXPROCS=1, or with units as wide as the cores, that is one unit
// executing and prefetch-1 queued.
//
// Once the session winds down (drain, abort, or a read or send error)
// no unit starts; the loop waits for every executing unit to report —
// on Abort, cancelling them and reporting nothing.
func (w *Worker) serve(ctx context.Context, conn *wire.Conn) error {
	batches := make(chan []Unit)
	var readErr error
	go func() {
		defer close(batches)
		for {
			t, payload, err := conn.Recv()
			if err == nil && t != wire.Grant {
				continue // forward compatibility
			}
			var units []Unit
			if err == nil {
				units, err = shard.DecodeBatch(payload) // hostile or torn grant: drop the conn
			}
			if err != nil {
				// Closing the conn makes the completions of units still
				// executing fail to send, so they stay held for the next
				// session instead of vanishing into a dead socket.
				conn.Close()
				readErr = err
				return
			}
			batches <- units
		}
	}()

	// The session context cancels every execution at once when the
	// simulated crash fires.
	runCtx, crash := context.WithCancel(context.Background())
	defer crash()
	every := w.registered.Heartbeat
	if every <= 0 {
		every = time.Second
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()

	slots := runtime.GOMAXPROCS(0)
	free, running := slots, 0
	var queue []Unit
	done := make(chan unitDone)
	// A nil channel never fires: each of these is cleared once its event
	// has happened for good.
	in, drain, abort, beat := batches, ctx.Done(), w.wc.Abort, ticker.C
	err := w.sendWant(conn, prefetch)
	winding := err != nil
	fail := func(e error) { // the conn is dead: stop starting and beating
		if err == nil {
			err = e
		}
		winding, beat = true, nil
		conn.Close()
	}
	for !winding || running > 0 {
		for !winding && len(queue) > 0 && !w.aborted() {
			u := queue[0]
			width := trialWidth(u, slots)
			if width > free {
				break // the head waits for slots, and the grants behind it for the head
			}
			queue, free, running = queue[1:], free-width, running+1
			u.Spec.Workers = width
			go func() { done <- w.execute(runCtx, conn, u) }()
			if free > 0 {
				if e := w.sendWant(conn, 1); e != nil {
					fail(e)
				}
			}
		}
		select {
		case <-drain:
			winding, drain = true, nil
		case <-abort:
			// A crashed worker stops beating at once; that's the point.
			winding, abort, beat = true, nil, nil
			crash()
		case units, ok := <-in:
			if !ok {
				in = nil
				fail(readErr)
				continue
			}
			for _, u := range units {
				w.held[u.ID] = nil
				if w.wc.OnLease != nil {
					w.wc.OnLease(u)
				}
			}
			queue = append(queue, units...)
		case d := <-done:
			wasFull := free == 0
			free, running = free+d.width, running-1
			switch {
			case d.crashed:
			case d.sendErr != nil:
				// Too valuable to drop: the unit stays held with its
				// completion (heartbeats keep its lease alive) for the
				// next session to send.
				w.held[d.id] = d.completion
				fail(d.sendErr)
			default:
				w.reported(d.id)
				if wasFull && !winding {
					if e := w.sendWant(conn, 1); e != nil {
						fail(e)
					}
				}
			}
		case <-beat:
			if e := w.heartbeat(conn); e != nil {
				fail(e)
			}
		}
	}

	if w.aborted() {
		err = ErrAborted // a crash reports nothing, not even a Bye
	}
	if err == nil && conn.Send(wire.Bye, nil) == nil {
		// Graceful drain: queued grants are released by the Bye
		// (deregistering requeues our leases at once). The coordinator
		// closes the conn once it has handled the Bye, and so every
		// completion sent before it; wait for that, or Run's HTTP
		// deregister could overtake them and expire their leases. On a
		// dead conn that deregister drops the unsent completions: the
		// coordinator requeues their units and another worker reruns
		// them, to the same rows.
		defer time.AfterFunc(handshakeTimeout, func() { conn.Close() }).Stop()
	} else {
		conn.Close()
	}
	for range batches {
		// Grants arriving now never start, so they are never held.
	}
	// Grants that never started leave the held set, so the next
	// session's heartbeats stop renewing them: their leases expire and
	// the coordinator reassigns them.
	for _, u := range queue {
		delete(w.held, u.ID)
	}
	return err
}

// trialWidth is how many trials unit runs at once on a worker with
// cores trial slots: its spec's Workers (0 means every core), at most
// cores and the unit's trial count.
func trialWidth(u Unit, cores int) int {
	width := u.Spec.Workers
	if width <= 0 || width > cores {
		width = cores
	}
	return max(1, min(width, u.End-u.Start))
}

// execute runs one granted unit, at the trial width in its spec, and
// streams its completion back over the conn. ctx is cancelled by the
// simulated crash, which aborts the execution itself and reports
// nothing.
func (w *Worker) execute(ctx context.Context, conn *wire.Conn, u Unit) unitDone {
	w.log("running %s", u.ID)
	d := unitDone{id: u.ID, width: u.Spec.Workers}
	u.Spec.Context = ctx
	rows, runErr := w.wc.RunUnit(u)
	if w.aborted() {
		d.crashed = true
		return d
	}
	payload, err := json.Marshal(w.buildComplete(u, rows, runErr))
	if err != nil {
		d.sendErr = fmt.Errorf("cluster: encode completion for %s: %v", u.ID, err)
		return d
	}
	d.completion, d.sendErr = payload, conn.Send(wire.Complete, payload)
	return d
}

// reported forgets a unit whose completion went out.
func (w *Worker) reported(unitID string) {
	delete(w.held, unitID)
	w.completed.Add(1)
	w.log("completed %s", unitID)
}

// buildComplete assembles the verified completion payload for a unit.
func (w *Worker) buildComplete(unit Unit, rows []experiments.ScenarioRow, runErr error) CompleteRequest {
	req := CompleteRequest{WorkerID: w.registered.WorkerID, UnitID: unit.ID, Key: unit.Key}
	if runErr != nil {
		req.Error = runErr.Error()
	} else {
		raw, err := json.Marshal(rows)
		if err != nil {
			req.Error = fmt.Sprintf("marshal rows: %v", err)
		} else {
			req.Rows = raw
			req.CRC32 = crc32.ChecksumIEEE(raw)
		}
	}
	return req
}

// aborted reports whether the simulated-crash channel has closed.
func (w *Worker) aborted() bool {
	select {
	case <-w.wc.Abort:
		return true
	default:
		return false
	}
}

// sleep waits d, returning true on a full sleep and false when ctx or
// the abort channel woke it early.
func (w *Worker) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	case <-w.wc.Abort:
		return false
	}
}

// heartbeat renews this worker's liveness and the lease of every unit
// it holds. A session beats even when idle: the frame doubles as the
// keepalive that stops the coordinator's read deadline from reaping a
// quiet conn.
func (w *Worker) heartbeat(conn *wire.Conn) error {
	units := make([]string, 0, len(w.held))
	for id := range w.held {
		units = append(units, id)
	}
	beat, _ := json.Marshal(HeartbeatRequest{WorkerID: w.registered.WorkerID, Units: units})
	return conn.Send(wire.Heartbeat, beat)
}

// sendWant advertises capacity for n more units.
func (w *Worker) sendWant(conn *wire.Conn, n int) error {
	payload, _ := json.Marshal(wantPayload{N: n})
	return conn.Send(wire.Want, payload)
}

// wireAddr resolves the advertised transport address: a listener bound
// to the unspecified address (":0", "[::]:p") advertises a host the
// worker cannot dial, so substitute the coordinator's HTTP host.
func (w *Worker) wireAddr() string {
	addr := w.registered.Wire
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	ip := net.ParseIP(host)
	if host == "" || (ip != nil && ip.IsUnspecified()) {
		if u, err := url.Parse(w.wc.Server); err == nil && u.Hostname() != "" {
			return net.JoinHostPort(u.Hostname(), port)
		}
	}
	return addr
}

// register joins the fleet, retrying transient failures on the
// reconnect schedule until ctx is cancelled or the crash channel
// closes. It learns the cadence and the wire address; a coordinator
// that advertises no streaming transport is an error. The new identity
// holds nothing: completions a session could not send are dropped, for
// a coordinator that forgot this worker has requeued their units.
func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	err := backoff.Retry(ctx, w.wc.Abort, w.wc.Reconnect, func() (bool, error) {
		rerr := w.post("/v1/cluster/register", RegisterRequest{Name: w.wc.Name, Version: w.wc.Version}, &resp)
		if rerr != nil {
			w.log("registration failed (%v), retrying", rerr)
			return false, nil
		}
		return true, nil
	})
	if errors.Is(err, backoff.ErrStopped) {
		return ErrAborted
	}
	if err != nil {
		return err
	}
	w.registered = resp
	clear(w.held)
	if resp.Wire == "" {
		return fmt.Errorf("cluster: coordinator at %s advertises no streaming transport", w.wc.Server)
	}
	return nil
}

// deregister leaves the fleet over HTTP and reports a clean exit. After
// a session's Bye it changes nothing; a drain with no live conn to
// carry a Bye needs it to release this worker's leases at once. Best
// effort — an unreachable coordinator will expire us anyway.
func (w *Worker) deregister() error {
	if id := w.registered.WorkerID; id != "" {
		if err := w.post("/v1/cluster/deregister", DeregisterRequest{WorkerID: id}, nil); err != nil && !errors.Is(err, ErrUnknownWorker) {
			w.log("deregister failed: %v", err)
		}
	}
	w.log("drained after %d completed units, deregistered", w.completed.Load())
	return nil
}

// post sends one JSON request and decodes the JSON response into out
// (when non-nil). A 404 maps to ErrUnknownWorker; other non-2xx codes
// surface the server's error body.
func (w *Worker) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := w.client.Post(w.wc.Server+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return ErrUnknownWorker
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("cluster: %s returned %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}
