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
	"sync"
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
	// Log receives progress lines. Nil discards them.
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
	wc        WorkerConfig
	handshake CoordinatorHandshake
	client    *http.Client // registration and deregistration
	log       func(format string, args ...any)

	id         string
	completed  atomic.Int64
	sessions   atomic.Int64 // wire sessions established (first + reconnects)
	reconnects atomic.Int64

	// held maps each unit granted but not yet reported to its encoded
	// completion: nil while the unit is queued or executing, set once
	// it finished on a conn that died before the completion went out.
	// Heartbeats renew every held unit's lease, so an unsent completion
	// stays valid until the next session sends it.
	heldMu sync.Mutex
	held   map[string][]byte
}

// prefetch sizes the wire queue: a worker holds prefetch-1 units queued
// beyond the ones executing, so a finishing unit's slots go to the next
// without a round-trip.
const prefetch = 2

// CoordinatorHandshake is the cadence and transport address learned at
// registration.
type CoordinatorHandshake struct {
	LeaseTTL  time.Duration
	Heartbeat time.Duration
	Wire      string
}

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
		w.id, w.handshake.LeaseTTL, w.handshake.Heartbeat, w.handshake.Wire)

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
// an earlier session could not, then execute granted units on
// runtime.GOMAXPROCS(0) executors and trial slots until the conn dies
// (returns the error), the worker is rejected (ErrUnknownWorker),
// drain completes (nil), or the abort channel closes (ErrAborted).
// established reports whether the handshake succeeded, so the caller
// can reset its backoff schedule.
func (w *Worker) runWire(ctx context.Context) (established bool, err error) {
	nc, err := net.DialTimeout("tcp", w.wireAddr(), 10*time.Second)
	if err != nil {
		return false, err
	}
	conn := wire.NewConn(nc)
	defer conn.Close()

	hello, _ := json.Marshal(helloPayload{WorkerID: w.id})
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
	if w.sessions.Add(1) > 1 {
		w.reconnects.Add(1) // a session after the first is a survived reconnect
	}
	// Completions the last session finished on a dead conn go out before
	// any new work is asked for.
	for id, payload := range w.unsentCompletions() {
		if err := w.sendComplete(conn, id, payload); err != nil {
			return true, err
		}
	}

	// One executor per GOMAXPROCS, as vmat-server's -workers 0 sizes its
	// job executors, sharing GOMAXPROCS trial slots: each unit takes its
	// trial width, so one-trial units run one per core, a unit whose
	// spec asks for every core runs alone as on a sequential worker, and
	// the trials running at once never exceed the cores. Demand follows
	// the slots (see executeGrants): the worker holds at most one unit
	// per slot plus prefetch-1 queued, which the grant queue can take.
	execs := runtime.GOMAXPROCS(0)
	slots := newTrialSlots(execs)
	depth := execs + prefetch - 1

	// The reader turns Grant frames into a unit queue; everything else
	// it ignores (forward compatibility). A framing violation or conn
	// loss closes the conn — so completions of units still executing
	// fail to send and wait for the next session instead of vanishing
	// into a dead socket — and surfaces on readErr, ending the session.
	// The queue holds every grant the worker's demand allows, so the
	// reader never waits on it.
	grants := make(chan Unit, depth)
	readErr := make(chan error, 1)
	stop := make(chan struct{}) // closed when the session winds down: no unit starts after it
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			t, payload, err := conn.Recv()
			if err == nil && t != wire.Grant {
				continue
			}
			var units []Unit
			if err == nil {
				units, err = shard.DecodeBatch(payload) // hostile or torn grant: drop the conn
			}
			if err != nil {
				conn.Close()
				readErr <- err
				return
			}
			for _, u := range units {
				w.hold(u.ID, nil)
				if w.wc.OnLease != nil {
					w.wc.OnLease(u)
				}
				select {
				case grants <- u:
				case <-stop:
					w.release(u.ID) // winding down: this grant never starts
				}
			}
		}
	}()

	// One heartbeat loop per conn, held units piggybacked. It beats
	// even when idle: the frame doubles as the keepalive that stops
	// the coordinator's read deadline from reaping a quiet conn.
	beatDone := make(chan struct{})
	go func() {
		defer close(beatDone)
		hb := w.handshake.Heartbeat
		if hb <= 0 {
			hb = time.Second
		}
		tick := time.NewTicker(hb)
		defer tick.Stop()
		for {
			select {
			case <-readerDone:
				return // the conn is gone
			case <-w.wc.Abort:
				return // a crashed worker stops beating; that's the point
			case <-tick.C:
				beat, _ := json.Marshal(HeartbeatRequest{WorkerID: w.id, Units: w.heldIDs()})
				if err := conn.Send(wire.Heartbeat, beat); err != nil {
					return // reader will surface the conn loss
				}
			}
		}
	}()

	execErr := make(chan error, execs)
	var running sync.WaitGroup
	for i := 0; i < execs; i++ {
		running.Add(1)
		go func() {
			defer running.Done()
			if err := w.executeGrants(conn, grants, slots, stop); err != nil {
				execErr <- err
			}
		}()
	}
	if err = w.sendWant(conn, prefetch); err == nil {
		select {
		case <-ctx.Done(): // graceful drain
		case <-w.wc.Abort:
		case err = <-readErr:
		case err = <-execErr:
		}
	}
	// Wind down: no unit starts, every executing one finishes and
	// reports (or, on a dead conn, keeps its completion for the next
	// session) — except after a crash, which reports nothing.
	close(stop)
	running.Wait()
	switch {
	case w.aborted():
		err = ErrAborted
	case err == nil:
		// Graceful drain: queued grants are released by the Bye
		// (deregistering requeues our leases at once). The coordinator
		// closes the conn once it has handled the Bye, and so every
		// completion sent before it; wait for that, or Run's HTTP
		// deregister could overtake them and expire their leases. On a
		// dead conn that deregister drops the unsent completions: the
		// coordinator requeues their units and another worker reruns
		// them, to the same rows.
		if conn.Send(wire.Bye, nil) == nil {
			select {
			case <-readerDone:
			case <-time.After(handshakeTimeout):
			}
		}
	}
	conn.Close() // ends the reader, and with it the heartbeat loop
	<-readerDone
	<-beatDone
	// Grants that never started leave the held set, so the next
	// session's heartbeats stop renewing them: their leases expire and
	// the coordinator reassigns them.
	for {
		select {
		case u := <-grants:
			w.release(u.ID)
		default:
			return true, err
		}
	}
}

// executeGrants is one wire executor: it runs granted units until the
// session winds down. A unit starts once it holds its trial width in
// slots; a grant still waiting for them when the session winds down
// never starts. Demand tracks the slots: the opening Want is prefetch,
// a unit that starts with slots to spare asks for one more unit to fill
// them, and a unit that finishes with every slot taken asks for its
// replacement. At GOMAXPROCS=1, or with units that take every slot,
// that is the sequential worker's one executing plus prefetch-1 queued.
func (w *Worker) executeGrants(conn *wire.Conn, grants <-chan Unit, slots *trialSlots, stop <-chan struct{}) error {
	for {
		select {
		case <-stop:
			return nil
		case u := <-grants:
			width := trialWidth(u, slots.size())
			started, room := slots.acquire(width, stop)
			if !started {
				w.release(u.ID) // winding down: this grant never starts
				return nil
			}
			if w.aborted() {
				slots.release(width)
				return ErrAborted // crashed between grant and execution
			}
			if room {
				w.sendWant(conn, 1) // a dead conn surfaces on readErr
			}
			u.Spec.Workers = width
			err := w.executeWireUnit(conn, u)
			wasFull := slots.release(width)
			if err != nil {
				return err
			}
			select {
			case <-stop:
				return nil // winding down: a fresh grant would only be released again
			default:
			}
			if wasFull {
				if err := w.sendWant(conn, 1); err != nil {
					return err
				}
			}
		}
	}
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

// trialSlots is a wire session's budget of trials running at once,
// shared by its executors. Units take their slots one acquirer at a
// time in arrival order, so a wide unit is not starved by narrow ones
// behind it and two units never each hold part of what both need.
type trialSlots struct {
	turn  chan struct{} // one token: its holder is the next unit to start
	mu    sync.Mutex
	free  int
	total int
	freed chan struct{} // wakes the turn holder after a release
}

func newTrialSlots(n int) *trialSlots {
	return &trialSlots{turn: make(chan struct{}, 1), free: n, total: n, freed: make(chan struct{}, 1)}
}

func (s *trialSlots) size() int { return s.total }

// acquire takes k slots and reports whether any are left free, or takes
// none if stop has closed by the time they are: no unit starts once the
// session winds down.
func (s *trialSlots) acquire(k int, stop <-chan struct{}) (started, room bool) {
	select {
	case s.turn <- struct{}{}:
	case <-stop:
		return false, false
	}
	defer func() { <-s.turn }()
	for {
		s.mu.Lock()
		select {
		case <-stop:
			s.mu.Unlock()
			return false, false
		default:
		}
		if s.free >= k {
			s.free -= k
			room = s.free > 0
			s.mu.Unlock()
			return true, room
		}
		s.mu.Unlock()
		select {
		case <-s.freed:
		case <-stop:
		}
	}
}

// release returns k slots and reports whether every slot was taken
// before it.
func (s *trialSlots) release(k int) (wasFull bool) {
	s.mu.Lock()
	wasFull = s.free == 0
	s.free += k
	s.mu.Unlock()
	select {
	case s.freed <- struct{}{}:
	default:
	}
	return wasFull
}

// executeWireUnit runs one granted unit and streams the completion
// back over the conn.
func (w *Worker) executeWireUnit(conn *wire.Conn, unit Unit) error {
	w.log("running %s", unit.ID)
	req, crashed := w.runUnit(unit)
	if crashed {
		return ErrAborted // crashed mid-unit: no completion report
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("cluster: encode completion for %s: %v", unit.ID, err)
	}
	return w.sendComplete(conn, unit.ID, payload)
}

// sendComplete reports one finished unit. The unit leaves the held set
// only once its completion is sent: if the conn is dead, the result is
// too valuable to drop, so it stays held with its completion — the
// heartbeats keep its lease alive — for the next session to send.
func (w *Worker) sendComplete(conn *wire.Conn, unitID string, payload []byte) error {
	if err := conn.Send(wire.Complete, payload); err != nil {
		w.hold(unitID, payload)
		return err
	}
	w.release(unitID)
	w.completed.Add(1)
	w.log("completed %s", unitID)
	return nil
}

// runUnit executes one unit under the abort watch and assembles its
// verified completion. crashed means the simulated fail-stop fired
// during execution, so nothing may be reported.
func (w *Worker) runUnit(unit Unit) (req CompleteRequest, crashed bool) {
	runCtx, cancelRun := context.WithCancel(context.Background())
	go func() { // a crash aborts the execution itself, not just the loop
		select {
		case <-w.wc.Abort:
			cancelRun()
		case <-runCtx.Done():
		}
	}()
	unit.Spec.Context = runCtx
	rows, runErr := w.wc.RunUnit(unit)
	cancelRun()
	if w.aborted() {
		return CompleteRequest{}, true
	}
	return w.buildComplete(unit, rows, runErr), false
}

// buildComplete assembles the verified completion payload for a unit.
func (w *Worker) buildComplete(unit Unit, rows []experiments.ScenarioRow, runErr error) CompleteRequest {
	req := CompleteRequest{WorkerID: w.id, UnitID: unit.ID, Key: unit.Key}
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

// hold records a unit this worker holds, for the piggybacked
// heartbeats, with its completion once one failed to send.
func (w *Worker) hold(unitID string, completion []byte) {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	w.held[unitID] = completion
}

// release forgets a unit that was reported or will never start.
func (w *Worker) release(unitID string) {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	delete(w.held, unitID)
}

// unsentCompletions returns the encoded completions waiting for a
// session to send them, by unit ID.
func (w *Worker) unsentCompletions() map[string][]byte {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	unsent := map[string][]byte{}
	for id, completion := range w.held {
		if completion != nil {
			unsent[id] = completion
		}
	}
	return unsent
}

func (w *Worker) heldIDs() []string {
	w.heldMu.Lock()
	defer w.heldMu.Unlock()
	ids := make([]string, 0, len(w.held))
	for id := range w.held {
		ids = append(ids, id)
	}
	return ids
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
	addr := w.handshake.Wire
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
	w.id = resp.WorkerID
	w.handshake = CoordinatorHandshake{LeaseTTL: resp.LeaseTTL, Heartbeat: resp.Heartbeat, Wire: resp.Wire}
	w.heldMu.Lock()
	w.held = map[string][]byte{}
	w.heldMu.Unlock()
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
	if w.id != "" {
		if err := w.post("/v1/cluster/deregister", DeregisterRequest{WorkerID: w.id}, nil); err != nil && !errors.Is(err, ErrUnknownWorker) {
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
