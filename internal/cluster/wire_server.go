package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/shard"
	"repro/internal/wire"
)

// wireServer is the coordinator's side of the streaming transport: a
// TCP listener accepting one persistent conn per registered worker.
// Each conn runs two goroutines — a reader dispatching Want / Complete
// / Heartbeat / Bye frames into the coordinator, and a feeder pushing
// Grant batches whenever the worker has advertised demand and the
// queue has work. Grants are demand-driven (the worker says how many
// units it can hold) and push-based (Execute wakes the feeders), so an
// idle fleet costs zero round-trips and a submitted scenario starts on
// every worker within one scheduler wake.
type wireServer struct {
	c    *Coordinator
	ln   net.Listener
	addr string // advertised host:port

	framesIn  *metrics.Counter
	framesOut *metrics.Counter
	frameErrs *metrics.Counter
	reconn    *metrics.Counter
	conns     *metrics.Gauge

	mu      sync.Mutex
	cond    *sync.Cond // wakes feeders on demand or work changes
	workGen uint64     // bumped by wake(); feeders re-lease when it moves
	open    map[*wireConn]struct{}
	seen    map[string]bool // worker IDs that have had a conn (reconnect metric)
	closed  bool

	wg sync.WaitGroup
}

// wireConn is one worker's persistent conn. demand and dead are
// guarded by the server's mu (the feeder waits on the server cond).
type wireConn struct {
	wc       *wire.Conn
	workerID string
	demand   int
	dead     bool
}

// handshakeTimeout bounds how long an accepted conn may stall before
// its Hello arrives.
const handshakeTimeout = 10 * time.Second

// StartWire hosts the streaming transport on addr (host:port, :0 picks
// a free port) and returns the address workers should dial. Subsequent
// Register responses advertise it. Call once, before workers register;
// Close tears it down.
func (c *Coordinator) StartWire(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("cluster: wire listener: %w", err)
	}
	s := &wireServer{
		c:         c,
		ln:        ln,
		addr:      ln.Addr().String(),
		framesIn:  c.reg.Counter(wire.MetricFramesReceived),
		framesOut: c.reg.Counter(wire.MetricFramesSent),
		frameErrs: c.reg.Counter(wire.MetricFrameErrors),
		reconn:    c.reg.Counter(wire.MetricReconnects),
		conns:     c.reg.Gauge(wire.MetricConnsActive),
		open:      map[*wireConn]struct{}{},
		seen:      map[string]bool{},
	}
	s.cond = sync.NewCond(&s.mu)
	c.mu.Lock()
	if c.wire != nil {
		c.mu.Unlock()
		ln.Close()
		return "", errors.New("cluster: wire transport already started")
	}
	c.wire = s
	c.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	c.log("cluster: streaming transport listening on %s", s.addr)
	return s.addr, nil
}

// wake bumps the work generation and broadcasts to every feeder.
func (s *wireServer) wake() {
	s.mu.Lock()
	s.workGen++
	s.cond.Broadcast()
	s.mu.Unlock()
}

// connCount reports live conns for /healthz.
func (s *wireServer) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.open)
}

// close stops the listener and every conn, then waits for their
// goroutines.
func (s *wireServer) close() {
	s.mu.Lock()
	s.closed = true
	for cn := range s.open {
		cn.dead = true
		cn.wc.Close()
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

func (s *wireServer) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(wire.NewConn(nc))
	}
}

// serveConn runs one conn's handshake, feeder, and read loop.
func (s *wireServer) serveConn(wc *wire.Conn) {
	defer s.wg.Done()
	defer wc.Close()

	wc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	t, payload, err := wc.Recv()
	if err == io.EOF {
		// Closed before its first byte: a port probe or a load
		// balancer's TCP check, not a malformed frame. Recv returns a
		// bare io.EOF only at a frame boundary, so a torn or garbled
		// first frame still counts below.
		return
	}
	if err != nil || t != wire.Hello {
		s.frameErrs.Inc()
		return
	}
	var hello helloPayload
	if err := json.Unmarshal(payload, &hello); err != nil {
		s.frameErrs.Inc()
		return
	}
	if !s.c.workerKnown(hello.WorkerID) {
		// Reject but tell the worker why: it re-registers over HTTP and
		// comes back with a fresh identity.
		ack, _ := json.Marshal(helloAckPayload{Error: "unknown worker"})
		wc.Send(wire.HelloAck, ack)
		return
	}
	ack, _ := json.Marshal(helloAckPayload{OK: true})
	if err := wc.Send(wire.HelloAck, ack); err != nil {
		return
	}

	cn := &wireConn{wc: wc, workerID: hello.WorkerID}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.seen[cn.workerID] {
		s.reconn.Inc() // same identity, new conn: a reconnect survived
	}
	s.seen[cn.workerID] = true
	s.open[cn] = struct{}{}
	s.conns.Set(int64(len(s.open)))
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		cn.dead = true
		delete(s.open, cn)
		s.conns.Set(int64(len(s.open)))
		s.cond.Broadcast() // release the feeder
		s.mu.Unlock()
	}()

	s.wg.Add(1)
	go s.feed(cn)
	s.readLoop(cn)
}

// readLoop dispatches the worker's frames until the conn dies. Every
// frame refreshes the worker's liveness (the piggybacked heartbeat);
// a framing violation closes the conn — the worker reconnects and
// re-syncs, exactly like the journal truncates a torn tail.
func (s *wireServer) readLoop(cn *wireConn) {
	for {
		cn.wc.SetReadDeadline(time.Now().Add(s.c.cfg.WorkerTTL))
		t, payload, err := cn.wc.Recv()
		if err != nil {
			if errors.Is(err, wire.ErrBadFrame) {
				s.frameErrs.Inc()
				s.c.log("cluster: closing wire conn of %s: %v", cn.workerID, err)
			}
			return
		}
		s.framesIn.Inc()
		s.c.touchWorker(cn.workerID)
		switch t {
		case wire.Want:
			var want wantPayload
			if err := json.Unmarshal(payload, &want); err != nil || want.N < 0 || want.N > 1<<16 {
				s.frameErrs.Inc()
				return
			}
			s.mu.Lock()
			cn.demand += want.N
			s.cond.Broadcast()
			s.mu.Unlock()
		case wire.Heartbeat:
			var req HeartbeatRequest
			if err := json.Unmarshal(payload, &req); err != nil {
				s.frameErrs.Inc()
				return
			}
			req.WorkerID = cn.workerID // the conn's identity, not the payload's
			if err := s.c.Heartbeat(req); errors.Is(err, ErrUnknownWorker) {
				return // expired under us; drop the conn so the worker re-registers
			}
		case wire.Complete:
			var req CompleteRequest
			if err := json.Unmarshal(payload, &req); err != nil {
				s.frameErrs.Inc()
				return
			}
			req.WorkerID = cn.workerID
			s.c.Complete(req) // always nil for in-process coordinators
		case wire.Bye:
			s.c.Deregister(cn.workerID)
			return
		default:
			// Unknown frame types are ignored for forward compatibility.
		}
	}
}

// feed pushes Grant batches to one conn whenever it has demand and the
// queue has work. It leases outside the server lock (Lease takes the
// coordinator lock) and re-checks the work generation around the
// attempt so a unit enqueued between "queue empty" and "wait" cannot
// be missed.
func (s *wireServer) feed(cn *wireConn) {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for cn.demand == 0 && !cn.dead && !s.closed {
			s.cond.Wait()
		}
		if cn.dead || s.closed {
			s.mu.Unlock()
			return
		}
		want := cn.demand
		gen := s.workGen
		s.mu.Unlock()

		batch := make([]Unit, 0, want)
		for len(batch) < want {
			u, err := s.c.Lease(cn.workerID)
			if err != nil {
				cn.wc.Close() // unknown worker: force a re-register
				return
			}
			if u == nil {
				break
			}
			batch = append(batch, *u)
		}
		if len(batch) == 0 {
			// No work right now: sleep until the generation moves (new
			// units, a requeue) or the conn dies.
			s.mu.Lock()
			for s.workGen == gen && !cn.dead && !s.closed {
				s.cond.Wait()
			}
			s.mu.Unlock()
			continue
		}
		payload, err := shard.EncodeBatch(batch)
		if err != nil {
			s.c.log("cluster: encoding grant for %s failed: %v", cn.workerID, err)
			cn.wc.Close()
			return
		}
		if err := cn.wc.Send(wire.Grant, payload); err != nil {
			// Conn died with leases granted; the lease TTL reclaims them.
			return
		}
		s.framesOut.Inc()
		s.mu.Lock()
		cn.demand -= len(batch)
		if cn.demand < 0 {
			cn.demand = 0
		}
		s.mu.Unlock()
	}
}
