package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
)

// CoordinatorConfig configures the coordinator. Zero values pick
// serving defaults.
type CoordinatorConfig struct {
	// LeaseTTL is how long a granted lease survives without a
	// heartbeat before it is reassigned. Default 10s.
	LeaseTTL time.Duration
	// HeartbeatInterval is the cadence workers are told to beat at.
	// Default LeaseTTL/3.
	HeartbeatInterval time.Duration
	// WorkerTTL is how long a worker may go silent (no wire frame,
	// heartbeats included) before it is expired and its leases
	// reassigned, and how long an emptied fleet keeps its pending units
	// for a new worker before they fall back to the local pool. Default
	// 3*HeartbeatInterval.
	WorkerTTL time.Duration
	// MaxAttempts bounds how many leases one unit may consume before
	// the coordinator abandons its scenario back to the local pool.
	// Default 3.
	MaxAttempts int
	// ShardTrials, when positive, splits each scenario into trial-range
	// units of at most this many trials (internal/shard), leased
	// independently and merged in trial order. Zero leases whole
	// scenarios — the pre-sharding behavior.
	ShardTrials int
	// Metrics receives cluster counters. Nil creates a private registry.
	Metrics *metrics.Registry
	// Log receives operational notices (worker churn, reassignments).
	// Nil discards them.
	Log func(format string, args ...any)
	// WireAdvertise, when set, is the streaming-transport address
	// Register hands to workers instead of the listener's own (the
	// listener may sit behind a proxy — the chaos harness severs conns at
	// one — or on an address unreachable from the fleet's network).
	WireAdvertise string
}

// group is one Execute call: a scenario split into one or more units.
// Every group owns a shard.Merger with one range per unit — a whole
// scenario is the single range [0, Trials) — so every result passes the
// same row-count and trial-index checks. The group — not the unit — is
// the terminal-state holder: exactly one close(done) follows finished
// or abandoned being set.
type group struct {
	key string        // parent scenario content address
	all []*unitState  // every unit of this scenario
	mrg *shard.Merger // one range per unit

	rows      []experiments.ScenarioRow
	errMsg    string
	abandoned bool
	finished  bool
	done      chan struct{}
}

// terminal reports whether the group reached its outcome. Guarded by
// the coordinator's mu.
func (g *group) terminal() bool { return g.finished || g.abandoned }

// unitState is one live unit: pending (worker == "") or leased.
type unitState struct {
	unit     Unit
	grp      *group
	shardIdx int // index into the group's shard plan (0 when whole)
	attempts int // leases granted so far
	worker   string
	expiry   time.Time
	finished bool // this unit completed (its group may still be open)
}

// workerState is one registered worker.
type workerState struct {
	id       string
	name     string
	version  string
	lastSeen time.Time
	lastBeat time.Time       // previous heartbeat, for the gap histogram
	units    map[string]bool // unit IDs currently leased to this worker
}

// Coordinator owns the worker table, the pending-unit queue, the lease
// table, and (when started) the streaming-transport listener. It
// implements service.Executor and service.WorkersReporter. All methods
// are safe for concurrent use.
type Coordinator struct {
	cfg CoordinatorConfig
	reg *metrics.Registry
	log func(format string, args ...any)

	mu         sync.Mutex
	draining   bool
	workers    map[string]*workerState
	pending    []*unitState          // FIFO of unleased units
	units      map[string]*unitState // every live unit (pending or leased)
	nextUnit   uint64
	nextWorker uint64
	expired    int64     // cumulative expired leases, for WorkersStatus
	emptySince time.Time // when the last worker left

	wire *wireServer // nil until StartWire

	closeOnce sync.Once
	closed    chan struct{}
	loopDone  chan struct{}

	connected  *metrics.Gauge
	active     *metrics.Gauge
	granted    *metrics.Counter
	expiredC   *metrics.Counter
	reassigned *metrics.Counter
	abandoned  *metrics.Counter
	stale      *metrics.Counter
	workerExp  *metrics.Counter
	shardsPl   *metrics.Counter
	shardsMg   *metrics.Counter
	assembled  *metrics.Counter
	hbGap      *metrics.Histogram
}

// NewCoordinator starts a coordinator and its lease-expiry loop. Call
// StartWire to host the streaming transport, and Close (after Drain)
// to stop everything.
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = cfg.LeaseTTL / 3
	}
	if cfg.WorkerTTL <= 0 {
		cfg.WorkerTTL = 3 * cfg.HeartbeatInterval
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:        cfg,
		reg:        cfg.Metrics,
		log:        cfg.Log,
		workers:    map[string]*workerState{},
		units:      map[string]*unitState{},
		closed:     make(chan struct{}),
		loopDone:   make(chan struct{}),
		connected:  cfg.Metrics.Gauge(MetricWorkersConnected),
		active:     cfg.Metrics.Gauge(MetricLeasesActive),
		granted:    cfg.Metrics.Counter(MetricLeasesGranted),
		expiredC:   cfg.Metrics.Counter(MetricLeasesExpired),
		reassigned: cfg.Metrics.Counter(MetricLeasesReassigned),
		abandoned:  cfg.Metrics.Counter(MetricUnitsAbandoned),
		stale:      cfg.Metrics.Counter(MetricResultsStale),
		workerExp:  cfg.Metrics.Counter(MetricWorkersExpired),
		shardsPl:   cfg.Metrics.Counter(MetricShardsPlanned),
		shardsMg:   cfg.Metrics.Counter(MetricShardsMerged),
		assembled:  cfg.Metrics.Counter(MetricScenariosAssembled),
		hbGap: cfg.Metrics.Histogram(MetricHeartbeatGap, []int64{
			1_000, 10_000, 100_000, 1_000_000, 10_000_000, 60_000_000,
		}),
	}
	go c.expiryLoop()
	return c
}

// Registry returns the registry the coordinator reports into.
func (c *Coordinator) Registry() *metrics.Registry { return c.reg }

// rejectResult counts one rejected completion by reason.
func (c *Coordinator) rejectResult(reason string) {
	c.reg.Counter(MetricResultsRejected + `{reason="` + reason + `"}`).Inc()
}

// sanitizeName restricts a worker-supplied name to [a-zA-Z0-9_.-]:
// the name is interpolated into the worker="..." metric label, where a
// quote, brace, or newline would corrupt the exposition format. The
// shared helper also guards tenant IDs in internal/tenant.
func sanitizeName(s string) string {
	return metrics.SanitizeLabel(s)
}

// Register admits a worker and assigns its identity and cadence. The
// response advertises the streaming transport when it is running.
func (c *Coordinator) Register(req RegisterRequest) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerState{
		id:       fmt.Sprintf("w%04d", c.nextWorker),
		name:     sanitizeName(req.Name),
		version:  req.Version,
		lastSeen: time.Now(),
		units:    map[string]bool{},
	}
	if w.name == "" {
		w.name = w.id
	}
	c.workers[w.id] = w
	c.connected.Set(int64(len(c.workers)))
	c.log("cluster: worker %s (%q, version %s) registered, fleet size %d",
		w.id, w.name, w.version, len(c.workers))
	resp := RegisterResponse{
		WorkerID:  w.id,
		LeaseTTL:  c.cfg.LeaseTTL,
		Heartbeat: c.cfg.HeartbeatInterval,
	}
	if c.wire != nil {
		resp.Wire = c.wire.addr
		if c.cfg.WireAdvertise != "" {
			resp.Wire = c.cfg.WireAdvertise
		}
	}
	return resp
}

// Deregister removes a worker gracefully. Any lease it still holds
// (there should be none on the graceful path) is reassigned at once.
func (c *Coordinator) Deregister(workerID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return ErrUnknownWorker
	}
	c.dropWorkerLocked(w, "deregistered")
	return nil
}

// dropWorkerLocked removes a worker and requeues its leases. Callers
// hold c.mu.
func (c *Coordinator) dropWorkerLocked(w *workerState, why string) {
	for unitID := range w.units {
		if u := c.units[unitID]; u != nil && u.worker == w.id {
			c.expireLeaseLocked(u)
		}
	}
	delete(c.workers, w.id)
	c.connected.Set(int64(len(c.workers)))
	if len(c.workers) == 0 {
		c.emptySince = time.Now()
	}
	c.log("cluster: worker %s (%q) %s, fleet size %d", w.id, w.name, why, len(c.workers))
}

// workerKnown reports whether the ID belongs to a registered worker;
// the wire handshake checks it before accepting a conn.
func (c *Coordinator) workerKnown(workerID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.workers[workerID]
	return ok
}

// touchWorker refreshes a worker's liveness. Every wire frame counts:
// a conn streaming completions is alive whether or not an explicit
// heartbeat is due — that is the piggyback.
func (c *Coordinator) touchWorker(workerID string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[workerID]; ok {
		w.lastSeen = time.Now()
	}
}

// Lease grants the oldest pending unit to the worker, or nil when there
// is no work. The wire server's grant feeder calls it once per unit.
func (c *Coordinator) Lease(workerID string) (*Unit, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[workerID]
	if !ok {
		return nil, ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	if c.draining || len(c.pending) == 0 {
		return nil, nil
	}
	u := c.pending[0]
	c.pending = c.pending[1:]
	u.attempts++
	u.worker = w.id
	u.expiry = w.lastSeen.Add(c.cfg.LeaseTTL)
	w.units[u.unit.ID] = true
	c.granted.Inc()
	c.active.Inc()
	unit := u.unit
	return &unit, nil
}

// Heartbeat refreshes the worker's liveness and extends the leases it
// reports holding. Unit IDs the worker no longer holds (expired and
// reassigned under it) are ignored — its eventual Complete will be
// verified on its own merits.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return ErrUnknownWorker
	}
	now := time.Now()
	if !w.lastBeat.IsZero() {
		c.hbGap.Observe(now.Sub(w.lastBeat).Microseconds())
	}
	w.lastBeat = now
	w.lastSeen = now
	for _, unitID := range req.Units {
		if u := c.units[unitID]; u != nil && u.worker == w.id {
			u.expiry = now.Add(c.cfg.LeaseTTL)
		}
	}
	return nil
}

// Complete accepts a finished unit after verifying it: the echoed key
// must match the unit's content address, the CRC32 must match the row
// bytes, and the rows must carry exactly the trial indices of the
// unit's range (every trial, for a whole scenario). The rows are merged,
// and the waiting Execute call returns the assembled scenario when its
// last unit merges; the job manager stores it. A failed check costs the
// reporter its lease — the unit is requeued under its attempt budget —
// but only when the reporter still holds the lease: a failed check or
// error report from a stale worker (expired and reassigned) must not
// release the current holder's lease, burn the unit's attempt budget,
// or terminate a unit another worker is executing. Completions for
// units the coordinator no longer tracks (finished by another worker,
// abandoned, or cancelled) are counted stale and acknowledged.
func (c *Coordinator) Complete(req CompleteRequest) error {
	c.mu.Lock()
	if w, ok := c.workers[req.WorkerID]; ok {
		w.lastSeen = time.Now()
	}
	u, ok := c.units[req.UnitID]
	if !ok {
		c.mu.Unlock()
		c.stale.Inc()
		return nil
	}
	g := u.grp
	holder := u.worker == req.WorkerID
	if req.Key != u.unit.Key {
		c.rejectLocked(u, holder, "content address mismatch from "+req.WorkerID)
		c.mu.Unlock()
		c.rejectResult("key")
		return nil
	}
	if req.Error != "" {
		if !holder {
			c.mu.Unlock()
			c.stale.Inc()
			return nil
		}
		// A deterministic execution failure: the remote run failed the
		// same way a local one would. The whole scenario completes as
		// failed — sibling shards of the same group are withdrawn; any
		// still executing will report stale completions.
		workerName := c.workerNameLocked(req.WorkerID)
		c.finishLocked(u)
		g.errMsg = req.Error
		c.finishGroupLocked(g)
		c.mu.Unlock()
		c.countCompleted(workerName)
		close(g.done)
		return nil
	}
	if crc32.ChecksumIEEE(req.Rows) != req.CRC32 {
		c.rejectLocked(u, holder, "CRC mismatch from "+req.WorkerID)
		c.mu.Unlock()
		c.rejectResult("crc")
		return nil
	}
	var rows []experiments.ScenarioRow
	if err := json.Unmarshal(req.Rows, &rows); err != nil {
		c.rejectLocked(u, holder, "undecodable rows from "+req.WorkerID)
		c.mu.Unlock()
		c.rejectResult("decode")
		return nil
	}
	workerName := c.workerNameLocked(req.WorkerID)
	// Merge-time validation (row count, trial indices) happens before the
	// unit finishes so a bad payload is a lease-costing reject, not a
	// wedged assembly.
	if err := g.mrg.Add(u.shardIdx, rows); err != nil {
		c.rejectLocked(u, holder, err.Error()+" from "+req.WorkerID)
		c.mu.Unlock()
		c.rejectResult("range")
		return nil
	}
	c.finishLocked(u)
	sharded := g.mrg.Shards() > 1
	if sharded {
		c.shardsMg.Inc()
	}
	if !g.mrg.Done() {
		c.mu.Unlock()
		c.countCompleted(workerName)
		return nil // more shards outstanding
	}
	g.rows = g.mrg.Rows()
	if sharded {
		c.assembled.Inc()
	}
	c.finishGroupLocked(g)
	c.mu.Unlock()
	c.countCompleted(workerName)
	close(g.done)
	return nil
}

// workerNameLocked resolves a worker ID to its stable name for the
// per-worker completion counter; an unknown (already expired) worker
// reports under its ID.
func (c *Coordinator) workerNameLocked(workerID string) string {
	if w, ok := c.workers[workerID]; ok {
		return w.name
	}
	return workerID
}

func (c *Coordinator) countCompleted(workerName string) {
	c.reg.Counter(MetricUnitsCompleted + `{worker="` + workerName + `"}`).Inc()
}

// finishLocked removes a unit that reached a verified terminal outcome
// from every table. Callers hold c.mu.
func (c *Coordinator) finishLocked(u *unitState) {
	if u.worker != "" {
		if w, ok := c.workers[u.worker]; ok {
			delete(w.units, u.unit.ID)
		}
		u.worker = ""
		c.active.Dec()
	} else {
		// A requeued unit completed late by its original holder must
		// leave the pending queue too, or it would be leased — and
		// executed — a second time after finishing.
		c.removePendingLocked(u)
	}
	u.finished = true
	delete(c.units, u.unit.ID)
}

// finishGroupLocked marks a group terminal and withdraws its remaining
// units (sibling shards of a failed or fully-assembled scenario).
// Callers hold c.mu and close g.done after unlocking.
func (c *Coordinator) finishGroupLocked(g *group) {
	g.finished = true
	c.withdrawGroupUnitsLocked(g)
}

// withdrawGroupUnitsLocked removes every still-live unit of g from the
// coordinator's tables. Leased siblings lose their lease; their
// eventual completions are counted stale. Callers hold c.mu.
func (c *Coordinator) withdrawGroupUnitsLocked(g *group) {
	for _, su := range g.all {
		if cur := c.units[su.unit.ID]; cur == su {
			c.releaseLeaseLocked(su)
			delete(c.units, su.unit.ID)
			c.removePendingLocked(su)
		}
	}
}

// rejectLocked handles a completion that failed verification: the
// reporter loses its lease and the unit is requeued, but only when the
// reporter actually holds the lease — a stale reporter's bad payload is
// its own problem, not the current holder's. Callers hold c.mu.
func (c *Coordinator) rejectLocked(u *unitState, holder bool, why string) {
	if !holder {
		c.stale.Inc()
		return
	}
	c.releaseLeaseLocked(u)
	c.requeueLocked(u, why)
}

// releaseLeaseLocked detaches a unit from its current holder without
// deciding its fate. Callers hold c.mu.
func (c *Coordinator) releaseLeaseLocked(u *unitState) {
	if u.worker == "" {
		return
	}
	if w, ok := c.workers[u.worker]; ok {
		delete(w.units, u.unit.ID)
	}
	u.worker = ""
	u.expiry = time.Time{}
	c.active.Dec()
}

// expireLeaseLocked handles one lease that outlived its TTL (or whose
// worker died): count the expiry, then requeue or abandon. Callers
// hold c.mu.
func (c *Coordinator) expireLeaseLocked(u *unitState) {
	c.expiredC.Inc()
	c.expired++
	c.releaseLeaseLocked(u)
	c.requeueLocked(u, "lease expired")
}

// requeueLocked puts a released unit back in the queue under its
// attempt budget, or abandons its whole group to the local pool: a
// scenario missing one shard can never be assembled, so sibling shards
// of an abandoned unit are worthless. Callers hold c.mu; an abandoned
// group's done channel is closed here (no field writes race: abandoned
// is set before close).
func (c *Coordinator) requeueLocked(u *unitState, why string) {
	if u.finished || u.grp.terminal() {
		return // already terminal; done is closed (or about to be)
	}
	if c.draining || u.attempts >= c.cfg.MaxAttempts {
		c.abandonGroupLocked(u.grp, fmt.Sprintf("unit %s after %d attempts: %s", u.unit.ID, u.attempts, why))
		return
	}
	c.pending = append(c.pending, u)
	c.reassigned.Inc()
	c.notifyWorkLocked()
	c.log("cluster: unit %s requeued (%s), attempt %d of %d", u.unit.ID, why, u.attempts, c.cfg.MaxAttempts)
}

// abandonGroupLocked hands a whole scenario back to the local pool:
// every live unit of the group is withdrawn (leased siblings' eventual
// completions become stale) and the waiting Execute call is released
// with ok=false. Callers hold c.mu.
func (c *Coordinator) abandonGroupLocked(g *group, why string) {
	if g.terminal() {
		return
	}
	g.abandoned = true
	c.abandoned.Inc()
	c.withdrawGroupUnitsLocked(g)
	c.log("cluster: scenario %.12s abandoned (%s); falling back to local execution", g.key, why)
	close(g.done)
}

// expiryLoop scans for expired leases and silent workers.
func (c *Coordinator) expiryLoop() {
	defer close(c.loopDone)
	tick := c.cfg.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.sweepExpired()
		}
	}
}

// sweepExpired reassigns every overdue lease, expires every silent
// worker, and once the fleet has been empty for a WorkerTTL hands the
// units it left pending to the local pool: a fleet that shrank to
// nothing must not strand work until a new worker happens to join.
func (c *Coordinator) sweepExpired() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, u := range c.units {
		if u.worker != "" && now.After(u.expiry) {
			c.expireLeaseLocked(u)
		}
	}
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) > c.cfg.WorkerTTL {
			c.workerExp.Inc()
			c.dropWorkerLocked(w, "expired (missed heartbeats)")
		}
	}
	if len(c.workers) == 0 && now.Sub(c.emptySince) > c.cfg.WorkerTTL {
		c.abandonPendingLocked("no workers left")
	}
}

// abandonPendingLocked hands every group with a pending unit back to
// the local pool. Callers hold c.mu.
func (c *Coordinator) abandonPendingLocked(why string) {
	pending := c.pending
	c.pending = nil
	for _, u := range pending {
		if u.finished || u.grp.terminal() {
			continue // already terminal; its done channel is closed
		}
		c.abandonGroupLocked(u.grp, why)
	}
}

// notifyWorkLocked wakes the wire server's grant feeders: pending work
// appeared. Callers hold c.mu (the wake itself is lock-free on the
// coordinator side).
func (c *Coordinator) notifyWorkLocked() {
	if c.wire != nil {
		c.wire.wake()
	}
}

// Execute implements service.Executor: it plans the spec into units
// (one per ShardTrials-sized trial range, or the whole scenario) and
// waits for the fleet to complete them all. ok=false means the fleet
// could not take the work — no workers connected, coordinator draining,
// or a unit's lease retry budget exhausted — and the caller should
// execute locally. A remote execution failure (the scenario itself
// erred) returns ok=true with that error, exactly as a local run would.
func (c *Coordinator) Execute(ctx context.Context, spec experiments.ScenarioConfig) ([]experiments.ScenarioRow, bool, error) {
	key, err := store.ScenarioKey(spec)
	if err != nil {
		return nil, false, nil // un-keyable spec: let the local path deal with it
	}
	c.mu.Lock()
	if c.draining || len(c.workers) == 0 {
		c.mu.Unlock()
		return nil, false, nil
	}
	g := &group{key: key, done: make(chan struct{})}
	if ranges := shard.Plan(spec.Trials, c.cfg.ShardTrials); ranges != nil {
		g.mrg = shard.NewMerger(ranges)
		c.shardsPl.Add(int64(len(ranges)))
		for i, r := range ranges {
			c.nextUnit++
			g.all = append(g.all, &unitState{
				unit: Unit{
					ID:     fmt.Sprintf("u%06d", c.nextUnit),
					Key:    shard.Key(key, r.Start, r.End),
					Parent: key,
					Start:  r.Start,
					End:    r.End,
					Spec:   spec,
				},
				grp:      g,
				shardIdx: i,
			})
		}
	} else {
		g.mrg = shard.NewMerger([]shard.Range{{Start: 0, End: spec.Trials}})
		c.nextUnit++
		g.all = []*unitState{{
			unit: Unit{ID: fmt.Sprintf("u%06d", c.nextUnit), Key: key, Spec: spec},
			grp:  g,
		}}
	}
	for _, u := range g.all {
		c.units[u.unit.ID] = u
		c.pending = append(c.pending, u)
	}
	c.notifyWorkLocked()
	c.mu.Unlock()

	select {
	case <-g.done:
		if g.abandoned {
			return nil, false, nil
		}
		if g.errMsg != "" {
			return nil, true, fmt.Errorf("cluster: remote execution failed: %s", g.errMsg)
		}
		return g.rows, true, nil
	case <-ctx.Done():
		// Cancelled or timed out: withdraw the whole group. Workers
		// already running its units will report stale completions,
		// which are counted and dropped.
		c.mu.Lock()
		if !g.terminal() {
			g.abandoned = true // terminal, but done is NOT closed: only Execute waits on it
			c.withdrawGroupUnitsLocked(g)
		}
		c.mu.Unlock()
		return nil, true, ctx.Err()
	}
}

// removePendingLocked drops u from the pending queue if present.
// Callers hold c.mu.
func (c *Coordinator) removePendingLocked(u *unitState) {
	for i, p := range c.pending {
		if p == u {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// WorkersStatus implements service.WorkersReporter for /healthz.
func (c *Coordinator) WorkersStatus() service.WorkersStatus {
	c.mu.Lock()
	active := 0
	for _, u := range c.units {
		if u.worker != "" {
			active++
		}
	}
	st := service.WorkersStatus{
		Connected:     len(c.workers),
		LeasesActive:  active,
		LeasesExpired: c.expired,
	}
	wire := c.wire
	c.mu.Unlock()
	if wire != nil {
		st.WireConnected = wire.connCount()
	}
	return st
}

// Drain stops granting leases, abandons every scenario that still has
// pending (unleased) units back to the local pool, and waits until no
// lease is in flight — workers finish and report their current units
// through the still-open listener and wire conns — or ctx expires. A
// sharded scenario whose every unit is leased drains to completion;
// one missing even a single unleased shard can never be assembled, so
// it is abandoned whole (its leased siblings' completions will be
// stale). Call before draining the sweep and job managers so their
// fallback executions still have a pool to run on.
func (c *Coordinator) Drain(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.abandonPendingLocked("drain")
	c.mu.Unlock()

	t := time.NewTicker(5 * time.Millisecond)
	defer t.Stop()
	for {
		c.mu.Lock()
		inFlight := len(c.units)
		c.mu.Unlock()
		if inFlight == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
}

// Close stops the expiry loop and the wire listener. Idempotent; call
// after Drain.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.mu.Lock()
		w := c.wire
		c.mu.Unlock()
		if w != nil {
			w.close()
		}
	})
	<-c.loopDone
}
