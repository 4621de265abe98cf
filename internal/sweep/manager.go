package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/backoff"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Status is a sweep's lifecycle state. A sweep is "done" once every
// cell reached a terminal outcome (including failures — the failed
// count says how many); "interrupted" means a drain stopped submission
// with cells still pending, and the sweep resumes from the store when
// an identical grid is resubmitted.
type Status string

const (
	StatusRunning     Status = "running"
	StatusDone        Status = "done"
	StatusInterrupted Status = "interrupted"
	StatusCancelled   Status = "cancelled"
)

func (s Status) terminal() bool { return s != StatusRunning }

// Errors returned by Submit/Get. HTTP maps ErrDraining to 503 and
// ErrNotFound to 404; expansion errors map to 400.
var (
	ErrDraining = errors.New("sweep: manager is draining, not accepting sweeps")
	ErrNotFound = errors.New("sweep: no such sweep")
)

// Metric names. Cell outcomes carry a source label, e.g.
// `sweep_cells_total{source="store"}`.
const (
	MetricSweepsSubmitted = "sweep_sweeps_submitted_total"
	MetricSweepsActive    = "sweep_sweeps_active"
	MetricCells           = "sweep_cells_total"
	// MetricSweepsAttached counts resubmissions of a grid identical (by
	// content address) to an already-open sweep, which attach to the
	// live sweep instead of double-enqueueing its cells.
	MetricSweepsAttached = "sweep_sweeps_attached_total"
	// MetricSweepsResumed counts sweeps resumed automatically from the
	// control-plane WAL after a restart.
	MetricSweepsResumed = "sweep_resumed_total"
)

// Crash-recovery metric names (reported by Recover; the store_ prefix
// groups them with the WAL/journal counters they summarize).
const (
	MetricRecoveryReplayed   = "store_recovery_replayed_records_total"
	MetricRecoveryReenqueued = "store_recovery_reenqueued_units_total"
	MetricRecoveryWallTime   = "store_recovery_wall_time_us"
)

// Cell sources recorded in results and metrics.
const (
	SourceExecuted = "executed" // ran through the service worker pool
	SourceStore    = "store"    // served from the persistent result store
	SourceFailed   = "failed"   // executed and failed
)

// Config configures a sweep Manager.
type Config struct {
	// Service executes cells that miss its result store, and stores
	// what they return. Required. The sweep looks each cell up in the
	// same store before submitting it, which makes sweeps restartable: a
	// resubmitted grid skips every cell the journal already holds.
	Service *service.Manager
	// Metrics receives sweep counters. Nil creates a private registry.
	Metrics *metrics.Registry
	// Log receives progress lines (expansion size, completion). Nil
	// discards them.
	Log func(format string, args ...any)
	// MaxInFlight bounds how many cells of one sweep are in the service
	// queue/worker pool at once, so a single sweep cannot monopolize
	// admission. Default 8.
	MaxInFlight int
	// Retain bounds how many terminal sweeps stay retrievable. Default 64.
	Retain int
	// WAL, when non-nil, makes sweeps crash-durable: the records
	// recovery acts on (sweep-opened, unit-completed for a failed cell,
	// sweep-closed) are appended to the control-plane write-ahead log,
	// and a server restarted over the same data dir resumes every open
	// sweep automatically via Recover.
	WAL *store.WAL
	// WALRecords is the replayed log handed to NewManager at startup.
	// When non-empty, the owner MUST call Recover (normally in a
	// goroutine, once the listener is up): submissions block until
	// recovery has rebuilt the open sweeps, so an early resubmission
	// cannot race a resuming sweep into a duplicate.
	WALRecords []store.WALRecord
}

// CellResult is one cell's outcome inside a sweep.
type CellResult struct {
	Index  int                        `json:"index"`
	Key    string                     `json:"key"`
	Source string                     `json:"source,omitempty"` // "", executed, store, failed
	Error  string                     `json:"error,omitempty"`
	Spec   experiments.ScenarioConfig `json:"spec"`
	Rows   []experiments.ScenarioRow  `json:"rows,omitempty"`
}

// Sweep is one submitted grid expansion working its way through the
// service.
type Sweep struct {
	id      string
	grid    Grid
	cells   []Cell
	gridKey string // content address over the ordered expanded cell keys
	owner   *tenant.Tenant
	done    chan struct{}

	stopOnce sync.Once
	stopped  chan struct{}

	mu        sync.Mutex
	status    Status
	reason    string
	executed  int
	cached    int
	failed    int
	results   []CellResult
	attached  map[string]bool // tenant IDs granted read access by attaching
	submitted time.Time
	finished  time.Time
}

// ID returns the sweep identifier.
func (s *Sweep) ID() string { return s.id }

// Tenant returns the owning tenant's ID.
func (s *Sweep) Tenant() string { return s.owner.ID() }

// grantAccess records that tenant id attached to this sweep by
// resubmitting the identical grid, so it may poll the live sweep it
// was handed back.
func (s *Sweep) grantAccess(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.attached == nil {
		s.attached = map[string]bool{}
	}
	s.attached[id] = true
}

// Accessible reports whether tenant id may read the sweep: its owner,
// or a tenant that attached to it. Attachment requires submitting the
// full identical grid, so read access leaks nothing the attacher did
// not already hold; cancel stays owner-only (see the HTTP layer).
func (s *Sweep) Accessible(id string) bool {
	if id == s.owner.ID() {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attached[id]
}

// Done is closed when the sweep reaches a terminal status.
func (s *Sweep) Done() <-chan struct{} { return s.done }

// Status returns the sweep's current state.
func (s *Sweep) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.status
}

// stop requests the run loop to stop submitting cells. The first
// reason wins.
func (s *Sweep) stop(status Status, reason string) {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		if !s.status.terminal() {
			s.status = status
			s.reason = reason
		}
		s.mu.Unlock()
		close(s.stopped)
	})
}

// sourceOf returns cell i's recorded source ("" while pending).
func (s *Sweep) sourceOf(i int) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.results[i].Source
}

// record stores one cell outcome.
func (s *Sweep) record(i int, source string, rows []experiments.ScenarioRow, errMsg string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.results[i].Source = source
	s.results[i].Rows = rows
	s.results[i].Error = errMsg
	switch source {
	case SourceExecuted:
		s.executed++
	case SourceStore:
		s.cached++
	case SourceFailed:
		s.failed++
	}
}

// View is the JSON projection of a sweep. Results are included only
// from the results endpoint — progress polls stay small.
type View struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Status   Status `json:"status"`
	Reason   string `json:"reason,omitempty"`
	Cells    int    `json:"cells"`
	Executed int    `json:"executed"`
	Cached   int    `json:"cached"`
	Failed   int    `json:"failed"`
	Pending  int    `json:"pending"`
	Grid     Grid   `json:"grid"`

	SubmittedAt string `json:"submitted_at"`
	FinishedAt  string `json:"finished_at,omitempty"`

	Results []CellResult `json:"results,omitempty"`
}

// View snapshots the sweep. includeResults additionally copies every
// cell result (specs and rows).
func (s *Sweep) View(includeResults bool) View {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := View{
		ID:          s.id,
		Tenant:      s.owner.ID(),
		Status:      s.status,
		Reason:      s.reason,
		Cells:       len(s.cells),
		Executed:    s.executed,
		Cached:      s.cached,
		Failed:      s.failed,
		Pending:     len(s.cells) - s.executed - s.cached - s.failed,
		Grid:        s.grid,
		SubmittedAt: s.submitted.UTC().Format(time.RFC3339Nano),
	}
	if !s.finished.IsZero() {
		v.FinishedAt = s.finished.UTC().Format(time.RFC3339Nano)
	}
	if includeResults {
		v.Results = append([]CellResult(nil), s.results...)
	}
	return v
}

// Manager owns the sweep table and one orchestration goroutine per
// active sweep.
type Manager struct {
	cfg Config
	reg *metrics.Registry
	log func(format string, args ...any)

	mu        sync.Mutex
	draining  bool
	sweeps    map[string]*Sweep
	open      map[string]*Sweep // non-terminal sweeps by grid content address
	doneOrder []string
	nextID    uint64
	wg        sync.WaitGroup

	// recoveryDone gates Submit: closed at construction when there is
	// nothing to recover, otherwise when Recover finishes rebuilding the
	// open sweeps.
	recoveryDone chan struct{}
	recMu        sync.Mutex
	rec          service.RecoveryStatus

	active *metrics.Gauge
}

// NewManager returns a sweep manager over the given service manager.
func NewManager(cfg Config) *Manager {
	if cfg.Service == nil {
		panic("sweep: Config.Service is required")
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 8
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 64
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	m := &Manager{
		cfg:          cfg,
		reg:          cfg.Metrics,
		log:          cfg.Log,
		sweeps:       map[string]*Sweep{},
		open:         map[string]*Sweep{},
		recoveryDone: make(chan struct{}),
		active:       cfg.Metrics.Gauge(MetricSweepsActive),
	}
	if len(cfg.WALRecords) > 0 {
		m.rec.Active = true // Recover must be called; Submit waits on it
	} else {
		close(m.recoveryDone)
	}
	return m
}

// RecoveryStatus implements service.RecoveryReporter for /healthz.
func (m *Manager) RecoveryStatus() service.RecoveryStatus {
	m.recMu.Lock()
	defer m.recMu.Unlock()
	return m.rec
}

// walAppend makes a control-plane transition durable. A failed append
// degrades recovery (the transition may replay stale after a crash) but
// must not fail serving, so it is logged and swallowed.
func (m *Manager) walAppend(recs ...store.WALRecord) {
	if m.cfg.WAL == nil {
		return
	}
	if err := m.cfg.WAL.Append(recs...); err != nil {
		m.log("sweep: control WAL append failed: %v", err)
	}
}

// newSweep builds the in-memory sweep for an expanded grid; the caller
// assigns its ID and registers it.
func newSweep(owner *tenant.Tenant, g Grid, cells []Cell) *Sweep {
	sw := &Sweep{
		owner:     owner,
		grid:      g,
		cells:     cells,
		gridKey:   cellsKey(cells),
		done:      make(chan struct{}),
		stopped:   make(chan struct{}),
		status:    StatusRunning,
		results:   make([]CellResult, len(cells)),
		submitted: time.Now(),
	}
	for i, c := range cells {
		sw.results[i] = CellResult{Index: i, Key: c.Key, Spec: c.Spec}
	}
	return sw
}

// Registry returns the registry the manager reports into (never nil).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Submit expands the grid and starts orchestrating it as the anonymous
// tenant — the pre-tenancy API, kept for library callers and tests.
func (m *Manager) Submit(g Grid) (*Sweep, error) {
	return m.SubmitAs(nil, g)
}

// tenants returns the front-door controller shared with the service
// manager (never nil: service.New opens one when unconfigured).
func (m *Manager) tenants() *tenant.Controller { return m.cfg.Service.Tenants() }

// SubmitAs expands the grid and starts orchestrating it on behalf of
// tenant t (nil means anonymous). Expansion errors (invalid cells, cap
// exceeded) are returned synchronously; a draining manager returns
// ErrDraining. A grid whose expansion is identical (by content address)
// to an already-open sweep attaches to that sweep instead of
// double-enqueueing its cells — the caller gets the live sweep back and
// polls it like its own; the result cache is shared across tenants, so
// attachment deliberately crosses tenant lines. Submissions block
// until startup recovery (if any) has rebuilt the open sweeps, so an
// early resubmission cannot race a resuming sweep.
//
// The sweep itself is admitted through the tenant's rate bucket (one
// token per sweep; its cells then pay per-cell tokens as they reach the
// job queue).
func (m *Manager) SubmitAs(t *tenant.Tenant, g Grid) (*Sweep, error) {
	<-m.recoveryDone
	if t == nil {
		t = m.tenants().Anonymous()
	}
	if err := m.tenants().AdmitSubmission(t); err != nil {
		return nil, err
	}
	cells, err := g.Expand()
	if err != nil {
		// The sweep never happened: give the rate token back.
		m.tenants().RefundSubmission(t)
		return nil, err
	}
	sw := newSweep(t, g, cells)

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.tenants().RefundSubmission(t)
		return nil, ErrDraining
	}
	if cur, ok := m.open[sw.gridKey]; ok && !cur.Status().terminal() {
		m.mu.Unlock()
		// The attaching tenant polls the shared sweep like its own, so
		// it needs read access across the tenant line.
		cur.grantAccess(t.ID())
		m.reg.Counter(MetricSweepsAttached).Inc()
		m.log("sweep %s: identical grid resubmitted, attached to the live sweep", cur.id)
		return cur, nil
	}
	m.nextID++
	sw.id = fmt.Sprintf("s%06d", m.nextID)
	m.sweeps[sw.id] = sw
	m.open[sw.gridKey] = sw
	m.wg.Add(1)
	m.mu.Unlock()

	// The opened record is durable before Submit returns, i.e. before
	// the acceptance is externally visible: a crash after this line
	// resumes the sweep, a crash before it never acknowledged one.
	if m.cfg.WAL != nil {
		raw, merr := json.Marshal(g)
		if merr != nil {
			raw = nil
		}
		m.walAppend(store.WALRecord{Kind: store.RecSweepOpened, Sweep: sw.id, Grid: raw})
	}

	m.reg.Counter(MetricSweepsSubmitted).Inc()
	m.active.Inc()
	m.log("sweep %s: grid expands to %d cells (cap %d)", sw.id, len(cells), g.cap())
	go m.run(sw)
	return sw, nil
}

// Get returns a sweep by ID.
func (m *Manager) Get(id string) (*Sweep, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw, ok := m.sweeps[id]
	return sw, ok
}

// Cancel stops a running sweep: no further cells are submitted, cells
// already in the service run to completion and are recorded. Cancelling
// a terminal sweep is a no-op.
func (m *Manager) Cancel(id string) (*Sweep, error) {
	sw, ok := m.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	sw.stop(StatusCancelled, "cancelled by client")
	return sw, nil
}

// Drain stops accepting sweeps, interrupts every active sweep's
// submission loop, waits for their in-flight cells to be recorded (the
// service manager must still be running; drain it after this returns),
// and flushes the store so every completed cell is durable for resume.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	actives := make([]*Sweep, 0, len(m.sweeps))
	for _, sw := range m.sweeps {
		actives = append(actives, sw)
	}
	m.mu.Unlock()
	interruptReason := "server draining; resubmit the grid to resume from the store"
	if m.cfg.WAL != nil {
		// The sweep stays open in the control-plane WAL (no sweep-closed
		// record), so the next server start resumes it unprompted.
		interruptReason = "server draining; the sweep resumes automatically on restart"
	}
	for _, sw := range actives {
		sw.stop(StatusInterrupted, interruptReason)
	}

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
	case <-ctx.Done():
		return ctx.Err()
	}
	if st := m.cfg.Service.Store(); st != nil {
		if err := st.Sync(); err != nil {
			return fmt.Errorf("sweep: flush store on drain: %w", err)
		}
	}
	return nil
}

// cellCounter counts one cell outcome by source.
func (m *Manager) cellCounter(source string) {
	m.reg.Counter(MetricCells + `{source="` + source + `"}`).Inc()
}

// finishCell records one terminal cell outcome and, for a failed cell,
// makes it durable in the control-plane WAL: on resume a pre-marked
// poison cell is not re-executed on every restart. Executed and stored
// cells write no WAL record, because the result journal is already
// their proof.
func (m *Manager) finishCell(sw *Sweep, i int, source string, rows []experiments.ScenarioRow, errMsg string) {
	sw.record(i, source, rows, errMsg)
	m.cellCounter(source)
	if source == SourceFailed {
		m.walAppend(store.WALRecord{Kind: store.RecUnitCompleted, Sweep: sw.id, Key: sw.cells[i].Key, Source: source, Error: errMsg})
	}
}

// run is the per-sweep orchestration loop: store lookup, bounded
// submission into the service, asynchronous collection.
func (m *Manager) run(sw *Sweep) {
	defer m.wg.Done()
	defer m.active.Dec()

	sem := make(chan struct{}, m.cfg.MaxInFlight)
	var wg sync.WaitGroup
submission:
	for i := range sw.cells {
		select {
		case <-sw.stopped:
			break submission
		default:
		}
		cell := sw.cells[i]

		// Cells already terminal before this loop started are recovered
		// pre-crash failures; re-executing them every restart would make
		// one poison cell an infinite loop of work.
		if sw.sourceOf(i) != "" {
			continue
		}

		// Store lookup first: a stored cell never touches the queue.
		if st := m.cfg.Service.Store(); st != nil {
			if rows, ok, _ := st.GetScenario(cell.Spec); ok {
				sw.record(i, SourceStore, rows, "")
				m.cellCounter(SourceStore)
				continue
			}
		}

		// Bound in-flight cells — first by this sweep's own cap, then by
		// the tenant's concurrent-cell quota — then submit; a full queue
		// is back-pressure, not failure — wait and retry.
		select {
		case sem <- struct{}{}:
		case <-sw.stopped:
			break submission
		}
		if !m.acquireCellSlot(sw) {
			<-sem
			break submission
		}
		job, err := m.submitCell(sw, cell)
		if err != nil {
			m.tenants().ReleaseSweepCell(sw.owner)
			<-sem
			if errors.Is(err, service.ErrDraining) {
				sw.stop(StatusInterrupted, "service draining; resubmit the grid to resume from the store")
			} else {
				// Cells were validated at expansion, so this is a
				// service-side failure worth recording against the cell.
				m.finishCell(sw, i, SourceFailed, nil, err.Error())
				continue
			}
			break submission
		}
		wg.Add(1)
		go func(i int, job *service.Job) {
			defer wg.Done()
			defer func() { <-sem }()
			defer m.tenants().ReleaseSweepCell(sw.owner)
			<-job.Done()
			m.collect(sw, i, job)
		}(i, job)
	}
	wg.Wait()

	sw.stop(StatusDone, "") // no-op if already interrupted/cancelled
	sw.mu.Lock()
	sw.finished = time.Now()
	status, executed, cached, failed := sw.status, sw.executed, sw.cached, sw.failed
	sw.mu.Unlock()
	// done and cancelled are final verdicts worth forgetting; an
	// interrupted sweep stays open in the WAL so the next server start
	// resumes it with no operator involved.
	if status == StatusDone || status == StatusCancelled {
		m.walAppend(store.WALRecord{Kind: store.RecSweepClosed, Sweep: sw.id, Status: string(status)})
	}
	m.log("sweep %s: %s (%d executed, %d cached, %d failed of %d cells)",
		sw.id, status, executed, cached, failed, len(sw.cells))
	close(sw.done)
	m.retire(sw)
}

// queueFullPolicy is the schedule for waiting out a saturated job
// queue: quick first retries (a worker slot frees on millisecond
// scales), flattening out so a long-stalled queue is not hammered.
var queueFullPolicy = backoff.Policy{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}

// acquireCellSlot claims one of the tenant's concurrent-sweep-cell
// slots, waiting on the backoff schedule while the quota is exhausted
// (another of the tenant's cells finishing frees one). Returns false if
// the sweep stopped while waiting.
func (m *Manager) acquireCellSlot(sw *Sweep) bool {
	err := backoff.Retry(context.Background(), sw.stopped, queueFullPolicy, func() (bool, error) {
		return m.tenants().AcquireSweepCell(sw.owner), nil
	})
	return err == nil
}

// submitCell pushes one cell into the service on behalf of the sweep's
// tenant, waiting out transient 429-class rejections. A rate-limited
// rejection carries the tenant's token-bucket refill time, so the loop
// sleeps exactly that long instead of guessing; capacity rejections
// (full queue, quota, shedding) have no schedule of their own and use
// the shared bounded-backoff policy (a worker slot frees on
// millisecond scales).
func (m *Manager) submitCell(sw *Sweep, cell Cell) (*service.Job, error) {
	for attempt := 0; ; attempt++ {
		job, err := m.cfg.Service.SubmitAs(sw.owner, service.Spec{ScenarioConfig: cell.Spec})
		if err == nil {
			return job, nil
		}
		var wait time.Duration
		var adm *tenant.AdmissionError
		switch {
		case errors.As(err, &adm) && adm.Reason == tenant.ReasonRateLimited:
			wait = adm.RetryAfter() // honest schedule: when the bucket refills
		case errors.Is(err, service.ErrQueueFull),
			errors.Is(err, tenant.ErrQuota),
			errors.Is(err, tenant.ErrShed):
			wait = queueFullPolicy.Delay(attempt) // back-pressure, not failure
		default:
			return nil, err
		}
		select {
		case <-time.After(wait):
		case <-sw.stopped:
			return nil, service.ErrDraining
		}
	}
}

// collect records a finished cell. The service manager stored an
// executed cell's rows before its job turned done.
func (m *Manager) collect(sw *Sweep, i int, job *service.Job) {
	switch job.Status() {
	case service.StatusDone:
		source := SourceExecuted
		if job.View().Source == "store" {
			source = SourceStore // raced another submitter to the same spec
		}
		m.finishCell(sw, i, source, job.Rows(), "")
	case service.StatusFailed:
		m.finishCell(sw, i, SourceFailed, nil, job.Err())
	default: // cancelled, e.g. by a client hitting the job API directly
		m.finishCell(sw, i, SourceFailed, nil, "cell job cancelled")
	}
}

// retire records a terminal sweep and evicts beyond the retention
// bound.
func (m *Manager) retire(sw *Sweep) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.open[sw.gridKey] == sw {
		delete(m.open, sw.gridKey)
	}
	m.doneOrder = append(m.doneOrder, sw.id)
	for len(m.doneOrder) > m.cfg.Retain {
		evict := m.doneOrder[0]
		m.doneOrder = m.doneOrder[1:]
		delete(m.sweeps, evict)
	}
}
