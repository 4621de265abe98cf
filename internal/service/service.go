// Package service is the aggregation-as-a-service layer: a job manager
// that accepts VMAT scenario specs, runs them on a bounded worker pool,
// and retains results for retrieval. It is the subsystem cmd/vmat-server
// fronts over HTTP and later scaling work (sharding, caching,
// multi-backend) plugs into.
//
// Admission control is explicit and tenant-aware: submissions pass the
// multi-tenant front door (internal/tenant) — API-key identity, a
// per-tenant submissions/sec token bucket, per-tenant queue quotas —
// and then land in a weighted fair queue (per-tenant FIFOs drained by
// deficit round robin) instead of one global FIFO, so a greedy tenant's
// backlog cannot delay another tenant's first job. Submit never blocks:
// capacity and quota pressure reject with a tenant.AdmissionError
// carrying a Retry-After, so overload turns into fast, schedulable 429s
// rather than unbounded memory growth. Completed jobs are retained in a
// bounded FIFO of terminal jobs (an LRU where insertion order is
// completion order); clients polling old jobs eventually see a 404 and
// must re-submit.
//
// Execution goes through experiments.RunScenario, which is built on the
// deterministic trial-runner — rows returned over HTTP are bit-identical
// to what `vmat-bench -exp scenario` prints for the same seed, for any
// queue pressure or worker count.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/tenant"
)

// Spec is a job submission: the scenario to run plus service options.
type Spec struct {
	experiments.ScenarioConfig
	// Trace records engine events (at most maxTraceEvents) for
	// streaming from GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace"`
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle: queued -> running -> done | failed | cancelled. A job
// cancelled while still queued skips running entirely.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// terminal reports whether a status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Submission and execution errors. HTTP maps ErrQueueFull (and every
// other tenant.AdmissionError) to 429 with a Retry-After header and
// ErrDraining to 503; validation errors map to 400. ErrQueueFull is the
// front door's sentinel re-exported so pre-tenancy callers'
// errors.Is(err, service.ErrQueueFull) checks keep working.
var (
	ErrQueueFull = tenant.ErrQueueFull
	ErrDraining  = errors.New("service: manager is draining, not accepting jobs")
	ErrNotFound  = errors.New("service: no such job")
)

// Metric names the manager reports. Jobs-by-outcome counters carry an
// outcome label, e.g. `service_jobs_total{outcome="done"}`.
const (
	MetricJobsSubmitted    = "service_jobs_submitted_total"
	MetricJobsRejected     = "service_jobs_rejected_total"
	MetricJobs             = "service_jobs_total"
	MetricJobsCached       = "service_jobs_cached_total"
	MetricQueueDepth       = "service_queue_depth"
	MetricJobsRunning      = "service_jobs_running"
	MetricJobDuration      = "service_job_duration_us"
	MetricStoreWriteErrors = "service_store_write_errors_total"
	// MetricJobsExecuted counts executions by dispatch path, e.g.
	// `service_jobs_executed_total{path="cluster"}` vs `path="local"`.
	MetricJobsExecuted = "service_jobs_executed_total"
)

// Executor is the dispatch seam between the job manager and the
// distributed execution plane (internal/cluster's coordinator
// implements it). Execute runs cfg remotely: ok=true means the cluster
// owned the outcome — rows on success, err for a remote execution
// failure or a cancelled/expired ctx, exactly as a local run would
// report. ok=false (with err nil) means the fleet could not take the
// unit — no workers connected, coordinator draining, lease retry
// budget exhausted — and the manager runs the job on its local pool
// instead, so enabling cluster mode can never strand work.
type Executor interface {
	Execute(ctx context.Context, cfg experiments.ScenarioConfig) (rows []experiments.ScenarioRow, ok bool, err error)
}

// Config configures a Manager. Zero values pick serving defaults.
type Config struct {
	// QueueSize bounds the number of queued (admitted, not yet running)
	// jobs. Default 64.
	QueueSize int
	// Workers is the number of concurrent job executors. Each job
	// additionally parallelizes its trials per its spec. Default
	// GOMAXPROCS.
	Workers int
	// Retain bounds how many terminal jobs stay retrievable; the oldest
	// completed job is evicted first. Default 128.
	Retain int
	// JobTimeout bounds each job's execution: a job still running after
	// this long fails with a timeout error at its next trial boundary,
	// so one huge spec cannot occupy a worker indefinitely. 0 disables
	// the deadline (cmd/vmat-server sets its own default via
	// -job-timeout).
	JobTimeout time.Duration
	// Metrics receives service and engine counters. Nil creates a
	// private registry (still served by Registry()).
	Metrics *metrics.Registry
	// Store, when non-nil, persists finished job results content-
	// addressed by their scenario spec and serves resubmissions of an
	// identical spec straight from disk: the job completes at Submit
	// time with the stored rows and no engine execution (determinism
	// makes the cached rows provably equivalent). Jobs submitted with
	// Trace bypass the lookup — a cached result has no events to
	// stream — but their results are still written back.
	Store *store.Store
	// Version stamps store write-backs so operators can tell which
	// build produced a cached result.
	Version string
	// Cluster, when non-nil, dispatches job execution to the worker
	// fleet with local fallback (see Executor). Traced jobs always run
	// locally — their live engine events cannot stream across the wire.
	Cluster Executor
	// Tenants is the multi-tenant front door: API-key auth, per-tenant
	// rate limits and quotas, fair-queue weights. Nil runs open — every
	// submission is the anonymous tenant with unlimited limits, the
	// pre-tenancy behavior.
	Tenants *tenant.Controller
}

// maxTraceEvents bounds each job's trace buffer; events beyond it are
// counted but not stored.
const maxTraceEvents = 65536

// Job is one submitted scenario run.
type Job struct {
	id     string
	spec   Spec
	owner  *tenant.Tenant
	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{}

	mu           sync.Mutex
	status       Status
	rows         []experiments.ScenarioRow
	fromStore    bool
	errMsg       string
	trace        []TraceEvent
	traceDropped int64
	submitted    time.Time
	started      time.Time
	finished     time.Time
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the normalized spec the job was admitted with.
func (j *Job) Spec() Spec { return j.spec }

// Tenant returns the ID of the tenant that submitted the job.
func (j *Job) Tenant() string { return j.owner.ID() }

// Status returns the job's current state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Done is closed when the job reaches a terminal status.
func (j *Job) Done() <-chan struct{} { return j.done }

// Rows returns the result rows (non-nil only when done).
func (j *Job) Rows() []experiments.ScenarioRow {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rows
}

// Err returns the failure message ("" unless failed or cancelled).
func (j *Job) Err() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errMsg
}

// TraceSince returns a copy of the buffered trace events from index from
// on, and whether the job has reached a terminal state. Streaming
// clients loop: emit new events, then stop once terminal with no
// remainder.
func (j *Job) TraceSince(from int) ([]TraceEvent, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []TraceEvent
	if from < len(j.trace) {
		out = append(out, j.trace[from:]...)
	}
	return out, j.status.terminal()
}

// appendTrace is the engine trace hook; trials call it concurrently.
func (j *Job) appendTrace(trial int, ev core.Event) {
	te := NewTraceEvent(trial, ev)
	j.mu.Lock()
	if len(j.trace) < maxTraceEvents {
		j.trace = append(j.trace, te)
	} else {
		j.traceDropped++
	}
	j.mu.Unlock()
}

// transition moves the job to a new status if the current one allows
// it, closing done on terminal transitions. Returns false when the job
// is already terminal.
func (j *Job) transition(to Status) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status.terminal() {
		return false
	}
	j.status = to
	switch to {
	case StatusRunning:
		j.started = time.Now()
	case StatusDone, StatusFailed, StatusCancelled:
		j.finished = time.Now()
		close(j.done)
	}
	return true
}

// cancelIfQueued atomically finalizes a job that has not started yet.
func (j *Job) cancelIfQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusCancelled
	j.finished = time.Now()
	close(j.done)
	return true
}

// View is the JSON projection of a job served by the HTTP API.
type View struct {
	ID     string                    `json:"id"`
	Status Status                    `json:"status"`
	Tenant string                    `json:"tenant,omitempty"`
	Spec   Spec                      `json:"spec"`
	Error  string                    `json:"error,omitempty"`
	Rows   []experiments.ScenarioRow `json:"rows,omitempty"`
	// Source is "store" when the rows were served from the persistent
	// result store instead of a fresh execution.
	Source string `json:"source,omitempty"`
	// TraceEvents is the number of buffered trace events;
	// TraceDropped counts events beyond the buffer cap.
	TraceEvents  int    `json:"trace_events,omitempty"`
	TraceDropped int64  `json:"trace_dropped,omitempty"`
	SubmittedAt  string `json:"submitted_at"`
	StartedAt    string `json:"started_at,omitempty"`
	FinishedAt   string `json:"finished_at,omitempty"`
}

// View snapshots the job for serialization.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:           j.id,
		Status:       j.status,
		Tenant:       j.owner.ID(),
		Spec:         j.spec,
		Error:        j.errMsg,
		Rows:         j.rows,
		TraceEvents:  len(j.trace),
		TraceDropped: j.traceDropped,
		SubmittedAt:  j.submitted.UTC().Format(time.RFC3339Nano),
	}
	if j.fromStore {
		v.Source = "store"
	}
	if !j.started.IsZero() {
		v.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// Manager owns the fair queue, the worker pool, and the job table.
type Manager struct {
	cfg     Config
	reg     *metrics.Registry
	tenants *tenant.Controller

	queue *tenant.Queue[*Job]
	wg    sync.WaitGroup

	mu        sync.Mutex
	draining  bool
	jobs      map[string]*Job
	doneOrder []string // terminal job IDs, oldest first (retention FIFO)
	nextID    uint64

	queueDepth *metrics.Gauge
	running    *metrics.Gauge
	submitted  *metrics.Counter
	jobDur     *metrics.Histogram

	// runGate, when non-nil, is received from after a job transitions to
	// running and before it executes. Tests use it to hold workers so
	// queue-full and drain behavior is deterministic.
	runGate chan struct{}
}

// New starts a manager with cfg.Workers executor goroutines.
func New(cfg Config) *Manager {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 64
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Retain <= 0 {
		cfg.Retain = 128
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Tenants == nil {
		cfg.Tenants = tenant.Open(cfg.Metrics)
	}
	m := &Manager{
		cfg:     cfg,
		reg:     cfg.Metrics,
		tenants: cfg.Tenants,
		queue: tenant.NewQueue[*Job](cfg.Tenants, tenant.QueueConfig{
			Capacity: cfg.QueueSize,
		}),
		jobs:       map[string]*Job{},
		queueDepth: cfg.Metrics.Gauge(MetricQueueDepth),
		running:    cfg.Metrics.Gauge(MetricJobsRunning),
		submitted:  cfg.Metrics.Counter(MetricJobsSubmitted),
		jobDur: cfg.Metrics.Histogram(MetricJobDuration, []int64{
			1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000,
		}),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Registry returns the registry the manager reports into (never nil).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Store returns the result store the manager reads and writes (nil
// when it runs without one). The sweep manager looks cells up in it
// before submitting them.
func (m *Manager) Store() *store.Store { return m.cfg.Store }

// Tenants returns the front-door controller the manager admits through
// (never nil; an open controller when Config.Tenants was nil). The HTTP
// layers — this package's and the sweep API's — authenticate against
// it.
func (m *Manager) Tenants() *tenant.Controller { return m.tenants }

// reject counts one rejected submission by reason.
func (m *Manager) reject(reason string) {
	m.reg.Counter(MetricJobsRejected + `{reason="` + reason + `"}`).Inc()
}

// Submit validates and enqueues a job under the anonymous tenant — the
// pre-tenancy API, kept for library callers and recovered sweeps. See
// SubmitAs.
func (m *Manager) Submit(spec Spec) (*Job, error) {
	return m.SubmitAs(nil, spec)
}

// SubmitAs validates and enqueues a job for tenant t (nil = anonymous).
// It never blocks: an invalid spec returns the validation error, a
// draining manager ErrDraining, and front-door pressure — an empty rate
// bucket, an exhausted per-tenant queue quota, the shedding tier, or a
// full global queue — a *tenant.AdmissionError carrying the suggested
// Retry-After. Admission order: rate bucket first (a submission is a
// submission, cached or not), then the result-store lookup (a hit
// completes here without touching the queue), then the fair queue's
// quota/shed/capacity checks. A submission the queue then rejects
// refunds its rate token — capacity back-pressure must not also burn
// the tenant's rate budget.
func (m *Manager) SubmitAs(t *tenant.Tenant, spec Spec) (*Job, error) {
	if t == nil {
		t = m.tenants.Anonymous()
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		m.reject("invalid")
		return nil, err
	}
	if err := m.tenants.AdmitSubmission(t); err != nil {
		m.reject(tenant.ReasonRateLimited)
		return nil, err
	}
	// Result-store lookup: an identical spec already executed (this
	// process or any earlier one) completes here, before it ever
	// touches the queue — no engine execution, no worker slot. Trace
	// jobs need live events, so they always execute. A store read
	// error degrades to a miss; the store counts the corruption.
	if m.cfg.Store != nil && !spec.Trace {
		if rows, ok, _ := m.cfg.Store.GetScenario(spec.ScenarioConfig); ok {
			return m.admitCached(t, spec, rows)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		spec:      spec,
		owner:     t,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: time.Now(),
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cancel()
		m.tenants.RefundSubmission(t)
		m.reject(tenant.ReasonDraining)
		return nil, ErrDraining
	}
	m.nextID++
	job.id = fmt.Sprintf("j%06d", m.nextID)
	if err := m.queue.Push(t, job); err != nil {
		m.nextID-- // not admitted; reuse the ID
		m.mu.Unlock()
		cancel()
		m.tenants.RefundSubmission(t)
		if errors.Is(err, tenant.ErrQueueClosed) {
			// Drain closed the queue between the draining check and here
			// (or a caller races Drain): shutdown, not back-pressure.
			m.reject(tenant.ReasonDraining)
			return nil, ErrDraining
		}
		var adm *tenant.AdmissionError
		if errors.As(err, &adm) {
			m.reject(adm.Reason)
		} else {
			m.reject(tenant.ReasonQueueFull)
		}
		return nil, err
	}
	m.jobs[job.id] = job
	m.queueDepth.Inc()
	m.mu.Unlock()
	m.submitted.Inc()
	return job, nil
}

// admitCached registers a job that is born terminal: its rows came out
// of the result store, so it skips the queue and the worker pool
// entirely and is immediately retrievable as done.
func (m *Manager) admitCached(t *tenant.Tenant, spec Spec, rows []experiments.ScenarioRow) (*Job, error) {
	ctx, cancel := context.WithCancel(context.Background())
	job := &Job{
		spec:      spec,
		owner:     t,
		ctx:       ctx,
		cancel:    cancel,
		done:      make(chan struct{}),
		status:    StatusQueued,
		rows:      rows,
		fromStore: true,
		submitted: time.Now(),
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cancel()
		m.tenants.RefundSubmission(t)
		m.reject(tenant.ReasonDraining)
		return nil, ErrDraining
	}
	m.nextID++
	job.id = fmt.Sprintf("j%06d", m.nextID)
	m.jobs[job.id] = job
	m.mu.Unlock()
	m.submitted.Inc()
	m.reg.Counter(MetricJobsCached).Inc()
	job.transition(StatusDone)
	m.countOutcome(StatusDone)
	cancel()
	m.retire(job)
	return job, nil
}

// Get returns a job by ID; ok is false when unknown or evicted.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a job. A queued job is finalized immediately; a
// running one aborts at its next trial boundary. Cancelling a terminal
// job is a no-op.
func (m *Manager) Cancel(id string) (*Job, error) {
	job, ok := m.Get(id)
	if !ok {
		return nil, ErrNotFound
	}
	job.cancel()
	// If still queued, finalize here; the worker skips terminal jobs. A
	// running job instead aborts at its next trial boundary and is
	// finalized by its worker.
	if job.cancelIfQueued() {
		m.countOutcome(StatusCancelled)
		m.retire(job)
	}
	return job, nil
}

// Drain stops admission, lets the workers finish every queued and
// running job, and returns when the pool is idle (or ctx expires).
// Safe to call more than once.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		m.queue.Close()
	}
	m.mu.Unlock()
	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// AdmissionStatus reports the fair queue's tier and occupancy for the
// "admission" section of /healthz: "ok" under light load, "degraded"
// once back-pressure builds, "shedding" while over-share tenants are
// being bounced to keep the rest live.
func (m *Manager) AdmissionStatus() tenant.Status {
	return m.queue.Status()
}

// StoreStatus reports the result-store engine's shape (segments,
// entries, bytes, snapshot age, generation) for the "store" section of
// /healthz. ok is false when the service runs without a
// persistent store.
func (m *Manager) StoreStatus() (store.Status, bool) {
	if m.cfg.Store == nil {
		return store.Status{}, false
	}
	return m.cfg.Store.Status(), true
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		job, ok := m.queue.Pop()
		if !ok {
			return
		}
		m.queueDepth.Dec()
		m.runJob(job)
	}
}

func (m *Manager) runJob(job *Job) {
	if !job.transition(StatusRunning) {
		return // cancelled while queued
	}
	m.running.Inc()
	defer m.running.Dec()
	m.tenants.JobStarted(job.owner)
	defer m.tenants.JobFinished(job.owner)
	if m.runGate != nil {
		<-m.runGate
	}

	cfg := job.spec.ScenarioConfig
	runCtx := job.ctx
	if m.cfg.JobTimeout > 0 {
		var cancelTimeout context.CancelFunc
		runCtx, cancelTimeout = context.WithTimeout(runCtx, m.cfg.JobTimeout)
		defer cancelTimeout()
	}
	cfg.Context = runCtx
	cfg.Metrics = m.reg
	if job.spec.Trace {
		cfg.Trace = job.appendTrace
	}
	start := time.Now()
	rows, err := m.execute(runCtx, job, cfg)
	m.jobDur.Observe(time.Since(start).Microseconds())

	var outcome Status
	switch {
	case err == nil:
		outcome = StatusDone
		job.mu.Lock()
		job.rows = rows
		job.mu.Unlock()
		// Write-back: persist the rows under the spec's content address
		// so identical future submissions (and sweeps, and restarts)
		// skip execution. A write failure only costs future cache hits,
		// never the job — count it and move on.
		if m.cfg.Store != nil {
			meta := store.Meta{
				DurationMicros: time.Since(start).Microseconds(),
				Version:        m.cfg.Version,
			}
			if perr := m.cfg.Store.PutScenario(job.spec.ScenarioConfig, rows, meta); perr != nil {
				m.reg.Counter(MetricStoreWriteErrors).Inc()
			}
		}
	case errors.Is(err, context.Canceled):
		outcome = StatusCancelled
	case errors.Is(err, context.DeadlineExceeded):
		outcome = StatusFailed
		job.mu.Lock()
		job.errMsg = fmt.Sprintf("service: job exceeded the %s execution timeout", m.cfg.JobTimeout)
		job.mu.Unlock()
	default:
		outcome = StatusFailed
		job.mu.Lock()
		job.errMsg = err.Error()
		job.mu.Unlock()
	}
	if job.transition(outcome) {
		m.countOutcome(outcome)
	}
	job.cancel() // release the context's resources
	m.retire(job)
}

// execute runs one job through the configured dispatch path: the
// cluster fleet when available, the local pool otherwise (and always
// for traced jobs). The remote spec omits the execution-only fields
// (Context/Trace/Metrics are json:"-"), so the unit's content address
// and its results are identical to a local run's.
func (m *Manager) execute(ctx context.Context, job *Job, cfg experiments.ScenarioConfig) ([]experiments.ScenarioRow, error) {
	if m.cfg.Cluster != nil && !job.spec.Trace {
		rows, ok, err := m.cfg.Cluster.Execute(ctx, cfg)
		if ok {
			m.countExecuted("cluster")
			return rows, err
		}
		if err != nil {
			return nil, err
		}
		// Fall through: the fleet could not take the unit.
	}
	m.countExecuted("local")
	return experiments.RunScenario(cfg)
}

func (m *Manager) countExecuted(path string) {
	m.reg.Counter(MetricJobsExecuted + `{path="` + path + `"}`).Inc()
}

func (m *Manager) countOutcome(s Status) {
	m.reg.Counter(MetricJobs + `{outcome="` + string(s) + `"}`).Inc()
}

// retire records a terminal job in completion order and evicts beyond
// the retention bound.
func (m *Manager) retire(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.doneOrder = append(m.doneOrder, job.id)
	for len(m.doneOrder) > m.cfg.Retain {
		evict := m.doneOrder[0]
		m.doneOrder = m.doneOrder[1:]
		delete(m.jobs, evict)
	}
}
