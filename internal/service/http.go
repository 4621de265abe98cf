package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/tenant"
)

// HTTP metric names. Both carry route and (for requests) status-code
// labels, e.g. `http_requests_total{route="POST /v1/jobs",code="202"}`.
const (
	MetricHTTPRequests = "http_requests_total"
	MetricHTTPDuration = "http_request_duration_us"
)

// maxSpecBytes bounds a job-submission body.
const maxSpecBytes = 1 << 20

// WorkersStatus is the cluster coordinator's contribution to /healthz:
// the connected-worker count and the lease counters operators alarm
// on. internal/cluster's Coordinator implements WorkersReporter.
type WorkersStatus struct {
	Connected     int   `json:"connected"`
	LeasesActive  int   `json:"leases_active"`
	LeasesExpired int64 `json:"leases_expired"`
	// WireConnected counts workers holding a live streaming-transport
	// conn; always ≤ Connected. Units go out only over those conns, so a
	// worker counts in Connected alone between registering and dialling
	// the wire, and between losing its conn and redialling or expiring.
	WireConnected int `json:"wire_connected,omitempty"`
}

// WorkersReporter reports the worker fleet's state for /healthz.
type WorkersReporter interface {
	WorkersStatus() WorkersStatus
}

// RecoveryStatus is the crash-recovery subsystem's contribution to
// /healthz: what startup replay of the control-plane WAL found and did.
// The sweep manager implements RecoveryReporter.
type RecoveryStatus struct {
	// Active is true while replay is still rebuilding state; the server
	// reports "degraded" until it flips false.
	Active          bool  `json:"active"`
	ReplayedRecords int64 `json:"replayed_records"`
	ResumedSweeps   int64 `json:"resumed_sweeps"`
	ReenqueuedUnits int64 `json:"reenqueued_units"`
	WallTimeMicros  int64 `json:"wall_time_us"`
}

// RecoveryReporter reports crash-recovery progress for /healthz.
type RecoveryReporter interface {
	RecoveryStatus() RecoveryStatus
}

// NewHandler returns the server's HTTP API over a manager:
//
//	POST   /v1/jobs            submit a job (202; 400 invalid, 429 full, 503 draining)
//	GET    /v1/jobs/{id}       job status and, when done, result rows
//	GET    /v1/jobs/{id}/trace stream buffered engine events as NDJSON
//	DELETE /v1/jobs/{id}       cancel a queued or running job
//	GET    /healthz            liveness (includes version and drain state)
//	GET    /metrics            text exposition of the manager's registry
//
// workers, when non-nil, adds a "workers" section to /healthz and flips
// its status to "degraded" while cluster mode has zero workers
// connected (jobs still run — the local pool absorbs them — but the
// operator asked for a fleet and has none). Pass nil when cluster mode
// is off.
//
// recovery, when non-nil, adds a "recovery" section to /healthz with
// the control-plane WAL replay counters and flips the status to
// "degraded" while the replay is still rebuilding state (submissions
// wait on it). Pass nil when the server runs without a data dir.
//
// Every route is instrumented with a request counter and a latency
// histogram in the manager's registry.
func NewHandler(m *Manager, version string, workers WorkersReporter, recovery RecoveryReporter) http.Handler {
	h := &api{m: m, version: version, workers: workers, recovery: recovery}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", h.instrument("POST /v1/jobs", WithTenant(m, h.submit)))
	mux.HandleFunc("GET /v1/jobs/{id}", h.instrument("GET /v1/jobs/{id}", WithTenant(m, h.get)))
	mux.HandleFunc("GET /v1/jobs/{id}/trace", h.instrument("GET /v1/jobs/{id}/trace", WithTenant(m, h.trace)))
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.instrument("DELETE /v1/jobs/{id}", WithTenant(m, h.cancel)))
	mux.HandleFunc("GET /healthz", h.instrument("GET /healthz", h.healthz))
	mux.HandleFunc("GET /metrics", h.metrics) // not instrumented: scrapes shouldn't move the metrics they read
	return mux
}

// TenantHandler is an HTTP handler that has passed the front door: t is
// the authenticated (or anonymous) tenant.
type TenantHandler func(w http.ResponseWriter, r *http.Request, t *tenant.Tenant)

// WithTenant authenticates the request against the manager's front
// door before calling fn. A server running with a keyfile answers 401
// to missing or unknown keys (unless the keyfile admits anonymous
// traffic); an open server maps everything to the anonymous tenant.
// Every authenticated request is counted in tenant_requests_total.
// /healthz and /metrics stay outside the front door — probes and
// scrapers don't carry keys. Exported for sibling subsystems mounting
// routes on the same server (the sweep API).
func WithTenant(m *Manager, fn TenantHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := m.Tenants().FromRequest(r)
		if err != nil {
			w.Header().Set("WWW-Authenticate", `Bearer realm="vmat"`)
			WriteError(w, http.StatusUnauthorized, err.Error())
			return
		}
		fn(w, r, t)
	}
}

// writeAdmissionError maps a Submit rejection to its status code. All
// front-door pressure (rate limit, quota, shed, full queue) is 429 with
// a Retry-After header derived from the tenant's token-bucket refill
// time, so well-behaved clients reschedule instead of hammering.
func writeAdmissionError(w http.ResponseWriter, err error) {
	var adm *tenant.AdmissionError
	switch {
	case errors.As(err, &adm):
		w.Header().Set("Retry-After", adm.RetryAfterHeader())
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
	}
}

type api struct {
	m        *Manager
	version  string
	workers  WorkersReporter
	recovery RecoveryReporter
}

// statusRecorder captures the response code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so NDJSON streaming works
// through the recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (h *api) instrument(route string, fn http.HandlerFunc) http.HandlerFunc {
	return Instrument(h.m.Registry(), route, fn)
}

// Instrument wraps an HTTP handler with the server's standard per-route
// request counter and latency histogram in reg. Exported so sibling
// subsystems mounting extra routes on the same server (the sweep API)
// report into the same metric families.
func Instrument(reg *metrics.Registry, route string, fn http.HandlerFunc) http.HandlerFunc {
	dur := reg.Histogram(
		fmt.Sprintf("%s{route=%q}", MetricHTTPDuration, route),
		[]int64{100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000})
	return func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		fn(rec, r)
		dur.Observe(time.Since(start).Microseconds())
		reg.Counter(fmt.Sprintf("%s{route=%q,code=\"%d\"}", MetricHTTPRequests, route, rec.code)).Inc()
	}
}

// WriteJSON writes v as the JSON response body with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the repository's JSON error body, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, map[string]string{"error": msg})
}

func (h *api) submit(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	// Reject unknown keys outright: a typo'd field (say "fautls") in a
	// fault-injection spec would otherwise run a quietly fault-free job
	// and report misleading availability numbers.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		WriteError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}
	job, err := h.m.SubmitAs(t, spec)
	if err != nil {
		writeAdmissionError(w, err)
		return
	}
	WriteJSON(w, http.StatusAccepted, map[string]string{
		"id":     job.ID(),
		"status": string(job.Status()),
	})
}

// lookup resolves the path's job and enforces ownership:
// authentication alone is not authorization, and job IDs are
// sequential, so a job owned by another tenant reads as absent (404,
// never 403 — existence itself is the leak) for reads and cancels
// alike. Admin tenants (keyfile `"admin": true`) see every job.
func (h *api) lookup(r *http.Request, t *tenant.Tenant) (*Job, bool) {
	job, ok := h.m.Get(r.PathValue("id"))
	if !ok || !t.CanAccess(job.Tenant()) {
		return nil, false
	}
	return job, true
}

func (h *api) get(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	job, ok := h.lookup(r, t)
	if !ok {
		WriteError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	WriteJSON(w, http.StatusOK, job.View())
}

func (h *api) cancel(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	if _, ok := h.lookup(r, t); !ok {
		WriteError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	job, err := h.m.Cancel(r.PathValue("id"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{
		"id":     job.ID(),
		"status": string(job.Status()),
	})
}

// trace streams the job's buffered engine events as NDJSON, following
// a still-running job until it finishes (or the client goes away).
func (h *api) trace(w http.ResponseWriter, r *http.Request, t *tenant.Tenant) {
	job, ok := h.lookup(r, t)
	if !ok {
		WriteError(w, http.StatusNotFound, ErrNotFound.Error())
		return
	}
	if !job.Spec().Trace {
		WriteError(w, http.StatusBadRequest, "job was not submitted with trace enabled")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := NewTraceEncoder(w)
	flusher, _ := w.(http.Flusher)
	next := 0
	for {
		events, terminal := job.TraceSince(next)
		for _, te := range events {
			if err := enc.EncodeEvent(te); err != nil {
				return
			}
		}
		next += len(events)
		if flusher != nil && len(events) > 0 {
			flusher.Flush()
		}
		if terminal {
			// The snapshot was taken under the job lock after the final
			// transition, so events includes everything: done.
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-job.Done():
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func (h *api) healthz(w http.ResponseWriter, r *http.Request) {
	// The status field is tiered: "ok" when nothing is wrong, "degraded"
	// while back-pressure builds (queue occupancy past the degraded
	// threshold, an empty cluster fleet, or WAL replay in flight — still
	// a live 200, work still runs), and "shedding" once the admission
	// layer has started bouncing over-share tenants to keep the rest
	// live. Shedding comes only from the fair queue and is never
	// downgraded by the other checks.
	adm := h.m.AdmissionStatus()
	status := adm.Tier
	body := map[string]any{
		"version":   h.version,
		"draining":  h.m.Draining(),
		"admission": adm,
	}
	degrade := func() {
		if status == tenant.TierOK {
			status = tenant.TierDegraded
		}
	}
	if h.workers != nil {
		ws := h.workers.WorkersStatus()
		body["workers"] = ws
		if ws.Connected == 0 {
			degrade()
		}
	}
	if h.recovery != nil {
		rs := h.recovery.RecoveryStatus()
		body["recovery"] = rs
		if rs.Active {
			degrade()
		}
	}
	if ss, ok := h.m.StoreStatus(); ok {
		body["store"] = ss
	}
	body["status"] = status
	WriteJSON(w, http.StatusOK, body)
}

func (h *api) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var sb strings.Builder
	if err := h.m.Registry().WriteText(&sb); err != nil {
		WriteError(w, http.StatusInternalServerError, err.Error())
		return
	}
	_, _ = w.Write([]byte(sb.String()))
}
