// Package tenant is the multi-tenant front door for the serving layer:
// API-key authentication, per-tenant token-bucket rate limits and
// quotas, weighted fair queueing, and tiered load shedding.
//
// The ROADMAP's north star is one fleet shared by many independent
// experimenters. Before this package, vmat-server had a single global
// bounded queue and no notion of *who* was submitting — one greedy
// client could fill the queue and starve everyone else into 429s. The
// front door fixes that in four layers:
//
//   - Identity: tenants are loaded from a JSON keyfile (see Keyfile)
//     and authenticate with `Authorization: Bearer <key>`. Key
//     comparison is constant-time over SHA-256 digests, and every
//     candidate is compared (no early exit), so response timing leaks
//     nothing about which prefix matched. Without a keyfile the
//     controller runs open: everything maps to the anonymous tenant
//     with unlimited limits — the pre-tenancy dev behavior.
//   - Rate: each tenant has a submissions/sec token bucket. An empty
//     bucket rejects with ErrRateLimited and an honest Retry-After
//     (the bucket's refill time).
//   - Quota: per-tenant caps on queued jobs and concurrent sweep
//     cells bound how much of the shared queue one tenant can own.
//   - Fairness: the Queue in this package replaces the global FIFO
//     with per-tenant FIFOs drained by deficit round robin, so a
//     light tenant's first job never waits behind a heavy tenant's
//     backlog; under pressure the queue sheds over-share (and
//     therefore low-weight) tenants first.
//
// Live state (bucket balances, in-flight counts) is keyed by tenant ID
// and survives SIGHUP keyfile reloads, so editing a weight does not
// reset anyone's rate limit.
package tenant

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// AnonymousID is the tenant ID assigned to unauthenticated requests
// (when allowed) and to internal submissions with no tenant attached
// (sweeps recovered without a keyed owner, library callers using the
// pre-tenancy API).
const AnonymousID = "anonymous"

// Per-tenant metric names. All carry a tenant label; rejections add a
// reason label, e.g. `tenant_rejected_total{tenant="lab",reason="rate_limited"}`.
const (
	MetricRequests   = "tenant_requests_total"
	MetricRejected   = "tenant_rejected_total"
	MetricQueueDepth = "tenant_queue_depth"
	MetricInflight   = "tenant_inflight"
	MetricSweepCells = "tenant_sweep_cells_inflight"
	MetricReloads    = "tenant_keyfile_reloads_total"
)

// Limits are one tenant's knobs. The zero value of every field means
// "default / unlimited", so a keyfile only states what it cares about.
type Limits struct {
	// Weight is the tenant's fair-queue share (default 1). A
	// weight-3 tenant drains three jobs for every one of a weight-1
	// tenant when both have backlog, and keeps a 3x larger slice of the
	// queue before shedding kicks in.
	Weight int `json:"weight,omitempty"`
	// Rate is the sustained submissions/sec the tenant may make
	// (jobs and sweep cells both count). 0 = unlimited.
	Rate float64 `json:"rate,omitempty"`
	// Burst is the token-bucket capacity: how many submissions may
	// arrive back-to-back before Rate applies. Default max(1, ceil(Rate)).
	Burst int `json:"burst,omitempty"`
	// MaxQueued caps the tenant's jobs sitting in the fair queue.
	// 0 = bounded only by the global queue.
	MaxQueued int `json:"max_queued,omitempty"`
	// MaxSweepCells caps the tenant's sweep cells in flight at once,
	// across all its sweeps. 0 = bounded only by each sweep's own
	// in-flight cap.
	MaxSweepCells int `json:"max_sweep_cells,omitempty"`
}

// normalize fills defaults in place.
func (l *Limits) normalize() {
	if l.Weight <= 0 {
		l.Weight = 1
	}
	if l.Burst <= 0 {
		l.Burst = int(l.Rate)
		if float64(l.Burst) < l.Rate {
			l.Burst++
		}
		if l.Burst < 1 {
			l.Burst = 1
		}
	}
}

// KeyfileTenant is one tenant entry in the keyfile.
type KeyfileTenant struct {
	// ID names the tenant in metrics, logs, and quotas. Restricted to
	// [a-zA-Z0-9_.-] so a hostile keyfile cannot inject label
	// characters into the /metrics exposition.
	ID string `json:"id"`
	// Key is the bearer token the tenant authenticates with.
	Key string `json:"key"`
	// Admin marks an operator tenant: it may read and cancel every
	// tenant's jobs and sweeps, not only its own. The anonymous tenant
	// can never be admin.
	Admin bool `json:"admin,omitempty"`
	Limits
}

// Keyfile is the JSON document the -tenants flag points at:
//
//	{
//	  "anonymous": {"weight": 1, "rate": 2},
//	  "tenants": [
//	    {"id": "lab-a", "key": "...", "weight": 4, "rate": 20, "max_queued": 32},
//	    {"id": "lab-b", "key": "...", "rate": 5, "burst": 10, "max_sweep_cells": 4}
//	  ]
//	}
//
// The anonymous section is optional: present, unauthenticated requests
// are admitted under those limits; absent, requests without a valid key
// get 401. SIGHUP reloads the file in place.
type Keyfile struct {
	// Anonymous, when non-nil, admits unauthenticated requests under
	// these limits.
	Anonymous *Limits `json:"anonymous,omitempty"`
	// Tenants are the keyed tenants.
	Tenants []KeyfileTenant `json:"tenants"`
}

// Tenant is one live tenant: its identity, current limits, and runtime
// state (token bucket, in-flight sweep cells). Tenants are created by
// the Controller and survive keyfile reloads.
type Tenant struct {
	id string

	mu         sync.Mutex
	limits     Limits
	keyHash    [sha256.Size]byte
	keyed      bool // false for the anonymous tenant
	admin      bool // operator tenant: may touch every tenant's resources
	sweepCells int  // in-flight sweep cells, bounded by limits.MaxSweepCells

	bucket bucket
}

// ID returns the tenant's (sanitized) identifier.
func (t *Tenant) ID() string { return t.id }

// Weight returns the tenant's current fair-queue weight.
func (t *Tenant) Weight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits.Weight
}

// Limits returns a copy of the tenant's current limits.
func (t *Tenant) Limits() Limits {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.limits
}

// Admin reports whether the tenant is an operator (keyfile
// `"admin": true`).
func (t *Tenant) Admin() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.admin
}

// CanAccess reports whether the tenant may read or mutate a resource
// owned by ownerID: its own resources always, everyone's when it is an
// admin. Job and sweep handlers answer 404 when this is false, so one
// tenant cannot enumerate or cancel another's work through the
// sequential IDs.
func (t *Tenant) CanAccess(ownerID string) bool {
	return t.id == ownerID || t.Admin()
}

// Config configures a Controller.
type Config struct {
	// Path is the JSON keyfile. Empty runs the controller open: no
	// authentication, every request is the anonymous tenant, unlimited.
	Path string
	// Metrics receives the per-tenant counters and gauges. Nil creates
	// a private registry.
	Metrics *metrics.Registry
	// Log receives operational notices (reloads). Nil discards them.
	Log func(format string, args ...any)
	// Now overrides the clock for tests. Nil uses time.Now.
	Now func() time.Time
}

// Controller owns the tenant table: authentication, rate/quota
// admission, and the per-tenant metrics. All methods are safe for
// concurrent use.
type Controller struct {
	reg  *metrics.Registry
	log  func(format string, args ...any)
	now  func() time.Time
	path string

	mu      sync.Mutex
	tenants map[string]*Tenant // by ID; holds live state across reloads
	keyed   []*Tenant          // authentication candidates, scanned in full
	anon    *Tenant
	anonOK  bool // unauthenticated requests allowed
}

// NewController loads cfg.Path (when set) and returns the controller.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	c := &Controller{
		reg:     cfg.Metrics,
		log:     cfg.Log,
		now:     cfg.Now,
		path:    cfg.Path,
		tenants: map[string]*Tenant{},
	}
	// The anonymous tenant always exists as an object — internal
	// callers (sweeps recovered without a keyed owner, the pre-tenancy
	// Submit API) need an identity to run under even when HTTP
	// disallows it. Open mode and keyfiles without an anonymous section
	// leave it unlimited.
	c.anon = &Tenant{id: AnonymousID, limits: Limits{Weight: 1}}
	c.anonOK = true
	if cfg.Path != "" {
		if err := c.Reload(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Open returns a controller with no keyfile: every request is the
// anonymous tenant with unlimited limits — the pre-tenancy behavior.
func Open(reg *metrics.Registry) *Controller {
	c, err := NewController(Config{Metrics: reg})
	if err != nil { // unreachable: no path, nothing to fail
		panic(err)
	}
	return c
}

// Parse decodes and validates a keyfile document.
func Parse(data []byte) (*Keyfile, error) {
	var kf Keyfile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&kf); err != nil {
		return nil, fmt.Errorf("tenant: invalid keyfile: %w", err)
	}
	seen := map[string]bool{}
	seenKeys := map[[sha256.Size]byte]string{}
	for i := range kf.Tenants {
		kt := &kf.Tenants[i]
		id := metrics.SanitizeLabel(kt.ID)
		if id == "" {
			return nil, fmt.Errorf("tenant: keyfile entry %d has no usable id (after restricting to [a-zA-Z0-9_.-])", i)
		}
		if id != kt.ID {
			return nil, fmt.Errorf("tenant: keyfile id %q contains characters outside [a-zA-Z0-9_.-]", kt.ID)
		}
		if id == AnonymousID {
			return nil, fmt.Errorf("tenant: %q is reserved; use the top-level anonymous section", AnonymousID)
		}
		if seen[id] {
			return nil, fmt.Errorf("tenant: duplicate id %q in keyfile", id)
		}
		seen[id] = true
		if kt.Key == "" {
			return nil, fmt.Errorf("tenant: %q has an empty key", id)
		}
		// Two tenants sharing one bearer key would silently attribute all
		// of the second's traffic (and limits, and metrics) to the first.
		digest := sha256.Sum256([]byte(kt.Key))
		if other, dup := seenKeys[digest]; dup {
			return nil, fmt.Errorf("tenant: %q and %q share the same key", other, id)
		}
		seenKeys[digest] = id
		kt.Limits.normalize()
	}
	return &kf, nil
}

// Reload re-reads the keyfile and swaps the tenant set in place. Live
// state for surviving IDs (bucket balance, in-flight counts) is kept;
// removed tenants stop authenticating immediately. An unreadable or
// invalid file leaves the current set untouched and returns the error —
// a bad SIGHUP must not lock every client out.
func (c *Controller) Reload() error {
	if c.path == "" {
		return errors.New("tenant: no keyfile configured")
	}
	data, err := os.ReadFile(c.path)
	if err != nil {
		return fmt.Errorf("tenant: read keyfile: %w", err)
	}
	kf, err := Parse(data)
	if err != nil {
		return err
	}
	now := c.now()

	c.mu.Lock()
	defer c.mu.Unlock()
	next := map[string]*Tenant{}
	keyed := make([]*Tenant, 0, len(kf.Tenants))
	for _, kt := range kf.Tenants {
		t := c.tenants[kt.ID]
		if t == nil {
			t = &Tenant{id: kt.ID}
		}
		t.mu.Lock()
		t.limits = kt.Limits
		t.keyHash = sha256.Sum256([]byte(kt.Key))
		t.keyed = true
		t.admin = kt.Admin
		t.mu.Unlock()
		t.bucket.configure(kt.Rate, kt.Burst, now)
		next[kt.ID] = t
		keyed = append(keyed, t)
	}
	if kf.Anonymous != nil {
		lim := *kf.Anonymous
		lim.normalize()
		c.anon.mu.Lock()
		c.anon.limits = lim
		c.anon.mu.Unlock()
		c.anon.bucket.configure(lim.Rate, lim.Burst, now)
		c.anonOK = true
	} else {
		// The anonymous section is gone: unauthenticated HTTP is denied,
		// and the internal submitters still running as anonymous
		// (sweeps recovered without a keyed owner, library Submit)
		// revert to the default unlimited limits rather than keeping the
		// removed section's rate and quotas.
		c.anon.mu.Lock()
		c.anon.limits = Limits{Weight: 1}
		c.anon.mu.Unlock()
		c.anon.bucket.configure(0, 1, now)
		c.anonOK = false
	}
	c.tenants = next
	c.keyed = keyed
	c.reg.Counter(MetricReloads).Inc()
	c.log("tenant: loaded %d tenant(s) from %s (anonymous %s)",
		len(keyed), c.path, map[bool]string{true: "allowed", false: "denied"}[c.anonOK])
	return nil
}

// Registry returns the registry the controller reports into.
func (c *Controller) Registry() *metrics.Registry { return c.reg }

// Anonymous returns the anonymous tenant (always non-nil; whether HTTP
// requests may use it is FromRequest's business).
func (c *Controller) Anonymous() *Tenant {
	return c.anon
}

// Lookup returns the keyed tenant with the given ID in the current
// keyfile.
func (c *Controller) Lookup(id string) (*Tenant, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tenants[id]
	return t, ok
}

// Len returns the number of keyed tenants.
func (c *Controller) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keyed)
}

// Authenticate resolves a bearer key to its tenant. An empty key maps
// to the anonymous tenant when the keyfile allows it. The presented
// key's SHA-256 digest is compared against every keyed tenant's digest
// in constant time with no early exit, so neither the comparison nor
// the scan order leaks key material through response timing.
func (c *Controller) Authenticate(key string) (*Tenant, error) {
	c.mu.Lock()
	keyed := c.keyed
	anonOK := c.anonOK
	c.mu.Unlock()
	if key == "" {
		if anonOK {
			return c.anon, nil
		}
		return nil, ErrUnauthorized
	}
	digest := sha256.Sum256([]byte(key))
	var match *Tenant
	for _, t := range keyed {
		t.mu.Lock()
		hash := t.keyHash
		t.mu.Unlock()
		if subtle.ConstantTimeCompare(digest[:], hash[:]) == 1 && match == nil {
			match = t
		}
	}
	if match == nil {
		return nil, ErrUnauthorized
	}
	return match, nil
}

// FromRequest authenticates an HTTP request (`Authorization: Bearer
// <key>`; absent means anonymous) and counts it in
// tenant_requests_total. A malformed scheme or unknown key returns
// ErrUnauthorized, counted under tenant="unknown".
func (c *Controller) FromRequest(r *http.Request) (*Tenant, error) {
	key := ""
	if h := r.Header.Get("Authorization"); h != "" {
		const prefix = "bearer "
		if len(h) < len(prefix) || !strings.EqualFold(h[:len(prefix)], prefix) {
			c.countRequest("unknown")
			return nil, ErrUnauthorized
		}
		key = strings.TrimSpace(h[len(prefix):])
	}
	t, err := c.Authenticate(key)
	if err != nil {
		c.countRequest("unknown")
		return nil, err
	}
	c.countRequest(t.id)
	return t, nil
}

func (c *Controller) countRequest(id string) {
	c.reg.Counter(MetricRequests + `{tenant="` + id + `"}`).Inc()
}

// Reject counts one rejected submission for the tenant by reason.
func (c *Controller) Reject(t *Tenant, reason string) {
	c.reg.Counter(MetricRejected + `{tenant="` + t.id + `",reason="` + reason + `"}`).Inc()
}

// AdmitSubmission takes one token from the tenant's rate bucket,
// returning an AdmissionError with the bucket's refill time when it is
// empty. Every submission — job, sweep cell, cached or not — counts.
func (c *Controller) AdmitSubmission(t *Tenant) error {
	ok, after := t.bucket.take(c.now())
	if !ok {
		c.Reject(t, ReasonRateLimited)
		return &AdmissionError{Sentinel: ErrRateLimited, Tenant: t.id, Reason: ReasonRateLimited, After: after}
	}
	return nil
}

// RefundSubmission returns the token AdmitSubmission took when the
// submission was rejected downstream of the rate check (full queue,
// quota, shed, draining manager). Capacity back-pressure must not also
// drain the tenant's rate budget: a retry loop bouncing off a full
// queue would otherwise turn every other client's next submission into
// a rate-limit 429.
func (c *Controller) RefundSubmission(t *Tenant) {
	t.bucket.refund(c.now())
}

// RetryAfter suggests how long the tenant should wait before its next
// submission: the token-bucket refill time when it is rate-limited,
// otherwise fallback (capacity rejections have no bucket schedule, but
// an empty Retry-After would invite an immediate hammer).
func (c *Controller) RetryAfter(t *Tenant, fallback time.Duration) time.Duration {
	if d := t.bucket.retryAfter(c.now()); d > 0 {
		return d
	}
	return fallback
}

// JobStarted moves the tenant's in-flight gauge up as a job leaves the
// queue for a worker.
func (c *Controller) JobStarted(t *Tenant) {
	c.reg.Gauge(MetricInflight + `{tenant="` + t.id + `"}`).Inc()
}

// JobFinished is JobStarted's other half.
func (c *Controller) JobFinished(t *Tenant) {
	c.reg.Gauge(MetricInflight + `{tenant="` + t.id + `"}`).Dec()
}

// AcquireSweepCell claims one of the tenant's concurrent-sweep-cell
// slots. ok=false means the quota is exhausted — the sweep loop backs
// off and retries (quota pressure is back-pressure, not failure), and
// counts the refusal once per waiting cell, not once per poll.
func (c *Controller) AcquireSweepCell(t *Tenant) bool {
	t.mu.Lock()
	max := t.limits.MaxSweepCells
	if max > 0 && t.sweepCells >= max {
		t.mu.Unlock()
		return false
	}
	t.sweepCells++
	t.mu.Unlock()
	c.reg.Gauge(MetricSweepCells + `{tenant="` + t.id + `"}`).Inc()
	return true
}

// ReleaseSweepCell returns a slot claimed by AcquireSweepCell.
func (c *Controller) ReleaseSweepCell(t *Tenant) {
	t.mu.Lock()
	if t.sweepCells > 0 {
		t.sweepCells--
	}
	t.mu.Unlock()
	c.reg.Gauge(MetricSweepCells + `{tenant="` + t.id + `"}`).Dec()
}
