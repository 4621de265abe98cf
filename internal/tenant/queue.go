package tenant

import (
	"sync"
	"time"

	"repro/internal/metrics"
)

// defaultRetryAfter is the Retry-After suggestion for capacity
// rejections when the tenant's rate bucket offers no schedule (an
// unlimited tenant bouncing off a full queue): long enough not to
// invite a hammer, short enough that a freed worker slot is picked up
// promptly.
const defaultRetryAfter = time.Second

// Admission tiers, in escalating order. The queue reports the tier in
// Status and /healthz surfaces it: "ok" is normal, "degraded" warns
// that back-pressure is building, "shedding" means over-share tenants
// are already being bounced so the rest stay live.
const (
	TierOK       = "ok"
	TierDegraded = "degraded"
	TierShedding = "shedding"
)

// Occupancy fractions of the queue's capacity at which the admission
// tiers start.
const (
	// degradedFrac is the occupancy at which Status reports the
	// degraded tier.
	degradedFrac = 0.75
	// shedFrac is the occupancy at which admission starts shedding: a
	// push is admitted only while the tenant's own backlog stays within
	// its fair share of the queue (capacity x weight / total active
	// weight). Low-weight tenants have small shares, so they shed
	// first; a heavy, high-weight tenant can still fill its slice.
	shedFrac = 0.9
)

// QueueConfig configures a Queue. Zero values pick serving defaults.
type QueueConfig struct {
	// Capacity bounds the total queued items across all tenants.
	// Default 64.
	Capacity int
}

// tq is one tenant's FIFO plus its deficit-round-robin credit.
type tq[T any] struct {
	t      *Tenant
	items  []T
	head   int // index of the front item (amortized O(1) pop)
	credit int
}

func (s *tq[T]) len() int { return len(s.items) - s.head }

// Queue is the weighted fair queue that replaces the serving layer's
// single global FIFO: per-tenant FIFOs drained by deficit round robin.
// Each ring visit grants a tenant `weight` pops, so when several
// tenants have backlog their drain rates converge to the ratio of
// their weights, and a light tenant's first job waits at most one ring
// round (the sum of the other active tenants' weights) — never behind
// the whole backlog of a heavy one.
//
// Push never blocks: capacity and quota pressure surface as
// AdmissionError so the HTTP layer can turn them into fast 429s with
// Retry-After. Pop blocks until an item, or until Close with the queue
// empty — draining pops out every admitted item first.
type Queue[T any] struct {
	ctl *Controller
	cfg QueueConfig

	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	size   int
	shards map[string]*tq[T]
	ring   []*tq[T] // tenants with backlog, in round-robin order
	cur    int      // ring index currently being served
}

// NewQueue returns an empty fair queue reporting per-tenant depth
// gauges into ctl's registry.
func NewQueue[T any](ctl *Controller, cfg QueueConfig) *Queue[T] {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 64
	}
	if ctl == nil {
		ctl = Open(nil)
	}
	q := &Queue[T]{ctl: ctl, cfg: cfg, shards: map[string]*tq[T]{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// thresholds in items (computed, not stored: Capacity is fixed).
func (q *Queue[T]) degradedAt() int { return threshold(q.cfg.Capacity, degradedFrac) }
func (q *Queue[T]) shedAt() int     { return threshold(q.cfg.Capacity, shedFrac) }

func threshold(capacity int, frac float64) int {
	at := int(frac * float64(capacity))
	if at < 1 {
		at = 1
	}
	if at > capacity {
		at = capacity
	}
	return at
}

// Push admits one item for tenant t. A closed queue returns
// ErrQueueClosed — shutdown, not back-pressure, so callers don't retry
// against a queue that will never admit again. The capacity errors are
// all *AdmissionError: ErrQueueFull at global capacity, ErrQuota past
// the tenant's MaxQueued, ErrShed when the shedding tier is active and
// the tenant is over its fair share.
func (q *Queue[T]) Push(t *Tenant, item T) error {
	lim := t.Limits()
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.ctl.Reject(t, ReasonDraining)
		return ErrQueueClosed
	}
	if q.size >= q.cfg.Capacity {
		q.mu.Unlock()
		q.ctl.Reject(t, ReasonQueueFull)
		return &AdmissionError{Sentinel: ErrQueueFull, Tenant: t.id, Reason: ReasonQueueFull, After: q.ctl.RetryAfter(t, defaultRetryAfter)}
	}
	s := q.shards[t.id]
	depth := 0
	if s != nil {
		depth = s.len()
	}
	if lim.MaxQueued > 0 && depth >= lim.MaxQueued {
		q.mu.Unlock()
		q.ctl.Reject(t, ReasonMaxQueued)
		return &AdmissionError{Sentinel: ErrQuota, Tenant: t.id, Reason: ReasonMaxQueued, After: q.ctl.RetryAfter(t, defaultRetryAfter)}
	}
	if q.size >= q.shedAt() && depth+1 > q.fairShareLocked(t, lim.Weight) {
		q.mu.Unlock()
		q.ctl.Reject(t, ReasonShed)
		return &AdmissionError{Sentinel: ErrShed, Tenant: t.id, Reason: ReasonShed, After: q.ctl.RetryAfter(t, defaultRetryAfter)}
	}
	if s == nil {
		s = &tq[T]{t: t}
		q.shards[t.id] = s
	}
	if s.len() == 0 {
		// Joining the ring: insert just before the position being
		// served, i.e. last in the current round — a newcomer waits one
		// round, it does not jump the tenants already in line.
		q.ring = append(q.ring, nil)
		copy(q.ring[q.cur+1:], q.ring[q.cur:])
		q.ring[q.cur] = s
		q.cur++
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
		s.credit = 0
	}
	s.items = append(s.items, item)
	q.size++
	q.mu.Unlock()
	q.depthGauge(t).Inc()
	q.cond.Signal()
	return nil
}

// fairShareLocked is the most items tenant t may hold under shedding:
// its weight's slice of capacity relative to every tenant currently
// holding backlog (plus t itself), floored at 1 so a tenant is never
// starved outright below full.
func (q *Queue[T]) fairShareLocked(t *Tenant, weight int) int {
	total := 0
	for _, s := range q.ring {
		if s.t != t {
			total += s.t.Weight()
		}
	}
	total += weight
	share := q.cfg.Capacity * weight / total
	if share < 1 {
		share = 1
	}
	return share
}

// Pop removes the next item under the deficit-round-robin schedule,
// blocking while the queue is empty. ok=false means the queue was
// closed and fully drained.
func (q *Queue[T]) Pop() (item T, ok bool) {
	q.mu.Lock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		q.mu.Unlock()
		var zero T
		return zero, false
	}
	s := q.ring[q.cur]
	if s.credit <= 0 {
		s.credit = s.t.Weight()
	}
	item = s.items[s.head]
	var zero T
	s.items[s.head] = zero // release the reference
	s.head++
	s.credit--
	q.size--
	if s.len() == 0 {
		s.items = s.items[:0]
		s.head = 0
		s.credit = 0
		q.ring = append(q.ring[:q.cur], q.ring[q.cur+1:]...)
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
	} else if s.credit == 0 {
		q.cur++
		if q.cur >= len(q.ring) {
			q.cur = 0
		}
	}
	t := s.t
	q.mu.Unlock()
	q.depthGauge(t).Dec()
	return item, true
}

// Close stops admission. Blocked and future Pops drain the remaining
// items, then report ok=false.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len returns the total queued items.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Status is the queue's contribution to /healthz.
type Status struct {
	// Tier is "ok", "degraded", or "shedding".
	Tier string `json:"tier"`
	// QueueDepth and QueueCapacity describe global occupancy.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
	// ActiveTenants is the number of tenants with queued work.
	ActiveTenants int `json:"active_tenants"`
}

// Status snapshots the queue's admission tier and occupancy.
func (q *Queue[T]) Status() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	tier := TierOK
	switch {
	case q.size >= q.shedAt():
		tier = TierShedding
	case q.size >= q.degradedAt():
		tier = TierDegraded
	}
	return Status{
		Tier:          tier,
		QueueDepth:    q.size,
		QueueCapacity: q.cfg.Capacity,
		ActiveTenants: len(q.ring),
	}
}

func (q *Queue[T]) depthGauge(t *Tenant) *metrics.Gauge {
	return q.ctl.reg.Gauge(MetricQueueDepth + `{tenant="` + t.id + `"}`)
}
