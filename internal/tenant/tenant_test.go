package tenant

import (
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// fakeClock is a hand-advanced clock for bucket tests.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// TestBucketRateAndRetryAfter: a 2/sec bucket with burst 2 admits the
// burst, rejects the third take with the honest refill time, and
// refills as the clock advances.
func TestBucketRateAndRetryAfter(t *testing.T) {
	clk := newFakeClock()
	var b bucket
	b.configure(2, 2, clk.now())

	for i := 0; i < 2; i++ {
		if ok, _ := b.take(clk.now()); !ok {
			t.Fatalf("take %d within burst rejected", i+1)
		}
	}
	ok, after := b.take(clk.now())
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	// Empty bucket at 2 tokens/sec: the next token is 500ms away.
	if after != 500*time.Millisecond {
		t.Fatalf("retry-after = %s, want 500ms", after)
	}
	clk.advance(500 * time.Millisecond)
	if ok, _ := b.take(clk.now()); !ok {
		t.Fatal("take after refill rejected")
	}
	// Unlimited bucket never rejects.
	var u bucket
	u.configure(0, 0, clk.now())
	for i := 0; i < 100; i++ {
		if ok, _ := u.take(clk.now()); !ok {
			t.Fatal("unlimited bucket rejected a take")
		}
	}
}

// TestBucketConfigurePreservesBalance: a hot reload must not hand the
// tenant a fresh burst (that would let it launder its rate limit by
// re-uploading the keyfile).
func TestBucketConfigurePreservesBalance(t *testing.T) {
	clk := newFakeClock()
	var b bucket
	b.configure(1, 5, clk.now())
	for i := 0; i < 5; i++ {
		b.take(clk.now())
	}
	b.configure(1, 5, clk.now()) // reload with identical limits
	if ok, _ := b.take(clk.now()); ok {
		t.Fatal("reload refilled an empty bucket")
	}
	// Shrinking the burst clamps a fuller balance down.
	var c bucket
	c.configure(1, 10, clk.now())
	c.configure(1, 2, clk.now())
	c.take(clk.now())
	c.take(clk.now())
	if ok, _ := c.take(clk.now()); ok {
		t.Fatal("burst shrink did not clamp the stored balance")
	}
}

func TestParseRejectsBadKeyfiles(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"tenant": []}`,
		"bad id chars":  `{"tenants": [{"id": "a b", "key": "k"}]}`,
		"empty id":      `{"tenants": [{"id": "", "key": "k"}]}`,
		"reserved id":   `{"tenants": [{"id": "anonymous", "key": "k"}]}`,
		"duplicate id":  `{"tenants": [{"id": "a", "key": "k1"}, {"id": "a", "key": "k2"}]}`,
		"duplicate key": `{"tenants": [{"id": "a", "key": "k"}, {"id": "b", "key": "k"}]}`,
		"empty key":     `{"tenants": [{"id": "a", "key": ""}]}`,
	}
	for name, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: Parse accepted %s", name, doc)
		}
	}
	kf, err := Parse([]byte(`{"anonymous": {"rate": 2}, "tenants": [{"id": "lab", "key": "k", "weight": 4, "rate": 2.5}]}`))
	if err != nil {
		t.Fatalf("valid keyfile rejected: %v", err)
	}
	if got := kf.Tenants[0].Burst; got != 3 {
		t.Fatalf("burst default = %d, want ceil(2.5) = 3", got)
	}
	if got := kf.Tenants[0].Weight; got != 4 {
		t.Fatalf("weight = %d, want 4", got)
	}
}

func writeKeyfile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAuthenticateAndFromRequest(t *testing.T) {
	path := writeKeyfile(t, `{"tenants": [{"id": "lab-a", "key": "key-a"}, {"id": "lab-b", "key": "key-b"}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	if tn, err := c.Authenticate("key-b"); err != nil || tn.ID() != "lab-b" {
		t.Fatalf("Authenticate(key-b) = %v, %v; want lab-b", tn, err)
	}
	if _, err := c.Authenticate("nope"); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("unknown key error = %v, want ErrUnauthorized", err)
	}
	// No anonymous section in the keyfile: unauthenticated requests are
	// denied.
	if _, err := c.Authenticate(""); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("empty key error = %v, want ErrUnauthorized (keyfile has no anonymous section)", err)
	}

	r := httptest.NewRequest("POST", "/v1/jobs", nil)
	r.Header.Set("Authorization", "Bearer key-a")
	if tn, err := c.FromRequest(r); err != nil || tn.ID() != "lab-a" {
		t.Fatalf("FromRequest(bearer key-a) = %v, %v; want lab-a", tn, err)
	}
	r.Header.Set("Authorization", "Basic key-a")
	if _, err := c.FromRequest(r); !errors.Is(err, ErrUnauthorized) {
		t.Fatalf("non-bearer scheme error = %v, want ErrUnauthorized", err)
	}

	// An open controller (no keyfile) maps everything to anonymous.
	open := Open(nil)
	r2 := httptest.NewRequest("POST", "/v1/jobs", nil)
	if tn, err := open.FromRequest(r2); err != nil || tn.ID() != AnonymousID {
		t.Fatalf("open FromRequest = %v, %v; want anonymous", tn, err)
	}
}

// TestReloadPreservesLiveState: editing the keyfile must not reset a
// tenant's rate-limit balance, and removed tenants must stop
// authenticating immediately while a broken file changes nothing.
func TestReloadPreservesLiveState(t *testing.T) {
	clk := newFakeClock()
	path := writeKeyfile(t, `{"tenants": [{"id": "lab", "key": "k1", "rate": 1, "burst": 3}, {"id": "gone", "key": "k2"}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New(), Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	lab, _ := c.Authenticate("k1")
	for i := 0; i < 3; i++ {
		if err := c.AdmitSubmission(lab); err != nil {
			t.Fatalf("burst take %d rejected: %v", i+1, err)
		}
	}
	if err := c.AdmitSubmission(lab); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-burst admit = %v, want ErrRateLimited", err)
	}

	// Reload: lab's key rotates and its weight changes, "gone" is gone.
	if err := os.WriteFile(path, []byte(`{"tenants": [{"id": "lab", "key": "k1-new", "rate": 1, "burst": 3, "weight": 7}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(); err != nil {
		t.Fatal(err)
	}
	lab2, err := c.Authenticate("k1-new")
	if err != nil {
		t.Fatal("rotated key does not authenticate")
	}
	if lab2 != lab {
		t.Fatal("reload created a new Tenant object for a surviving ID (live state lost)")
	}
	if lab2.Weight() != 7 {
		t.Fatalf("weight after reload = %d, want 7", lab2.Weight())
	}
	if err := c.AdmitSubmission(lab2); !errors.Is(err, ErrRateLimited) {
		t.Fatal("reload refilled the tenant's empty bucket")
	}
	if _, err := c.Authenticate("k2"); !errors.Is(err, ErrUnauthorized) {
		t.Fatal("removed tenant still authenticates")
	}

	// A broken file must leave the current set untouched.
	if err := os.WriteFile(path, []byte(`{broken`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(); err == nil {
		t.Fatal("Reload accepted a broken keyfile")
	}
	if _, err := c.Authenticate("k1-new"); err != nil {
		t.Fatal("failed reload locked out a previously valid key")
	}
}

// TestRefundSubmissionReturnsToken: a rate token taken for a
// submission the queue then rejected goes back into the bucket, so
// capacity back-pressure does not double as rate-limit pressure.
func TestRefundSubmissionReturnsToken(t *testing.T) {
	clk := newFakeClock()
	path := writeKeyfile(t, `{"tenants": [{"id": "lab", "key": "k", "rate": 1, "burst": 2}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New(), Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	lab, _ := c.Authenticate("k")
	// Simulate bouncing off a full queue: take + refund must be a no-op
	// on the budget, any number of times.
	for i := 0; i < 10; i++ {
		if err := c.AdmitSubmission(lab); err != nil {
			t.Fatalf("take %d after refunds rejected: %v", i, err)
		}
		c.RefundSubmission(lab)
	}
	// The full burst is still available...
	for i := 0; i < 2; i++ {
		if err := c.AdmitSubmission(lab); err != nil {
			t.Fatalf("burst take %d rejected after refund cycle: %v", i+1, err)
		}
	}
	if err := c.AdmitSubmission(lab); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-burst admit = %v, want ErrRateLimited", err)
	}
	// ...and refunds clamp at the burst — they can never mint a balance
	// larger than the bucket holds.
	for i := 0; i < 5; i++ {
		c.RefundSubmission(lab)
	}
	for i := 0; i < 2; i++ {
		if err := c.AdmitSubmission(lab); err != nil {
			t.Fatalf("refunded take %d rejected: %v", i+1, err)
		}
	}
	if err := c.AdmitSubmission(lab); !errors.Is(err, ErrRateLimited) {
		t.Fatal("refunds minted tokens beyond the burst")
	}
}

// TestReloadDropsAnonymousSection: removing the anonymous section
// denies unauthenticated HTTP and reverts the anonymous tenant —
// still used by internal submitters — to the default unlimited limits
// instead of freezing the removed section's rate and quotas.
func TestReloadDropsAnonymousSection(t *testing.T) {
	clk := newFakeClock()
	path := writeKeyfile(t, `{"anonymous": {"rate": 1, "burst": 1, "max_queued": 2, "weight": 5}, "tenants": [{"id": "lab", "key": "k"}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New(), Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	anon := c.Anonymous()
	if err := c.AdmitSubmission(anon); err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitSubmission(anon); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("anonymous burst-1 second admit = %v, want ErrRateLimited", err)
	}

	if err := os.WriteFile(path, []byte(`{"tenants": [{"id": "lab", "key": "k"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Authenticate(""); !errors.Is(err, ErrUnauthorized) {
		t.Fatal("unauthenticated request admitted after the anonymous section was removed")
	}
	if lim := anon.Limits(); lim.Rate != 0 || lim.MaxQueued != 0 || lim.Weight != 1 {
		t.Fatalf("anonymous limits after section removal = %+v, want default unlimited", lim)
	}
	// Internal submitters (recovered sweeps, library Submit) are back to
	// unlimited, not stuck on the removed section's empty bucket.
	for i := 0; i < 10; i++ {
		if err := c.AdmitSubmission(anon); err != nil {
			t.Fatalf("internal anonymous admit %d after reload = %v, want unlimited", i, err)
		}
	}
}

// TestAdminFlag: the keyfile's admin bit reaches CanAccess, reloads
// can revoke it, and plain tenants only access their own resources.
func TestAdminFlag(t *testing.T) {
	path := writeKeyfile(t, `{"tenants": [{"id": "ops", "key": "ko", "admin": true}, {"id": "lab", "key": "kl"}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	ops, _ := c.Authenticate("ko")
	lab, _ := c.Authenticate("kl")
	if !ops.Admin() || !ops.CanAccess("lab") || !ops.CanAccess(AnonymousID) {
		t.Fatal("admin tenant cannot access other tenants' resources")
	}
	if lab.Admin() || lab.CanAccess("ops") {
		t.Fatal("plain tenant can access another tenant's resources")
	}
	if !lab.CanAccess("lab") {
		t.Fatal("tenant cannot access its own resources")
	}
	// A reload can revoke admin.
	if err := os.WriteFile(path, []byte(`{"tenants": [{"id": "ops", "key": "ko"}, {"id": "lab", "key": "kl"}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := c.Reload(); err != nil {
		t.Fatal(err)
	}
	if ops.Admin() || ops.CanAccess("lab") {
		t.Fatal("reload did not revoke the admin bit")
	}
}

func TestSweepCellQuota(t *testing.T) {
	path := writeKeyfile(t, `{"tenants": [{"id": "lab", "key": "k", "max_sweep_cells": 2}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	lab, _ := c.Authenticate("k")
	if !c.AcquireSweepCell(lab) || !c.AcquireSweepCell(lab) {
		t.Fatal("acquire within quota rejected")
	}
	if c.AcquireSweepCell(lab) {
		t.Fatal("acquire beyond quota admitted")
	}
	c.ReleaseSweepCell(lab)
	if !c.AcquireSweepCell(lab) {
		t.Fatal("acquire after release rejected")
	}
	// Unlimited (anonymous) never rejects.
	for i := 0; i < 50; i++ {
		if !c.AcquireSweepCell(c.Anonymous()) {
			t.Fatal("unlimited tenant hit a sweep-cell quota")
		}
	}
}

func TestAdmissionErrorRetryAfterHeader(t *testing.T) {
	cases := []struct {
		after time.Duration
		want  string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{3 * time.Second, "3"},
	}
	for _, tc := range cases {
		e := &AdmissionError{Sentinel: ErrRateLimited, Tenant: "t", Reason: ReasonRateLimited, After: tc.after}
		if got := e.RetryAfterHeader(); got != tc.want {
			t.Errorf("RetryAfterHeader(%s) = %s, want %s", tc.after, got, tc.want)
		}
	}
	if !errors.Is(&AdmissionError{Sentinel: ErrQueueFull}, ErrQueueFull) {
		t.Fatal("AdmissionError does not unwrap to its sentinel")
	}
}

// twoTenantController builds an open controller plus two keyed tenants
// for queue tests.
func twoTenantController(t *testing.T, doc string) (*Controller, *Tenant, *Tenant) {
	t.Helper()
	c, err := NewController(Config{Path: writeKeyfile(t, doc), Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	var tens []*Tenant
	for _, id := range []string{"heavy", "light"} {
		c.mu.Lock()
		tn := c.tenants[id]
		c.mu.Unlock()
		if tn == nil {
			t.Fatalf("tenant %s missing", id)
		}
		tens = append(tens, tn)
	}
	return c, tens[0], tens[1]
}

// TestQueueDRRInterleavesByWeight: with both tenants backlogged, a
// weight-3 tenant drains three items for every one of a weight-1
// tenant, and the light tenant is never stuck behind the heavy one's
// whole backlog.
func TestQueueDRRInterleavesByWeight(t *testing.T) {
	c, heavy, light := twoTenantController(t,
		`{"tenants": [{"id": "heavy", "key": "kh", "weight": 3}, {"id": "light", "key": "kl", "weight": 1}]}`)
	q := NewQueue[string](c, QueueConfig{Capacity: 32})

	for i := 0; i < 6; i++ {
		if err := q.Push(heavy, "h"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := q.Push(light, "l"); err != nil {
			t.Fatal(err)
		}
	}
	var order []string
	for q.Len() > 0 {
		item, ok := q.Pop()
		if !ok {
			t.Fatal("queue closed unexpectedly")
		}
		order = append(order, item)
	}
	got := strings.Join(order, "")
	// heavy joined first, so its round runs first: 3 heavy, then light's
	// credit of 1, and so on. The light tenant's first item comes out
	// after at most one heavy round, not after all six.
	want := "hhhlhhhl"
	if got != want {
		t.Fatalf("drain order = %s, want %s", got, want)
	}
}

// TestQueueNewcomerWaitsOneRound: a tenant arriving mid-drain is served
// after the tenants already in the ring finish their current round —
// it neither jumps the line nor waits behind multiple rounds.
func TestQueueNewcomerWaitsOneRound(t *testing.T) {
	c, heavy, light := twoTenantController(t,
		`{"tenants": [{"id": "heavy", "key": "kh", "weight": 1}, {"id": "light", "key": "kl", "weight": 1}]}`)
	q := NewQueue[string](c, QueueConfig{Capacity: 32})
	for i := 0; i < 4; i++ {
		if err := q.Push(heavy, "h"); err != nil {
			t.Fatal(err)
		}
	}
	// Start draining heavy, then light shows up.
	if item, _ := q.Pop(); item != "h" {
		t.Fatalf("first pop = %s, want h", item)
	}
	if err := q.Push(light, "l"); err != nil {
		t.Fatal(err)
	}
	var order []string
	for q.Len() > 0 {
		item, _ := q.Pop()
		order = append(order, item)
	}
	if got := strings.Join(order, ""); got != "hlhh" {
		t.Fatalf("drain order after join = %s, want hlhh (light served at the next round boundary)", got)
	}
}

// TestQueueShedsOverShareTenantsFirst: past the shed threshold, a
// low-weight tenant is capped at its fair share while the high-weight
// tenant still fills its slice; at full capacity everyone gets
// queue_full.
func TestQueueShedsOverShareTenantsFirst(t *testing.T) {
	c, heavy, light := twoTenantController(t,
		`{"tenants": [{"id": "heavy", "key": "kh", "weight": 3}, {"id": "light", "key": "kl", "weight": 1}]}`)
	q := NewQueue[int](c, QueueConfig{Capacity: 40})

	// Fill to the shed threshold (0.9 x 40 = 36 items) split 28 heavy /
	// 8 light.
	for i := 0; i < 28; i++ {
		if err := q.Push(heavy, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if err := q.Push(light, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Status().Tier; got != TierShedding {
		t.Fatalf("tier at threshold = %s, want shedding", got)
	}
	// light's fair share is 40*1/4 = 10: pushes up to 10 queued are
	// still admitted, the 11th sheds.
	for i := 8; i < 10; i++ {
		if err := q.Push(light, i); err != nil {
			t.Fatalf("light push %d within fair share rejected: %v", i, err)
		}
	}
	err := q.Push(light, 10)
	if !errors.Is(err, ErrShed) {
		t.Fatalf("light push beyond fair share = %v, want ErrShed", err)
	}
	var adm *AdmissionError
	if !errors.As(err, &adm) || adm.Reason != ReasonShed {
		t.Fatalf("shed error reason = %v, want %s", err, ReasonShed)
	}
	// heavy's share is 40*3/4 = 30: while light is frozen out, heavy
	// keeps pushing right up to its slice — that is "low-weight tenants
	// shed first".
	for i := 28; i < 30; i++ {
		if err := q.Push(heavy, i); err != nil {
			t.Fatalf("heavy push %d within fair share rejected: %v", i, err)
		}
	}
	// The fair shares sum to capacity, so the queue is now full and
	// everyone — heavy included — gets queue_full.
	if err := q.Push(heavy, 30); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("heavy push at capacity = %v, want ErrQueueFull", err)
	}
	if err := q.Push(light, 11); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("light push at capacity = %v, want ErrQueueFull", err)
	}
}

func TestQueueMaxQueuedAndCapacity(t *testing.T) {
	path := writeKeyfile(t, `{"tenants": [{"id": "capped", "key": "k", "max_queued": 2}]}`)
	c, err := NewController(Config{Path: path, Metrics: metrics.New()})
	if err != nil {
		t.Fatal(err)
	}
	capped, _ := c.Authenticate("k")
	q := NewQueue[int](c, QueueConfig{Capacity: 3})
	if err := q.Push(capped, 1); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(capped, 2); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(capped, 3); !errors.Is(err, ErrQuota) {
		t.Fatalf("push beyond max_queued = %v, want ErrQuota", err)
	}
	if err := q.Push(c.Anonymous(), 4); err != nil {
		t.Fatal(err)
	}
	if err := q.Push(c.Anonymous(), 5); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("push beyond capacity = %v, want ErrQueueFull", err)
	}
}

// TestQueueCloseDrains: Close stops admission but lets Pop drain what
// was already admitted.
func TestQueueCloseDrains(t *testing.T) {
	c := Open(nil)
	q := NewQueue[int](c, QueueConfig{Capacity: 8})
	for i := 0; i < 3; i++ {
		if err := q.Push(c.Anonymous(), i); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	// A closed queue is shutdown, not back-pressure: the error must not
	// be a retryable 429-class sentinel.
	if err := q.Push(c.Anonymous(), 99); !errors.Is(err, ErrQueueClosed) {
		t.Fatalf("push after close = %v, want ErrQueueClosed", err)
	} else if errors.Is(err, ErrQueueFull) {
		t.Fatal("push after close reported the retryable ErrQueueFull")
	}
	for i := 0; i < 3; i++ {
		item, ok := q.Pop()
		if !ok || item != i {
			t.Fatalf("drain pop %d = %d, %v", i, item, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on a drained closed queue reported ok")
	}
}
