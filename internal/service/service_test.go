package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/store"
)

func testSpec() Spec {
	return Spec{ScenarioConfig: experiments.ScenarioConfig{
		N:         30,
		Topology:  "geometric",
		Query:     "min",
		Attack:    "drop",
		Malicious: 1,
		Trials:    4,
		Seed:      7,
		Workers:   2,
	}}
}

func postJob(t *testing.T, srv *httptest.Server, spec Spec) (id string, code int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out["id"], resp.StatusCode
}

func getView(t *testing.T, srv *httptest.Server, id string) (View, int) {
	t.Helper()
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp.StatusCode
}

func waitStatus(t *testing.T, srv *httptest.Server, id string, want Status) View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		v, code := getView(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s -> %d", id, code)
		}
		if v.Status == want {
			return v
		}
		if v.Status.terminal() {
			t.Fatalf("job %s reached %s (error %q), want %s", id, v.Status, v.Error, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return View{}
}

// TestHTTPJobMatchesBenchRows is acceptance criterion (a): rows returned
// by the HTTP API are byte-identical to the CLI's for the same
// seed/worker count. experiments.RunScenario is exactly what
// `vmat-bench -exp scenario` wraps, so comparing serialized rows against
// a direct call proves the parity.
func TestHTTPJobMatchesBenchRows(t *testing.T) {
	m := New(Config{QueueSize: 4, Workers: 2})
	defer drain(t, m)
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	spec := testSpec()
	id, code := postJob(t, srv, spec)
	if code != http.StatusAccepted || id == "" {
		t.Fatalf("POST -> %d id=%q, want 202", code, id)
	}
	v := waitStatus(t, srv, id, StatusDone)
	if len(v.Rows) != spec.Trials {
		t.Fatalf("got %d rows, want %d", len(v.Rows), spec.Trials)
	}

	want, err := experiments.RunScenario(spec.ScenarioConfig)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(v.Rows)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("HTTP rows differ from vmat-bench rows:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestQueueRejectsWhenFull is acceptance criterion (b): a full queue
// rejects with 429 instead of blocking. The run gate holds the single
// worker so occupancy is deterministic.
func TestQueueRejectsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	m := New(Config{QueueSize: 2, Workers: 1})
	m.runGate = gate
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	// First job is dequeued by the worker and held at the gate.
	first, code := postJob(t, srv, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("job 1 -> %d", code)
	}
	waitStatus(t, srv, first, StatusRunning)

	// Two more fill the queue; the fourth must bounce with 429.
	for i := 2; i <= 3; i++ {
		if _, code := postJob(t, srv, testSpec()); code != http.StatusAccepted {
			t.Fatalf("job %d -> %d, want 202", i, code)
		}
	}
	if _, code := postJob(t, srv, testSpec()); code != http.StatusTooManyRequests {
		t.Fatalf("job 4 -> %d, want 429", code)
	}
	if got := m.reg.Counter(MetricJobsRejected + `{reason="queue_full"}`).Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(gate)
	drain(t, m)
}

// TestDrainCompletesInFlightJobs is acceptance criterion (c):
// SIGTERM-style shutdown finishes queued and running jobs, and
// /metrics afterwards reports queue depth 0.
func TestDrainCompletesInFlightJobs(t *testing.T) {
	m := New(Config{QueueSize: 8, Workers: 1})
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		id, code := postJob(t, srv, testSpec())
		if code != http.StatusAccepted {
			t.Fatalf("job %d -> %d", i, code)
		}
		ids = append(ids, id)
	}

	drain(t, m) // what main() runs on SIGTERM

	for _, id := range ids {
		v, code := getView(t, srv, id)
		if code != http.StatusOK {
			t.Fatalf("GET %s -> %d after drain", id, code)
		}
		if v.Status != StatusDone {
			t.Fatalf("job %s = %s after drain, want done", id, v.Status)
		}
	}

	// Submissions after drain bounce with 503.
	if _, code := postJob(t, srv, testSpec()); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit -> %d, want 503", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if !strings.Contains(text, MetricQueueDepth+" 0") {
		t.Fatalf("/metrics missing %q:\n%s", MetricQueueDepth+" 0", text)
	}
	if !strings.Contains(text, MetricJobs+`{outcome="done"} 3`) {
		t.Fatalf("/metrics missing done-jobs counter:\n%s", text)
	}
	if !strings.Contains(text, "core_executions_total") {
		t.Fatalf("/metrics missing engine counters:\n%s", text)
	}
}

func TestTraceStreamsNDJSON(t *testing.T) {
	m := New(Config{QueueSize: 4, Workers: 1})
	defer drain(t, m)
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	spec := testSpec()
	spec.Trials = 2
	spec.Trace = true
	id, code := postJob(t, srv, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST -> %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	trialsSeen := map[int]bool{}
	lines := 0
	for sc.Scan() {
		var te TraceEvent
		if err := json.Unmarshal(sc.Bytes(), &te); err != nil {
			t.Fatalf("line %d not JSON: %v: %s", lines, err, sc.Text())
		}
		if te.Kind == "" {
			t.Fatalf("line %d has empty kind", lines)
		}
		trialsSeen[te.Trial] = true
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 {
		t.Fatal("trace stream was empty")
	}
	for trial := 0; trial < spec.Trials; trial++ {
		if !trialsSeen[trial] {
			t.Fatalf("no events for trial %d", trial)
		}
	}

	// A job without trace enabled refuses the stream.
	plainID, _ := postJob(t, srv, testSpec())
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + plainID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace of untraced job -> %d, want 400", resp2.StatusCode)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	gate := make(chan struct{})
	m := New(Config{QueueSize: 4, Workers: 1})
	m.runGate = gate
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	runningID, _ := postJob(t, srv, testSpec())
	waitStatus(t, srv, runningID, StatusRunning)
	queuedID, _ := postJob(t, srv, testSpec())

	// Cancel the queued job: it finalizes without ever running.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+queuedID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if v, _ := getView(t, srv, queuedID); v.Status != StatusCancelled {
		t.Fatalf("queued job after cancel = %s, want cancelled", v.Status)
	}

	// Cancel the running job, then release the gate: it aborts at a
	// trial boundary.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+runningID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	close(gate)
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, _ := getView(t, srv, runningID)
		if v.Status == StatusCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job = %s, want cancelled", v.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
	drain(t, m)

	// Cancelling an unknown job is a 404.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/nope", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown -> %d, want 404", resp.StatusCode)
	}
}

func TestInvalidSpecRejected(t *testing.T) {
	m := New(Config{QueueSize: 2, Workers: 1})
	defer drain(t, m)
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	spec := testSpec()
	spec.Topology = "moebius"
	if _, code := postJob(t, srv, spec); code != http.StatusBadRequest {
		t.Fatalf("invalid spec -> %d, want 400", code)
	}
	// A grid that cannot hold n nodes is refused at the door rather
	// than accepted and failed at its first trial.
	spec = testSpec()
	spec.N, spec.Topology = 60, "grid"
	if _, code := postJob(t, srv, spec); code != http.StatusBadRequest {
		t.Fatalf("n=60 grid spec -> %d, want 400", code)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body -> %d, want 400", resp.StatusCode)
	}
}

// TestJobTimeoutFailsLongJobs proves a configured JobTimeout bounds
// execution: with an already-expired deadline the job fails at its first
// trial boundary instead of occupying the worker, and the failure
// message names the timeout.
func TestJobTimeoutFailsLongJobs(t *testing.T) {
	m := New(Config{QueueSize: 2, Workers: 1, JobTimeout: time.Nanosecond})
	defer drain(t, m)
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	id, code := postJob(t, srv, testSpec())
	if code != http.StatusAccepted {
		t.Fatalf("POST -> %d, want 202", code)
	}
	v := waitStatus(t, srv, id, StatusFailed)
	if !strings.Contains(v.Error, "execution timeout") {
		t.Fatalf("error = %q, want it to mention the execution timeout", v.Error)
	}
	if got := m.reg.Counter(MetricJobs + `{outcome="failed"}`).Value(); got != 1 {
		t.Fatalf("failed-outcome counter = %d, want 1", got)
	}
}

func TestRetentionEvictsOldestTerminalJobs(t *testing.T) {
	m := New(Config{QueueSize: 8, Workers: 1, Retain: 2})
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	spec := testSpec()
	spec.N = 16
	spec.Topology = "line"
	spec.Attack = "none"
	spec.Trials = 1
	var ids []string
	for i := 0; i < 4; i++ {
		id, code := postJob(t, srv, spec)
		if code != http.StatusAccepted {
			t.Fatalf("job %d -> %d", i, code)
		}
		ids = append(ids, id)
	}
	drain(t, m)

	if _, code := getView(t, srv, ids[0]); code != http.StatusNotFound {
		t.Fatalf("oldest job -> %d, want 404 after eviction", code)
	}
	if _, code := getView(t, srv, ids[3]); code != http.StatusOK {
		t.Fatalf("newest job -> %d, want 200", code)
	}
}

func TestHealthz(t *testing.T) {
	m := New(Config{QueueSize: 2, Workers: 1})
	srv := httptest.NewServer(NewHandler(m, "v-test", nil, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["status"] != "ok" || out["version"] != "v-test" || out["draining"] != false {
		t.Fatalf("healthz = %v", out)
	}
	drain(t, m)
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	out = map[string]any{}
	if err := json.NewDecoder(resp2.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["draining"] != true {
		t.Fatalf("healthz after drain = %v, want draining true", out)
	}
}

func TestHTTPInstrumentation(t *testing.T) {
	reg := metrics.New()
	m := New(Config{QueueSize: 2, Workers: 1, Metrics: reg})
	defer drain(t, m)
	srv := httptest.NewServer(NewHandler(m, "test", nil, nil))
	defer srv.Close()

	if _, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	}
	want := MetricHTTPRequests + `{route="GET /healthz",code="200"}`
	if got := reg.Counter(want).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", want, got)
	}
	durName := MetricHTTPDuration + `{route="GET /healthz"}`
	if got := reg.Histogram(durName, nil).Count(); got != 1 {
		t.Fatalf("%s count = %d, want 1", durName, got)
	}
}

func drain(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestResubmittedJobServedFromStore is the acceptance check for the
// persistent result store: the second submission of an identical spec
// must complete from the store — hit counter up, cached counter up, and
// crucially zero additional engine executions — with rows exactly equal
// to the first run's, even across a store reopen (journal replay).
func TestResubmittedJobServedFromStore(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	st, err := store.Open(dir, store.Config{Metrics: reg})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	m := New(Config{Workers: 2, Metrics: reg, Store: st, Version: "test"})

	job1, err := m.Submit(testSpec())
	if err != nil {
		t.Fatalf("first Submit: %v", err)
	}
	<-job1.Done()
	if job1.Status() != StatusDone {
		t.Fatalf("first job: %s (%s)", job1.Status(), job1.Err())
	}
	execsAfterFirst := reg.Counter(core.MetricExecutions).Value()
	if execsAfterFirst == 0 {
		t.Fatalf("first job ran no engine executions")
	}
	if job1.View().Source != "" {
		t.Fatalf("first job claims source %q, want fresh execution", job1.View().Source)
	}

	job2, err := m.Submit(testSpec())
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	select {
	case <-job2.Done():
	case <-time.After(5 * time.Second):
		t.Fatalf("cached job did not complete immediately")
	}
	if job2.Status() != StatusDone || job2.View().Source != "store" {
		t.Fatalf("cached job: status %s source %q, want done from store", job2.Status(), job2.View().Source)
	}
	if !reflect.DeepEqual(job2.Rows(), job1.Rows()) {
		t.Fatalf("cached rows differ from executed rows")
	}
	if got := reg.Counter(core.MetricExecutions).Value(); got != execsAfterFirst {
		t.Fatalf("cache hit executed the engine: %d -> %d executions", execsAfterFirst, got)
	}
	if hits := reg.Counter(store.MetricHits).Value(); hits == 0 {
		t.Fatalf("store hit counter did not increment")
	}
	if cached := reg.Counter(MetricJobsCached).Value(); cached != 1 {
		t.Fatalf("service_jobs_cached_total = %d, want 1", cached)
	}

	// A worker-count change must still hit: workers are not identity.
	respec := testSpec()
	respec.Workers = 7
	job3, err := m.Submit(respec)
	if err != nil {
		t.Fatalf("submit with different workers: %v", err)
	}
	<-job3.Done()
	if job3.View().Source != "store" {
		t.Fatalf("worker-count change missed the store")
	}

	// Trace jobs bypass the lookup — they need live engine events.
	traced := testSpec()
	traced.Trace = true
	job4, err := m.Submit(traced)
	if err != nil {
		t.Fatalf("submit traced: %v", err)
	}
	<-job4.Done()
	if job4.View().Source == "store" {
		t.Fatalf("traced job served from store; it has no events to stream")
	}
	if got := reg.Counter(core.MetricExecutions).Value(); got == execsAfterFirst {
		t.Fatalf("traced job did not execute")
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("store close: %v", err)
	}

	// Restart: a fresh manager over a reopened store serves the same
	// spec with no execution at all.
	reg2 := metrics.New()
	st2, err := store.Open(dir, store.Config{Metrics: reg2})
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer st2.Close()
	m2 := New(Config{Workers: 1, Metrics: reg2, Store: st2})
	job5, err := m2.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
	<-job5.Done()
	if job5.View().Source != "store" {
		t.Fatalf("restarted manager missed the journal-replayed store")
	}
	if !reflect.DeepEqual(job5.Rows(), job1.Rows()) {
		t.Fatalf("rows across restart differ")
	}
	if got := reg2.Counter(core.MetricExecutions).Value(); got != 0 {
		t.Fatalf("restarted manager executed %d times for a stored spec", got)
	}
}
