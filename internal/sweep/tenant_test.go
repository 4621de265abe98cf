package sweep

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/tenant"
)

// TestSweepCompletesUnderSweepCellQuota: a tenant capped at one
// concurrent sweep cell still finishes a multi-cell sweep — the quota
// serializes the cells instead of failing them.
func TestSweepCompletesUnderSweepCellQuota(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"anonymous": {}, "tenants": [{"id": "capped", "key": "k", "max_sweep_cells": 1}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	ctl, err := tenant.NewController(tenant.Config{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, Metrics: reg, Tenants: ctl})
	sm := NewManager(Config{Service: svc, Metrics: reg, MaxInFlight: 4})

	capped, err := ctl.Authenticate("k")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := sm.SubmitAs(capped, smallGrid())
	if err != nil {
		t.Fatalf("SubmitAs: %v", err)
	}
	if sw.Tenant() != "capped" {
		t.Fatalf("sweep tenant = %q, want capped", sw.Tenant())
	}
	waitSweep(t, sw)
	v := sw.View(false)
	if v.Status != StatusDone || v.Executed != v.Cells || v.Failed != 0 {
		t.Fatalf("quota-capped sweep ended %+v, want all %d cells executed", v, v.Cells)
	}
	if v.Tenant != "capped" {
		t.Fatalf("view tenant = %q, want capped", v.Tenant)
	}

	// Every claimed slot was returned.
	text := &strings.Builder{}
	if err := reg.WriteText(text); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(text.String(), "\n") {
		if strings.HasPrefix(line, tenant.MetricSweepCells) && strings.Contains(line, `tenant="capped"`) {
			if !strings.HasSuffix(line, " 0") {
				t.Fatalf("sweep-cell gauge did not return to zero: %s", line)
			}
		}
	}
	drainAll(t, sm, svc)
}

// TestSweepCellQuotaWaitCountedOnce: a cell that waits for the
// tenant's sweep-cell quota is one refusal, however many times the
// sweep loop polls the quota while it waits.
func TestSweepCellQuotaWaitCountedOnce(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants": [{"id": "capped", "key": "k", "max_sweep_cells": 1}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	ctl, err := tenant.NewController(tenant.Config{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1, Metrics: reg, Tenants: ctl})
	sm := NewManager(Config{Service: svc, Metrics: reg})
	capped, err := ctl.Authenticate("k")
	if err != nil {
		t.Fatal(err)
	}
	if !ctl.AcquireSweepCell(capped) {
		t.Fatal("could not take the tenant's only sweep-cell slot")
	}
	sw, err := sm.SubmitAs(capped, Grid{N: []int{20}, Trials: 1, Seed: 7})
	if err != nil {
		t.Fatalf("SubmitAs: %v", err)
	}
	time.Sleep(200 * time.Millisecond) // the sweep loop polls the full quota
	ctl.ReleaseSweepCell(capped)
	waitSweep(t, sw)
	if v := sw.View(false); v.Status != StatusDone || v.Executed != 1 {
		t.Fatalf("sweep ended %+v, want its one cell executed", v)
	}
	got := reg.Counter(tenant.MetricRejected + `{tenant="capped",reason="` + tenant.ReasonSweepCells + `"}`).Value()
	if got != 1 {
		t.Fatalf("sweep-cell refusals = %d, want 1 (one cell waited)", got)
	}
	drainAll(t, sm, svc)
}

// TestSweepAccessScopedToTenant: sweep IDs are sequential, so the
// sweep API must scope reads and cancels to the owning tenant (admins
// excepted). A tenant that attaches by resubmitting the identical grid
// gains read access to the shared sweep but still cannot cancel it.
func TestSweepAccessScopedToTenant(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	keyfile := `{"tenants": [{"id": "lab-a", "key": "ka"}, {"id": "lab-b", "key": "kb"}, {"id": "ops", "key": "ko", "admin": true}]}`
	if err := os.WriteFile(path, []byte(keyfile), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	ctl, err := tenant.NewController(tenant.Config{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, Metrics: reg, Tenants: ctl})
	sm := NewManager(Config{Service: svc, Metrics: reg})
	root := http.NewServeMux()
	root.Handle("/", service.NewHandler(svc, "test", nil, nil))
	Register(root, sm)
	srv := httptest.NewServer(root)
	defer srv.Close()

	do := func(method, path, key string, body string) int {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequest(method, srv.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer "+key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	grid := `{"n": [20, 30], "attack": ["none", "drop"], "trials": 2, "seed": 7, "workers": 2}`
	if code := do("POST", "/v1/sweeps", "ka", grid); code != http.StatusAccepted {
		t.Fatalf("submit as lab-a -> %d, want 202", code)
	}
	const id = "/v1/sweeps/s000001"

	// Reads and results: owner and admin yes, the other tenant 404.
	for _, tc := range []struct {
		key  string
		want int
	}{{"ka", 200}, {"ko", 200}, {"kb", 404}} {
		if code := do("GET", id, tc.key, ""); code != tc.want {
			t.Fatalf("GET sweep as %q -> %d, want %d", tc.key, code, tc.want)
		}
		if code := do("GET", id+"/results", tc.key, ""); code != tc.want {
			t.Fatalf("GET results as %q -> %d, want %d", tc.key, code, tc.want)
		}
	}
	// Cross-tenant cancel is the destructive path: 404, sweep untouched.
	if code := do("DELETE", id, "kb", ""); code != http.StatusNotFound {
		t.Fatalf("DELETE as lab-b -> %d, want 404", code)
	}

	// lab-b resubmits the identical grid: it attaches to the live sweep
	// (or, if the sweep already finished, starts its own — both 202) and
	// may now poll what it was handed back; cancel stays owner-only.
	if code := do("POST", "/v1/sweeps", "kb", grid); code != http.StatusAccepted {
		t.Fatalf("attach submit as lab-b -> %d, want 202", code)
	}
	sw, ok := sm.Get("s000001")
	if !ok {
		t.Fatal("sweep s000001 missing")
	}
	if sw.Accessible("lab-b") {
		if code := do("GET", id, "kb", ""); code != http.StatusOK {
			t.Fatalf("GET attached sweep as lab-b -> %d, want 200", code)
		}
		if code := do("DELETE", id, "kb", ""); code != http.StatusNotFound {
			t.Fatalf("DELETE attached sweep as lab-b -> %d, want 404 (read access must not grant cancel)", code)
		}
	}
	if code := do("DELETE", id, "ka", ""); code != http.StatusOK {
		t.Fatalf("DELETE as owner -> %d, want 200", code)
	}
	drainAll(t, sm, svc)
}

// TestSweepSubmitRateLimited: sweep submission itself pays the
// tenant's rate bucket, and the rejection is an AdmissionError the
// HTTP layer can turn into 429 + Retry-After.
func TestSweepSubmitRateLimited(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(`{"tenants": [{"id": "lab", "key": "k", "rate": 0.1, "burst": 1}]}`), 0o600); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	ctl, err := tenant.NewController(tenant.Config{Path: path, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 2, Metrics: reg, Tenants: ctl})
	sm := NewManager(Config{Service: svc, Metrics: reg})

	lab, _ := ctl.Authenticate("k")
	// Burst of 1: the sweep consumes it; its cells ride the submitCell
	// retry loop, so the sweep still completes, just paced by the bucket.
	sw, err := sm.SubmitAs(lab, Grid{N: []int{20}, Trials: 1, Seed: 3, Workers: 1})
	if err != nil {
		t.Fatalf("first SubmitAs: %v", err)
	}
	if _, err := sm.SubmitAs(lab, smallGrid()); err == nil {
		t.Fatal("second sweep admitted with an empty bucket")
	} else {
		var adm *tenant.AdmissionError
		if !errors.As(err, &adm) || adm.Reason != tenant.ReasonRateLimited {
			t.Fatalf("second SubmitAs error = %v, want rate_limited AdmissionError", err)
		}
	}
	waitSweep(t, sw)
	drainAll(t, sm, svc)
}

// incarnation is one server lifetime over a data dir: the store, the
// WAL, the service and the sweep manager, opened with the keyfile at
// keyfile, the WAL replayed, and the sweep API served over HTTP.
type incarnation struct {
	sm  *Manager
	svc *service.Manager
	st  *store.Store
	wal *store.WAL
	srv *httptest.Server
}

func startIncarnation(t *testing.T, data, keyfile string) *incarnation {
	t.Helper()
	ctl, err := tenant.NewController(tenant.Config{Path: keyfile})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(data, store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	wal, recs, err := store.OpenWAL(data, store.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Workers: 1, Store: st, Tenants: ctl})
	sm := NewManager(Config{Service: svc, MaxInFlight: 1, WAL: wal, WALRecords: recs})
	sm.Recover()
	mux := http.NewServeMux()
	Register(mux, sm)
	return &incarnation{sm: sm, svc: svc, st: st, wal: wal, srv: httptest.NewServer(mux)}
}

// stop drains the incarnation and closes its store and WAL, as a
// graceful shutdown does.
func (in *incarnation) stop(t *testing.T) {
	t.Helper()
	in.srv.Close()
	drainAll(t, in.sm, in.svc)
	in.st.Close()
	in.wal.Close()
}

// do sends one sweep API request as the tenant holding key (anonymous
// when key is empty) and returns the status code.
func (in *incarnation) do(t *testing.T, method, path, key, body string) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, in.srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestRecoverKeepsSweepOwnership: a keyed tenant's sweep, killed and
// replayed from its WAL into a manager with the same keyfile, still
// belongs to its owner, who reads and cancels it; a tenant that
// attached keeps read access but no cancel, and any other tenant gets
// 404. The owner's rate (one submission per 1000 s) holds every cell
// in the retry loop, so the sweep stays open across two recoveries:
// the second reads the WAL the first compacted.
func TestRecoverKeepsSweepOwnership(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	keyfile := `{"tenants": [{"id": "lab-a", "key": "ka", "rate": 0.001, "burst": 1}, {"id": "lab-b", "key": "kb"}, {"id": "lab-c", "key": "kc"}]}`
	if err := os.WriteFile(path, []byte(keyfile), 0o600); err != nil {
		t.Fatal(err)
	}
	data := filepath.Join(dir, "data")

	in := startIncarnation(t, data, path)
	ctl := in.svc.Tenants()
	labA, _ := ctl.Authenticate("ka")
	labC, _ := ctl.Authenticate("kc")
	sw, err := in.sm.SubmitAs(labA, smallGrid())
	if err != nil {
		t.Fatalf("SubmitAs lab-a: %v", err)
	}
	if got, err := in.sm.SubmitAs(labC, smallGrid()); err != nil || got != sw {
		t.Fatalf("lab-c did not attach to %s: %v", sw.ID(), err)
	}
	for round := 1; round <= 3; round++ {
		if round > 1 {
			in.stop(t)
			in = startIncarnation(t, data, path)
			sw, _ = in.sm.Get("s000001")
			if sw == nil {
				t.Fatalf("recovery %d did not resume s000001", round-1)
			}
		}
		if sw.Tenant() != "lab-a" {
			t.Fatalf("round %d: sweep owner = %q, want lab-a", round, sw.Tenant())
		}
		for _, tc := range []struct {
			method, key string
			want        int
		}{
			{"GET", "ka", 200}, {"GET", "kb", 404}, {"DELETE", "kb", 404},
			{"GET", "kc", 200}, {"DELETE", "kc", 404},
		} {
			if code := in.do(t, tc.method, "/v1/sweeps/s000001", tc.key, ""); code != tc.want {
				t.Fatalf("round %d: %s as %s -> %d, want %d", round, tc.method, tc.key, code, tc.want)
			}
		}
	}
	if code := in.do(t, "DELETE", "/v1/sweeps/s000001", "ka", ""); code != http.StatusOK {
		t.Fatalf("owner DELETE after two recoveries -> %d, want 200", code)
	}
	waitSweep(t, sw)
	if s := sw.Status(); s != StatusCancelled {
		t.Fatalf("owner's cancel left status %s", s)
	}
	in.stop(t)
}

// TestRecoverOwnershipInterleavings drives hand-picked interleavings
// of submit, attach, cancel and restart (a graceful stop and a reopen
// of the same data dir) through the sweep API. After every step that
// leaves the sweep live, it has exactly one owner, the tenant that
// opened it, which can read and cancel it; every attacher can read it
// but not cancel it; every other tenant gets 404; and the WAL holds
// one sweep-opened record for it and at most one sweep-attached record
// per tenant. An owner's cancel closes the sweep for good: after a
// restart no tenant can find it. Every tenant's rate (one submission
// per 1000 s) holds the sweep's cells in the retry loop, so the sweep
// stays open until cancelled.
func TestRecoverOwnershipInterleavings(t *testing.T) {
	const grid = `{"n": [20, 30, 40], "attack": ["none", "drop"], "trials": 2, "seed": 7, "workers": 2}`
	const id = "s000001"
	keyfile := `{"anonymous": {"rate": 0.001, "burst": 1}, "tenants": [
		{"id": "lab-a", "key": "ka", "rate": 0.001, "burst": 1},
		{"id": "lab-b", "key": "kb", "rate": 0.001, "burst": 2},
		{"id": "lab-c", "key": "kc", "rate": 0.001, "burst": 2}]}`
	ids := map[string]string{"": tenant.AnonymousID, "ka": "lab-a", "kb": "lab-b", "kc": "lab-c"}

	type step struct{ do, key string } // do: submit, attach, cancel or restart
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"keyed submit, restart, attach, restart", []step{
			{"submit", "ka"}, {"restart", ""}, {"attach", "kb"}, {"restart", ""}}},
		{"same tenant attaches twice, then a restart", []step{
			{"submit", "ka"}, {"attach", "kb"}, {"attach", "kb"}, {"restart", ""}}},
		{"attacher attaches again after a restart", []step{
			{"submit", "ka"}, {"attach", "kc"}, {"restart", ""}, {"attach", "kc"}, {"restart", ""}}},
		{"anonymous owner, keyed attacher", []step{
			{"submit", ""}, {"attach", "kb"}, {"restart", ""}, {"attach", "kc"}, {"restart", ""}}},
		{"owner cancels, then a restart", []step{
			{"submit", "ka"}, {"attach", "kb"}, {"restart", ""}, {"cancel", "ka"}, {"restart", ""}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "tenants.json")
			if err := os.WriteFile(path, []byte(keyfile), 0o600); err != nil {
				t.Fatal(err)
			}
			data := filepath.Join(dir, "data")
			in := startIncarnation(t, data, path)
			defer func() { in.stop(t) }()

			owner, live := "", false
			attached := map[string]bool{}
			for n, s := range tc.steps {
				switch s.do {
				case "submit", "attach":
					if code := in.do(t, "POST", "/v1/sweeps", s.key, grid); code != http.StatusAccepted {
						t.Fatalf("step %d: %s as %q -> %d, want 202", n, s.do, s.key, code)
					}
					if s.do == "submit" {
						owner, live = s.key, true
					} else {
						attached[s.key] = true
					}
				case "cancel":
					if code := in.do(t, "DELETE", "/v1/sweeps/"+id, s.key, ""); code != http.StatusOK {
						t.Fatalf("step %d: owner DELETE -> %d, want 200", n, code)
					}
					sw, _ := in.sm.Get(id)
					waitSweep(t, sw)
					live = false
				case "restart":
					in.stop(t)
					in = startIncarnation(t, data, path)
				}
				if live {
					checkOwnership(t, in, data, id, n, ids, owner, attached)
				}
			}
			if !live {
				for key := range ids {
					if code := in.do(t, "GET", "/v1/sweeps/"+id, key, ""); code != http.StatusNotFound {
						t.Fatalf("cancelled sweep after a restart: GET as %q -> %d, want 404", key, code)
					}
				}
				return
			}
			// The owner's cancel right, exercised last: it ends the sweep.
			if code := in.do(t, "DELETE", "/v1/sweeps/"+id, owner, ""); code != http.StatusOK {
				t.Fatalf("owner DELETE -> %d, want 200", code)
			}
		})
	}
}

// checkOwnership asserts the ownership invariants of a live sweep (see
// TestRecoverOwnershipInterleavings) after step n. ids maps each key to
// its tenant ID. The owner's DELETE is left to the end of the
// interleaving, because it ends the sweep.
func checkOwnership(t *testing.T, in *incarnation, data, id string, n int, ids map[string]string, owner string, attached map[string]bool) {
	t.Helper()
	sw, ok := in.sm.Get(id)
	if !ok || sw.Status().terminal() {
		t.Fatalf("step %d: sweep %s is not live", n, id)
	}
	if sw.Tenant() != ids[owner] {
		t.Fatalf("step %d: sweep owner = %q, want %q", n, sw.Tenant(), ids[owner])
	}
	for key, tid := range ids {
		get := in.do(t, "GET", "/v1/sweeps/"+id, key, "")
		switch {
		case key == owner:
			if get != http.StatusOK {
				t.Fatalf("step %d: owner %s: GET -> %d, want 200", n, tid, get)
			}
		case attached[key]:
			if del := in.do(t, "DELETE", "/v1/sweeps/"+id, key, ""); get != http.StatusOK || del != http.StatusNotFound {
				t.Fatalf("step %d: attacher %s: GET -> %d, DELETE -> %d, want 200 and 404", n, tid, get, del)
			}
		default:
			if del := in.do(t, "DELETE", "/v1/sweeps/"+id, key, ""); get != http.StatusNotFound || del != http.StatusNotFound {
				t.Fatalf("step %d: stranger %s: GET -> %d, DELETE -> %d, want 404 and 404", n, tid, get, del)
			}
		}
	}

	// Read a copy of the live WAL: opening the original would race the
	// incarnation's appends.
	raw, err := os.ReadFile(filepath.Join(data, store.WALName))
	if err != nil {
		t.Fatal(err)
	}
	cp := t.TempDir()
	if err := os.WriteFile(filepath.Join(cp, store.WALName), raw, 0o600); err != nil {
		t.Fatal(err)
	}
	wal, recs, err := store.OpenWAL(cp, store.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	opened, attaches := 0, map[string]int{}
	for _, r := range recs {
		switch {
		case r.Sweep != id:
		case r.Kind == store.RecSweepOpened:
			opened++
		case r.Kind == store.RecSweepAttached:
			attaches[r.Tenant]++
		}
	}
	if opened != 1 {
		t.Fatalf("step %d: WAL holds %d sweep-opened records for %s, want 1: %+v", n, opened, id, recs)
	}
	for tid, k := range attaches {
		if k > 1 {
			t.Fatalf("step %d: WAL holds %d sweep-attached records for %s, want at most 1: %+v", n, k, tid, recs)
		}
	}
}

// TestRecoverUnknownOwnerResumesAnonymous: a sweep-opened record whose
// owner the keyfile no longer names, or that names none, resumes as the
// anonymous tenant, with one log line per sweep.
func TestRecoverUnknownOwnerResumesAnonymous(t *testing.T) {
	raw, _ := json.Marshal(Grid{N: []int{20}, Trials: 1, Seed: 5, Workers: 1})
	recs := []store.WALRecord{
		{Kind: store.RecSweepOpened, Sweep: "s000001", Tenant: "gone", Grid: raw},
		{Kind: store.RecSweepOpened, Sweep: "s000002", Grid: raw},
	}
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	svc := service.New(service.Config{Workers: 1})
	sm := NewManager(Config{Service: svc, WALRecords: recs, Log: logf})
	sm.Recover()
	for _, id := range []string{"s000001", "s000002"} {
		sw, ok := sm.Get(id)
		if !ok {
			t.Fatalf("%s not resumed", id)
		}
		if sw.Tenant() != tenant.AnonymousID {
			t.Fatalf("%s resumed as %q, want anonymous", id, sw.Tenant())
		}
		waitSweep(t, sw)
		mu.Lock()
		n := 0
		for _, l := range lines {
			if strings.HasPrefix(l, "sweep "+id+": owner ") && strings.Contains(l, "resuming as anonymous") {
				n++
			}
		}
		mu.Unlock()
		if n != 1 {
			t.Fatalf("%s: %d owner log lines, want 1: %q", id, n, lines)
		}
	}
	drainAll(t, sm, svc)
}
