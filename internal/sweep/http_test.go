package sweep_test

import (
	"encoding/csv"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/sweep"
)

// newTestServer composes the root mux exactly like cmd/vmat-server:
// the job API handler at "/", sweep routes registered on top.
func newTestServer(t *testing.T) (*httptest.Server, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	st, err := store.Open(t.TempDir(), store.Config{Metrics: reg})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	svc := service.New(service.Config{Workers: 2, Metrics: reg, Store: st})
	sm := sweep.NewManager(sweep.Config{Service: svc, Metrics: reg})

	root := http.NewServeMux()
	root.Handle("/", service.NewHandler(svc, "test", nil, nil))
	sweep.Register(root, sm)
	srv := httptest.NewServer(root)
	t.Cleanup(func() {
		srv.Close()
		st.Close()
	})
	return srv, reg
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp, m
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp
}

func TestSweepHTTPLifecycle(t *testing.T) {
	srv, _ := newTestServer(t)

	// Submit a 4-cell grid.
	resp, body := postJSON(t, srv.URL+"/v1/sweeps",
		`{"n": [20, 30], "attack": ["none", "drop"], "trials": 2, "seed": 7, "workers": 2}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, body)
	}
	id, _ := body["id"].(string)
	if id == "" || body["cells"].(float64) != 4 {
		t.Fatalf("submit response: %v", body)
	}

	// Poll progress until done.
	var view sweep.View
	deadline := time.Now().Add(60 * time.Second)
	for {
		if r := getJSON(t, srv.URL+"/v1/sweeps/"+id, &view); r.StatusCode != http.StatusOK {
			t.Fatalf("get sweep: %d", r.StatusCode)
		}
		if view.Status != sweep.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Status != sweep.StatusDone || view.Executed != 4 || len(view.Results) != 0 {
		t.Fatalf("progress view: %+v", view)
	}

	// JSON results carry rows for every cell.
	var full sweep.View
	getJSON(t, srv.URL+"/v1/sweeps/"+id+"/results", &full)
	if len(full.Results) != 4 {
		t.Fatalf("results: %d cells", len(full.Results))
	}
	for _, c := range full.Results {
		if len(c.Rows) != 2 {
			t.Fatalf("cell %d has %d rows", c.Index, len(c.Rows))
		}
	}

	// CSV export: header + one line per trial per cell.
	cresp, err := http.Get(srv.URL + "/v1/sweeps/" + id + "/results?format=csv")
	if err != nil {
		t.Fatalf("GET csv: %v", err)
	}
	defer cresp.Body.Close()
	if ct := cresp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("csv content type %q", ct)
	}
	recs, err := csv.NewReader(cresp.Body).ReadAll()
	if err != nil {
		t.Fatalf("parse csv: %v", err)
	}
	if len(recs) != 1+4*2 {
		t.Fatalf("csv has %d lines, want 9", len(recs))
	}
	if recs[0][0] != "cell" || recs[0][1] != "n" {
		t.Fatalf("csv shape: %v / %v", recs[0], recs[1])
	}
	// No provenance column: the CSV must be a pure function of the grid
	// so crash-recovered runs export bit-identical bytes.
	for _, col := range recs[0] {
		if col == "source" {
			t.Fatalf("csv header leaks provenance: %v", recs[0])
		}
	}

	// Resubmitting the identical grid is served from the store.
	_, body2 := postJSON(t, srv.URL+"/v1/sweeps",
		`{"n": [20, 30], "attack": ["none", "drop"], "trials": 2, "seed": 7, "workers": 2}`)
	id2 := body2["id"].(string)
	for {
		getJSON(t, srv.URL+"/v1/sweeps/"+id2, &view)
		if view.Status != sweep.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cached sweep stuck: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Cached != 4 || view.Executed != 0 {
		t.Fatalf("resubmitted sweep not cached: %+v", view)
	}
}

func TestSweepHTTPRejections(t *testing.T) {
	srv, _ := newTestServer(t)

	// Unknown field.
	resp, body := postJSON(t, srv.URL+"/v1/sweeps", `{"nodes": [20]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: %d %v", resp.StatusCode, body)
	}
	// Over the default cap: 8 x 30 x 18 = 4320 cells.
	over := `{"n": [20,30,40,50,60,70,80,90],
		"theta": [1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30],
		"loss_rate": [0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1,0.11,0.12,0.13,0.14,0.15,0.16,0.17,0.18]}`
	resp, body = postJSON(t, srv.URL+"/v1/sweeps", over)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body["error"].(string), "cap") {
		t.Fatalf("over-cap grid: %d %v", resp.StatusCode, body)
	}
	// Invalid cell value.
	resp, body = postJSON(t, srv.URL+"/v1/sweeps", `{"attack": ["frobnicate"]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid attack: %d %v", resp.StatusCode, body)
	}
	// Unknown sweep IDs.
	for _, path := range []string{"/v1/sweeps/s999999", "/v1/sweeps/s999999/results"} {
		r, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: %d", path, r.StatusCode)
		}
	}
	// Unknown format.
	resp2, body2 := postJSON(t, srv.URL+"/v1/sweeps", `{"n": [20], "trials": 1, "workers": 1}`)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp2.StatusCode, body2)
	}
	fr, err := http.Get(srv.URL + "/v1/sweeps/" + body2["id"].(string) + "/results?format=xml")
	if err != nil {
		t.Fatalf("GET xml: %v", err)
	}
	fr.Body.Close()
	if fr.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown format: %d", fr.StatusCode)
	}
}

func TestSweepHTTPCancel(t *testing.T) {
	srv, _ := newTestServer(t)
	_, body := postJSON(t, srv.URL+"/v1/sweeps",
		`{"n": [40, 50, 60, 70], "attack": ["drop"], "trials": 8, "workers": 1}`)
	id := body["id"].(string)

	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/sweeps/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	var view sweep.View
	deadline := time.Now().Add(60 * time.Second)
	for {
		getJSON(t, srv.URL+"/v1/sweeps/"+id, &view)
		if view.Status != sweep.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled sweep stuck: %+v", view)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Status != sweep.StatusCancelled && view.Status != sweep.StatusDone {
		t.Fatalf("cancelled sweep status %s", view.Status)
	}
}
