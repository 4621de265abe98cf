package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestVersionFlag(t *testing.T) {
	var buf strings.Builder
	if err := run([]string{"-version"}, &buf); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := buf.String(); !strings.Contains(got, "vmat-server") || !strings.Contains(got, version) {
		t.Fatalf("version output = %q, want it to name the binary and version %q", got, version)
	}
}

func TestBadFlagRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		// Workers get their units only over the streaming transport, so
		// a cluster without one could never run anything.
		{"-addr", "127.0.0.1:0", "-cluster", "-wire-addr", ""},
	} {
		var buf strings.Builder
		if err := run(args, &buf); err == nil {
			t.Fatalf("run accepted %q", args)
		}
	}
}

// freeAddr reserves an ephemeral port and releases it for the server to
// bind. Marginally racy, but fine for a test on loopback.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestServeSubmitAndSIGTERMDrain runs the real binary entry point,
// submits a job over HTTP, then delivers SIGTERM and verifies run
// returns cleanly after draining the in-flight work.
func TestServeSubmitAndSIGTERMDrain(t *testing.T) {
	addr := freeAddr(t)
	var buf strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-queue", "4", "-workers", "2"}, &buf)
	}()

	base := "http://" + addr
	waitHealthy(t, base)

	spec := `{"n":30,"topology":"geometric","query":"min","attack":"drop","malicious":1,"trials":2,"seed":7}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit: status %d, id %q", resp.StatusCode, submitted.ID)
	}

	// SIGTERM is caught by signal.NotifyContext inside run, so it drains
	// the job we just submitted instead of killing the test process.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error after SIGTERM: %v\noutput:\n%s", err, buf.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("server did not drain within 60s\noutput:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"listening on", "draining", "drained, bye"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSweepResumesAcrossSIGTERMRestart is the full restart story: a
// server with -data-dir is killed mid-sweep, a second server over the
// same directory gets the identical grid resubmitted, and every cell
// the first server completed is served from the store instead of
// re-executed.
func TestSweepResumesAcrossSIGTERMRestart(t *testing.T) {
	dataDir := t.TempDir()
	grid := `{"n": [40, 50, 60, 70], "attack": ["none", "drop"], "trials": 6, "seed": 11, "workers": 1}`

	type sweepView struct {
		Status   string `json:"status"`
		Cells    int    `json:"cells"`
		Executed int    `json:"executed"`
		Cached   int    `json:"cached"`
		Failed   int    `json:"failed"`
	}
	getView := func(t *testing.T, base, id string) sweepView {
		t.Helper()
		resp, err := http.Get(base + "/v1/sweeps/" + id)
		if err != nil {
			t.Fatalf("get sweep: %v", err)
		}
		defer resp.Body.Close()
		var v sweepView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode sweep view: %v", err)
		}
		return v
	}
	submit := func(t *testing.T, base string) string {
		t.Helper()
		resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(grid))
		if err != nil {
			t.Fatalf("submit sweep: %v", err)
		}
		defer resp.Body.Close()
		var s struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatalf("decode sweep submit: %v", err)
		}
		if resp.StatusCode != http.StatusAccepted || s.ID == "" {
			t.Fatalf("submit sweep: status %d, id %q", resp.StatusCode, s.ID)
		}
		return s.ID
	}

	// First server: start the sweep, kill it after the first completion.
	addr := freeAddr(t)
	var buf strings.Builder
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", addr, "-workers", "1", "-data-dir", dataDir}, &buf)
	}()
	base := "http://" + addr
	waitHealthy(t, base)
	id := submit(t, base)
	deadline := time.Now().Add(60 * time.Second)
	for getView(t, base, id).Executed == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("first server exited with error: %v\noutput:\n%s", err, buf.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("first server did not drain\noutput:\n%s", buf.String())
	}

	// Second server over the same data dir: the resubmitted grid must
	// serve every previously completed cell from the store.
	addr2 := freeAddr(t)
	var buf2 strings.Builder
	done2 := make(chan error, 1)
	go func() {
		done2 <- run([]string{"-addr", addr2, "-workers", "2", "-data-dir", dataDir}, &buf2)
	}()
	base2 := "http://" + addr2
	waitHealthy(t, base2)
	id2 := submit(t, base2)
	var v sweepView
	for {
		v = getView(t, base2, id2)
		if v.Status != "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resumed sweep stuck: %+v\noutput:\n%s", v, buf2.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v.Status != "done" || v.Failed != 0 {
		t.Fatalf("resumed sweep: %+v", v)
	}
	if v.Cached == 0 {
		t.Fatalf("restart served nothing from the store: %+v\noutput:\n%s", v, buf2.String())
	}
	if v.Cached+v.Executed != v.Cells {
		t.Fatalf("cell accounting: %+v", v)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("kill second server: %v", err)
	}
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second server exited with error: %v\noutput:\n%s", err, buf2.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("second server did not drain\noutput:\n%s", buf2.String())
	}
	// Read once the server has exited: it writes buf2 while it runs.
	if !strings.Contains(buf2.String(), "result store at") {
		t.Fatalf("second server did not announce the store:\n%s", buf2.String())
	}
}

func waitHealthy(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server at %s never became healthy", base)
}
