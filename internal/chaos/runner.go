package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Config configures one chaos run over real processes.
type Config struct {
	// ServerBin and WorkerBin are built vmat-server / vmat-worker
	// binaries. Required.
	ServerBin string
	WorkerBin string
	// Workers is the fleet size. Zero runs everything on the server's
	// local pool (the baseline shape).
	Workers int
	// Grid is the sweep spec JSON posted to /v1/sweeps. Required.
	Grid string
	// Trials must match the grid's trials value; the execution bound is
	// denominated in engine executions, which count per trial.
	Trials int
	// DataDir is the server's -data-dir; it persists across the kills
	// and restarts — that persistence IS the system under test.
	DataDir string
	// WorkDir receives process logs. Required.
	WorkDir string
	// Schedule is the fault plan. An empty schedule is an undisturbed
	// run (the baseline).
	Schedule Schedule
	// LeaseTTL is the server's -lease-ttl. Default 2s — short, so a
	// killed worker's lease turns around within the test budget.
	LeaseTTL time.Duration
	// ServerWorkers is the server's local pool size (-workers). Default
	// 1: a deliberately weak local pool, so fleet work stays on the
	// fleet and a post-restart race into local fallback stays cheap.
	ServerWorkers int
	// ShardTrials is the server's -shard-trials. Zero leases each
	// scenario as one unit.
	ShardTrials int
	// Timeout bounds the sweep's wall time. Default 5m.
	Timeout time.Duration
	// Log receives narrative lines. Nil discards them.
	Log func(format string, args ...any)
}

// Report is what one chaos run observed.
type Report struct {
	SweepID string
	// CSV is the final results export — the bytes compared against the
	// undisturbed baseline.
	CSV  []byte
	View SweepView // final sweep state

	ServerKills int
	ConnSevers  int
	WorkerStops int
	WorkerKills int
	// DoneBeforeLastKill is the done-cell count observed at the last
	// server kill; every one of those cells must come back from the
	// store, not the engine.
	DoneBeforeLastKill int
	// ResumedSweeps accumulates the restarted incarnations' /healthz
	// recovery.resumed_sweeps.
	ResumedSweeps int64
	// Unfired counts scheduled events that never fired because the
	// sweep finished before their trigger armed; Verify fails on any.
	Unfired int
	// ServerExecutions sums core_executions_total across server
	// incarnations (scraped just before each kill and at the end).
	// WorkerExecutions sums the drain-time "engine executions" report of
	// every worker that exited gracefully; SIGKILLed workers take their
	// in-process count with them, so the total slightly undercounts when
	// the schedule kills workers.
	ServerExecutions int64
	WorkerExecutions int64
}

// SweepView is the subset of the sweep status JSON the harness reads.
type SweepView struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Cells    int    `json:"cells"`
	Executed int    `json:"executed"`
	Cached   int    `json:"cached"`
	Failed   int    `json:"failed"`
	Pending  int    `json:"pending"`
}

type healthzView struct {
	Status   string `json:"status"`
	Recovery *struct {
		Active        bool  `json:"active"`
		ResumedSweeps int64 `json:"resumed_sweeps"`
	} `json:"recovery"`
}

type workerProc struct {
	idx     int
	cmd     *exec.Cmd
	logPath string
	exited  chan struct{}
	alive   bool
}

type runner struct {
	cfg      Config
	log      func(format string, args ...any)
	client   *http.Client
	base     string // server HTTP base URL
	httpAddr string
	wireAddr string
	proxy    *Proxy

	server       *exec.Cmd
	serverExited chan struct{}
	incarnation  int

	workers []*workerProc
	rep     Report
}

// Run executes one chaos run end to end: start the server (and fleet),
// submit the sweep, fire the schedule as progress triggers arm, wait
// for the sweep to finish, export the CSV, and drain everything.
func Run(cfg Config) (Report, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.ServerWorkers <= 0 {
		cfg.ServerWorkers = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 5 * time.Minute
	}
	if cfg.Log == nil {
		cfg.Log = func(string, ...any) {}
	}
	r := &runner{cfg: cfg, log: cfg.Log, client: &http.Client{Timeout: 5 * time.Second}}
	defer r.cleanup()
	if err := r.setup(); err != nil {
		return r.rep, err
	}
	if err := r.drive(); err != nil {
		return r.rep, err
	}
	if err := r.drain(); err != nil {
		return r.rep, err
	}
	return r.rep, nil
}

// reservePort grabs a free loopback port and releases it for the
// process about to bind it. The tiny race window is acceptable for a
// test harness on loopback.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

func (r *runner) setup() error {
	for _, dir := range []string{r.cfg.WorkDir, r.cfg.DataDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	var err error
	if r.httpAddr, err = reservePort(); err != nil {
		return err
	}
	if r.wireAddr, err = reservePort(); err != nil {
		return err
	}
	r.base = "http://" + r.httpAddr
	// The proxy outlives server restarts; workers always dial through
	// it, whichever server incarnation owns the wire port behind it.
	if r.proxy, err = NewProxy("127.0.0.1:0", r.wireAddr); err != nil {
		return err
	}
	if err := r.startServer(); err != nil {
		return err
	}
	if err := r.awaitServer(15*time.Second, false); err != nil {
		return err
	}
	for i := 0; i < r.cfg.Workers; i++ {
		w, err := r.startWorker(i)
		if err != nil {
			return err
		}
		r.workers = append(r.workers, w)
	}
	return nil
}

func (r *runner) startServer() error {
	r.incarnation++
	logPath := filepath.Join(r.cfg.WorkDir, fmt.Sprintf("server-%d.log", r.incarnation))
	logFile, err := os.Create(logPath)
	if err != nil {
		return err
	}
	// A killed incarnation's listener may linger briefly; retry the
	// start until the new process holds the ports.
	deadline := time.Now().Add(10 * time.Second)
	for {
		cmd := exec.Command(r.cfg.ServerBin,
			"-addr", r.httpAddr,
			"-cluster",
			"-wire-addr", r.wireAddr,
			"-wire-advertise", r.proxy.Addr(),
			"-data-dir", r.cfg.DataDir,
			"-workers", strconv.Itoa(r.cfg.ServerWorkers),
			"-lease-ttl", r.cfg.LeaseTTL.String(),
			"-shard-trials", strconv.Itoa(r.cfg.ShardTrials),
		)
		cmd.Stdout = logFile
		cmd.Stderr = logFile
		if err := cmd.Start(); err != nil {
			logFile.Close()
			return err
		}
		exited := make(chan struct{})
		go func() { cmd.Wait(); close(exited) }()
		// Give it a moment: an early exit means the bind raced the dying
		// incarnation — try again.
		select {
		case <-exited:
			if time.Now().After(deadline) {
				return fmt.Errorf("chaos: server incarnation %d would not start (see %s)", r.incarnation, logPath)
			}
			time.Sleep(100 * time.Millisecond)
			continue
		case <-time.After(200 * time.Millisecond):
		}
		r.server = cmd
		r.serverExited = exited
		r.log("server incarnation %d up as pid %d", r.incarnation, cmd.Process.Pid)
		return nil
	}
}

func (r *runner) startWorker(idx int) (*workerProc, error) {
	logPath := filepath.Join(r.cfg.WorkDir, fmt.Sprintf("worker-%d.log", idx+1))
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(r.cfg.WorkerBin,
		"-server", r.base,
		"-name", fmt.Sprintf("chaos-%d", idx+1),
	)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, err
	}
	w := &workerProc{idx: idx, cmd: cmd, logPath: logPath, exited: make(chan struct{}), alive: true}
	go func() { cmd.Wait(); close(w.exited) }()
	return w, nil
}

// awaitServer polls /healthz until the server answers — and, when
// waitRecovery is set, until startup recovery has finished rebuilding
// state — accumulating the incarnation's resumed-sweep count.
func (r *runner) awaitServer(timeout time.Duration, waitRecovery bool) error {
	deadline := time.Now().Add(timeout)
	for {
		var hv healthzView
		err := r.getJSON("/healthz", &hv)
		if err == nil && (!waitRecovery || hv.Recovery == nil || !hv.Recovery.Active) {
			if waitRecovery && hv.Recovery != nil {
				r.rep.ResumedSweeps += hv.Recovery.ResumedSweeps
			}
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: server never became healthy (last err %v)", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (r *runner) getJSON(path string, out any) error {
	resp, err := r.client.Get(r.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// drive submits the sweep and runs the poll/fire loop until the sweep
// is terminal.
func (r *runner) drive() error {
	var sub struct {
		ID string `json:"id"`
	}
	resp, err := r.client.Post(r.base+"/v1/sweeps", "application/json", strings.NewReader(r.cfg.Grid))
	if err != nil {
		return fmt.Errorf("chaos: submit sweep: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("chaos: submit sweep: %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &sub); err != nil || sub.ID == "" {
		return fmt.Errorf("chaos: sweep submission returned no id: %s", body)
	}
	r.rep.SweepID = sub.ID
	r.log("sweep %s submitted (%s)", sub.ID, r.cfg.Schedule)

	events := append([]Event(nil), r.cfg.Schedule.Events...)
	deadline := time.Now().Add(r.cfg.Timeout)
	lastOK := time.Now()
	for {
		var view SweepView
		if err := r.getJSON("/v1/sweeps/"+sub.ID, &view); err != nil {
			// Transient unreachability (our own restarts ride through
			// here) is tolerated up to a grace window. Note the poll uses
			// the SAME sweep ID across incarnations: recovery keeping IDs
			// stable is part of the contract.
			if time.Since(lastOK) > 20*time.Second {
				return fmt.Errorf("chaos: sweep %s unreachable for 20s: %w", sub.ID, err)
			}
			time.Sleep(100 * time.Millisecond)
			continue
		}
		lastOK = time.Now()
		done := view.Executed + view.Cached + view.Failed
		// Events fire only against a running sweep: a fault injected
		// after the sweep closed would test nothing (and a server kill
		// would restart into a server with no sweep to resume). At most
		// one fires per poll, so events whose triggers one poll crosses
		// together still land at distinct moments; one that finds
		// nothing to hit stays armed for the next poll.
		if view.Status == "running" && len(events) > 0 && done >= events[0].After {
			ev := events[0]
			if ev.Delay > 0 {
				time.Sleep(ev.Delay)
			}
			fired, err := r.fire(ev, done)
			if err != nil {
				return err
			}
			if fired {
				events = events[1:]
			}
		}
		if view.Status != "running" {
			r.rep.View = view
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: sweep %s did not finish in %s: %+v", sub.ID, r.cfg.Timeout, view)
		}
		// A worker reconnecting through the proxy ends the wait early:
		// a sever still armed can land before the new session finishes
		// the sweep.
		select {
		case <-time.After(10 * time.Millisecond):
		case <-r.proxy.relayed:
		}
	}
	if r.rep.Unfired = len(events); r.rep.Unfired > 0 {
		r.log("%d scheduled event(s) never fired (sweep finished first)", r.rep.Unfired)
	}

	resp, err = r.client.Get(r.base + "/v1/sweeps/" + sub.ID + "/results?format=csv")
	if err != nil {
		return fmt.Errorf("chaos: fetch CSV: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("chaos: fetch CSV: %d", resp.StatusCode)
	}
	if r.rep.CSV, err = io.ReadAll(resp.Body); err != nil {
		return err
	}
	return nil
}

// fire injects one event and reports whether it fired: a sever that
// finds no live conn hits nothing and does not count.
func (r *runner) fire(ev Event, done int) (bool, error) {
	switch ev.Kind {
	case KillServer:
		r.rep.DoneBeforeLastKill = done
		r.scrapeServerExecutions()
		r.log("KILL server incarnation %d at %d done cells", r.incarnation, done)
		r.server.Process.Kill() // SIGKILL: no drain, no flush, no goodbye
		<-r.serverExited
		if err := r.startServer(); err != nil {
			return false, err
		}
		if err := r.awaitServer(30*time.Second, true); err != nil {
			return false, err
		}
		r.rep.ServerKills++
	case SeverConns:
		n := r.proxy.Sever()
		if n == 0 {
			return false, nil
		}
		r.log("SEVER %d wire conn(s) at %d done cells", n, done)
		r.rep.ConnSevers++
	case StopWorker:
		if w := r.pickWorker(ev.Worker); w != nil {
			r.log("STOP worker %d at %d done cells", w.idx+1, done)
			w.cmd.Process.Signal(syscall.SIGTERM)
			<-w.exited
			w.alive = false
			r.rep.WorkerExecutions += workerExecutions(w.logPath)
		}
		r.rep.WorkerStops++
	case KillWorker:
		if w := r.pickWorker(ev.Worker); w != nil {
			r.log("KILL worker %d at %d done cells", w.idx+1, done)
			w.cmd.Process.Kill()
			<-w.exited
			w.alive = false // its execution count dies with it
		}
		r.rep.WorkerKills++
	default:
		return false, fmt.Errorf("chaos: unknown event kind %q", ev.Kind)
	}
	return true, nil
}

// pickWorker returns the target worker if alive, else the next alive
// one (a schedule can name a worker an earlier event already removed).
func (r *runner) pickWorker(idx int) *workerProc {
	for off := 0; off < len(r.workers); off++ {
		w := r.workers[(idx+off)%len(r.workers)]
		if w.alive {
			return w
		}
	}
	return nil
}

// scrapeServerExecutions adds the live incarnation's engine-execution
// count to the running total. Called just before each kill and at the
// final drain; executions landing inside the scrape-to-kill window are
// lost with the process, so the server total can undercount by a hair.
func (r *runner) scrapeServerExecutions() {
	resp, err := r.client.Get(r.base + "/metrics")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return
	}
	r.rep.ServerExecutions += scrapeCounter(string(body), "core_executions_total")
}

// scrapeCounter finds an unlabeled counter in a text exposition.
func scrapeCounter(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
		if err == nil {
			return v
		}
	}
	return 0
}

var workerExecRe = regexp.MustCompile(`engine executions: (\d+)`)

// workerExecutions parses a drained worker's log for its execution
// report.
func workerExecutions(logPath string) int64 {
	b, err := os.ReadFile(logPath)
	if err != nil {
		return 0
	}
	m := workerExecRe.FindSubmatch(b)
	if m == nil {
		return 0
	}
	v, _ := strconv.ParseInt(string(m[1]), 10, 64)
	return v
}

// drain gracefully stops the fleet and the server, collecting the
// final execution counts.
func (r *runner) drain() error {
	r.scrapeServerExecutions()
	for _, w := range r.workers {
		if !w.alive {
			continue
		}
		w.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-w.exited:
		case <-time.After(30 * time.Second):
			return fmt.Errorf("chaos: worker %d would not drain", w.idx+1)
		}
		w.alive = false
		r.rep.WorkerExecutions += workerExecutions(w.logPath)
	}
	r.server.Process.Signal(syscall.SIGTERM)
	select {
	case <-r.serverExited:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("chaos: server would not drain")
	}
	r.server = nil
	r.log("run complete: %d cells (%d executed, %d cached), executions server=%d fleet=%d, resumed=%d",
		r.rep.View.Cells, r.rep.View.Executed, r.rep.View.Cached,
		r.rep.ServerExecutions, r.rep.WorkerExecutions, r.rep.ResumedSweeps)
	return nil
}

// cleanup SIGKILLs anything still running (error paths) and closes the
// proxy.
func (r *runner) cleanup() {
	for _, w := range r.workers {
		if w.alive {
			w.cmd.Process.Kill()
			<-w.exited
			w.alive = false
		}
	}
	if r.server != nil {
		r.server.Process.Kill()
		<-r.serverExited
		r.server = nil
	}
	if r.proxy != nil {
		r.proxy.Close()
	}
}
