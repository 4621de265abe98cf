package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat
// (fixed at 100 on Linux).
const clockTicks = 100

// proc is one launched process under test.
type proc struct {
	name   string
	cmd    *exec.Cmd
	exited chan struct{}
	log    *os.File
}

func startProc(name, bin, logPath string, args ...string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{}), log: logf}
	go func() {
		_ = cmd.Wait() // the exit status is irrelevant once we stop it
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the exit (SIGKILL after the grace
// period) and closes the log.
func (p *proc) stop(grace time.Duration) {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// cpuSeconds reads user+sys CPU of a live process from /proc.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("bad utime/stime in /proc stat")
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB reads VmHWM of a live process.
func (p *proc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fs := strings.Fields(rest)
			if len(fs) == 2 && fs[1] == "kB" {
				kb, err := strconv.ParseFloat(fs[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// freePort reserves a loopback port for a process about to bind it.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// fleet is the set of processes one set-up launched.
type fleet struct {
	base   string // server base URL
	server *proc
	worker *proc
}

func (f *fleet) procs() []*proc {
	if f.worker != nil {
		return []*proc{f.server, f.worker}
	}
	return []*proc{f.server}
}

func (f *fleet) stop() {
	// The worker first: it deregisters, and the coordinator's drain then
	// has no leases to wait for.
	f.worker.stop(10 * time.Second)
	f.server.stop(10 * time.Second)
}

func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, p := range f.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, fmt.Errorf("%s cpu: %w", p.name, err)
		}
		total += s
	}
	return total, nil
}

func (f *fleet) peakRSSMiB() (float64, error) {
	total := 0.0
	for _, p := range f.procs() {
		m, err := p.peakRSSMiB()
		if err != nil {
			return 0, fmt.Errorf("%s rss: %w", p.name, err)
		}
		total += m
	}
	return total, nil
}

// launch starts the workload's processes on a fresh data dir and waits
// until they accept work: /healthz answers, and on fleet-sweep the
// worker holds a wire conn.
func launch(ctx context.Context, hc *http.Client, binDir, dir, workload, keyfile string) (*fleet, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-addr", addr,
		"-data-dir", filepath.Join(dir, "data"),
		"-tenants", keyfile,
		"-workers", "2",
		// A warm-hits job is born done and retired at once; with the
		// default 128 a client stalled between its POST and its GET
		// could find the job evicted by the other client's ops.
		"-retain", "4096",
	}
	if workload == FleetSweep {
		args = append(args, "-cluster", "-shard-trials", "1", "-wire-addr", "127.0.0.1:0")
	}
	f := &fleet{base: "http://" + addr}
	if f.server, err = startProc("vmat-server", filepath.Join(binDir, "vmat-server"), filepath.Join(dir, "server.log"), args...); err != nil {
		return nil, err
	}
	if err := awaitHealth(ctx, hc, f, func(h healthz) bool { return true }); err != nil {
		f.stop()
		return nil, err
	}
	if workload != FleetSweep {
		return f, nil
	}
	if f.worker, err = startProc("vmat-worker", filepath.Join(binDir, "vmat-worker"), filepath.Join(dir, "worker.log"),
		"-server", f.base, "-name", "bench-1"); err != nil {
		f.stop()
		return nil, err
	}
	if err := awaitHealth(ctx, hc, f, func(h healthz) bool {
		return h.Workers != nil && h.Workers.WireConnected >= 1
	}); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

type healthz struct {
	Workers *struct {
		WireConnected int `json:"wire_connected"`
	} `json:"workers"`
}

// awaitHealth polls /healthz every 2 ms until ready reports true.
func awaitHealth(ctx context.Context, hc *http.Client, f *fleet, ready func(healthz) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	var lastErr error
	for time.Now().Before(deadline) {
		for _, p := range f.procs() {
			if p != nil && !p.alive() {
				return fmt.Errorf("%s exited during start-up (see %s)", p.name, p.log.Name())
			}
		}
		var h healthz
		if lastErr = getJSON(ctx, hc, f.base+"/healthz", &h); lastErr == nil && ready(h) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("processes not ready after 30s (last error: %v)", lastErr)
}

func getJSON(ctx context.Context, hc *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d", url, resp.StatusCode)
	}
	return json.Unmarshal(body, out)
}

// scrapeMetrics reads the server's counters and gauges from /metrics,
// summing labelled series into their family name.
func scrapeMetrics(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out, sc.Err()
}
