package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The host this benchmark runs on is shared with other machines' work,
// and its speed drifts by a factor of two within minutes: the share of
// CPU time it withholds (steal) swings between 0 and 40%, and the CPU
// time a request costs rises with it. So every time the benchmark
// reports is scaled to a fixed host speed.
//
// The yardstick is a reference server: this binary, run as its own
// process, speaking the same HTTP protocol as vmat-server for the
// workload's requests (jobs submitted, polled on the same schedule and
// fetched; or sweeps submitted, polled and fetched as CSV), so the
// benchmark's clients drive it with the same code. Each of its jobs does
// a fixed amount of standard-library work and disk syncs, shaped like
// the workload's, and no change to the program can speed it up or slow
// it down; the host slows it down as it slows the program. Around the
// set-ups and the timed phase's windows, with the processes under test
// idle, the clients drive the reference server for refWindowLength.
// Each time metric is then multiplied by the ratio of the reference's
// nominal value of the matching statistic to its value pooled over the
// run: throughput by the reference's request rate, latency by its
// latency (see refStats.scaleP90), CPU per request by the reference
// server's. The raw values are kept in the run's record.

// refServerArg runs the binary as the reference server.
const refServerArg = "ref-server"

// refWindowLength is how long each reference timing starts requests.
const refWindowLength = time.Second

// refShape is a workload's reference: the work of one reference job,
// and the nominal speed scaled times are reported at, which is the
// reference's typical speed on a quiet 2-vCPU VM (Intel Xeon, 2.0 GHz),
// so scaled times read close to raw ones there.
type refShape struct {
	// Rounds of refWork per job, and Syncs disk syncs of a small record.
	Rounds, Syncs int
	// Async jobs run on one of two executors and are polled; the others
	// are done when submitted, as store hits are. Serial jobs share one
	// executor, as a fleet's single worker runs one unit at a time.
	Async, Serial bool
	// Sweep requests use the sweep protocol.
	Sweep bool
	// Nominal statistics: requests per second of the two clients, median
	// and 90th-percentile latency in ms, and reference-server CPU seconds
	// per request.
	Rate, P50, P90, CPU float64
}

var refShapes = map[string]refShape{
	ColdMix:    {Rounds: 1000, Syncs: 1, Async: true, Rate: 31, P50: 64, P90: 71, CPU: 0.057},
	WarmHits:   {Rounds: 1, Rate: 3900, P50: 0.47, P90: 0.72, CPU: 0.000225},
	FleetSweep: {Rounds: 600, Syncs: 12, Async: true, Serial: true, Sweep: true, Rate: 26, P50: 75, P90: 92, CPU: 0.0365},
}

// refRequest is the body of a reference job or sweep.
type refRequest struct {
	Seed   uint64 `json:"seed"`
	Rounds int    `json:"rounds"`
	Syncs  int    `json:"syncs"`
	Async  bool   `json:"async"`
	Serial bool   `json:"serial"`
}

// refRow is a reference job's result row.
type refRow struct {
	Trial int    `json:"trial"`
	X     uint64 `json:"x"`
	Slots int    `json:"slots"`
}

// refWork is one round of reference work: allocate and fill a map of
// slices and a slice, sort it, and hash it.
func refWork(x uint64) uint64 {
	keys := make([]uint64, 256)
	m := make(map[uint64][]int, 16)
	for i := range keys {
		x = x*6364136223846793005 + 1442695040888963407
		keys[i] = x
		m[x>>60] = append(m[x>>60], i)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var b [8]byte
	h := sha256.New()
	for _, k := range keys {
		binary.LittleEndian.PutUint64(b[:], k)
		h.Write(b[:])
	}
	return x ^ keys[len(keys)/2] ^ binary.LittleEndian.Uint64(h.Sum(nil)) ^ uint64(len(m))
}

// refRounds runs n rounds of refWork from x.
func refRounds(x uint64, n int) uint64 {
	for i := 0; i < n; i++ {
		x = refWork(x)
	}
	return x
}

// refOutput is what a reference job yields: its rows as JSON, and for
// a sweep a CSV of two cells.
func refOutput(req refRequest) (rows json.RawMessage, csv []byte) {
	return refEncode(refRounds(req.Seed, req.Rounds))
}

func refEncode(x uint64) (rows json.RawMessage, csv []byte) {
	rs := []refRow{{Trial: 0, X: x, Slots: int(x % 1000)}, {Trial: 1, X: x >> 1, Slots: int(x % 997)}}
	rows, err := json.Marshal(rs)
	if err != nil { // a slice of ints always encodes
		panic(err)
	}
	csv = fmt.Appendf(nil, "cell,trial,x,slots\n0,0,%d,%d\n1,1,%d,%d\n", rs[0].X, rs[0].Slots, rs[1].X, rs[1].Slots)
	return rows, csv
}

// refServer is the reference server's state.
type refServer struct {
	mu     sync.Mutex
	next   int
	jobs   map[string]*refJob
	slots  chan struct{} // the two executors
	serial chan struct{} // the executor serial jobs share
	syncs  *os.File
	synMu  sync.Mutex
}

type refJob struct {
	done bool
	rows json.RawMessage
	csv  []byte
}

// refServe runs the reference server on --addr, syncing records to a
// file in --dir, until it is terminated.
func refServe(args []string) error {
	fs := flag.NewFlagSet(refServerArg, flag.ContinueOnError)
	addr := fs.String("addr", "", "address to listen on")
	dir := fs.String("dir", "", "directory for the synced file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(*dir, "ref-syncs"))
	if err != nil {
		return err
	}
	defer f.Close()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	return http.Serve(ln, newRefServer(f).handler())
}

// newRefServer returns a reference server that syncs records to f.
func newRefServer(f *os.File) *refServer {
	return &refServer{jobs: map[string]*refJob{}, slots: make(chan struct{}, 2), serial: make(chan struct{}, 1), syncs: f}
}

func (s *refServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) { w.Write([]byte("{}")) })
	mux.HandleFunc("POST /v1/jobs", s.submit)
	mux.HandleFunc("POST /v1/sweeps", s.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.getJob)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.getSweep)
	mux.HandleFunc("GET /v1/sweeps/{id}/results", s.results)
	return mux
}

// run executes a job: its rounds in as many steps as it has syncs,
// each step followed by a sync, as the program's work alternates with
// its store and log writes.
func (s *refServer) run(req refRequest, j *refJob) {
	x, done, failed := req.Seed, 0, false
	rec := make([]byte, 256)
	for i := 0; i < req.Syncs; i++ {
		n := (req.Rounds*(i+1))/req.Syncs - done
		x, done = refRounds(x, n), done+n
		s.synMu.Lock()
		_, err := s.syncs.Write(rec)
		if err == nil {
			err = s.syncs.Sync()
		}
		s.synMu.Unlock()
		failed = failed || err != nil
	}
	rows, csv := refEncode(refRounds(x, req.Rounds-done))
	if failed {
		rows, csv = nil, nil // the client sees a mismatch
	}
	s.mu.Lock()
	j.done, j.rows, j.csv = true, rows, csv
	s.mu.Unlock()
}

func (s *refServer) submit(w http.ResponseWriter, r *http.Request) {
	var req refRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	j := &refJob{}
	s.mu.Lock()
	s.next++
	id := strconv.Itoa(s.next)
	s.jobs[id] = j
	s.mu.Unlock()
	status := "queued"
	if req.Async {
		slots := s.slots
		if req.Serial {
			slots = s.serial
		}
		go func() {
			slots <- struct{}{}
			s.run(req, j)
			<-slots
		}()
	} else {
		s.run(req, j)
		status = "done"
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "status": status, "cells": 2})
}

// job returns a copy of the job; a done job is forgotten once its
// output has been fetched.
func (s *refServer) job(id string, fetched bool) (refJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return refJob{}, false
	}
	if j.done && fetched {
		delete(s.jobs, id)
	}
	return *j, true
}

func (s *refServer) getJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"), true)
	if !ok {
		http.NotFound(w, r)
		return
	}
	if !j.done {
		writeJSON(w, http.StatusOK, map[string]any{"status": "running"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "done", "source": "reference", "rows": j.rows})
}

func (s *refServer) getSweep(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"), false)
	if !ok {
		http.NotFound(w, r)
		return
	}
	status := "running"
	if j.done {
		status = "done"
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": status, "failed": 0})
}

func (s *refServer) results(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"), true)
	if !ok || !j.done {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	w.Write(j.csv)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// setupRefShape is the reference around set-ups, for every workload:
// a set-up starts processes and executes small scenario jobs.
var setupRefShape = refShape{Rounds: 300, Syncs: 1, Async: true, Rate: 90}

// refSet is one shape's reference requests, with the output each must
// yield.
type refSet struct {
	shape refShape
	reqs  []Request
	want  []reference
}

// refRequests is the number of distinct reference requests; the
// clients cycle through them.
const refRequests = 16

func newRefSet(shape refShape) (*refSet, error) {
	rs := &refSet{shape: shape}
	for i := 0; i < refRequests; i++ {
		req := refRequest{Seed: uint64(i + 1), Rounds: shape.Rounds, Syncs: shape.Syncs, Async: shape.Async, Serial: shape.Serial}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		rows, csv := refOutput(req)
		want := reference{JSON: rows}
		if shape.Sweep {
			want = reference{CSV: csv}
		}
		rs.reqs = append(rs.reqs, Request{Index: i, Body: body})
		rs.want = append(rs.want, want)
	}
	return rs, nil
}

// hostRef is a run's reference server and the reference requests for
// its set-ups and its timed phase.
type hostRef struct {
	proc         *proc
	base         string
	setup, timed *refSet
}

func startHostRef(ctx context.Context, hc *http.Client, dir, workload string) (*hostRef, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	h := &hostRef{base: "http://" + addr}
	if h.setup, err = newRefSet(setupRefShape); err != nil {
		return nil, err
	}
	if h.timed, err = newRefSet(refShapes[workload]); err != nil {
		return nil, err
	}
	if h.proc, err = startProc("vmatbench-ref", self, filepath.Join(dir, "ref.log"), refServerArg, "-addr", addr, "-dir", dir); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v struct{}
		if err := getJSON(ctx, hc, h.base+"/healthz", &v); err == nil {
			return h, nil
		}
		if !h.proc.alive() || time.Now().After(deadline) {
			h.stop()
			return nil, errors.New("reference server did not start")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (h *hostRef) stop() { h.proc.stop(10 * time.Second) }

// refTime is one reference timing.
type refTime struct {
	Elapsed time.Duration `json:"elapsed"`
	CPU     float64       `json:"cpu_s"` // reference server CPU seconds
	// LatencyMS holds each request's latency.
	LatencyMS []float64 `json:"latency_ms"`
}

// measure drives the reference server with set's requests from the two
// closed-loop clients for refWindowLength, and on until at least min
// requests have started, and checks every output.
func (h *hostRef) measure(ctx context.Context, hc *http.Client, set *refSet, min int) (refTime, error) {
	cpu0, err := h.proc.cpuSeconds()
	if err != nil {
		return refTime{}, err
	}
	var i atomic.Int64
	deadline := time.Now().Add(refWindowLength)
	next := func() (int, Request, bool) {
		k := int(i.Add(1)) - 1
		if k >= min && time.Now().After(deadline) {
			return 0, Request{}, false
		}
		return k, set.reqs[k%len(set.reqs)], true
	}
	do := (*client).runJob
	if set.shape.Sweep {
		do = (*client).runSweep
	}
	c := &client{hc: hc, base: h.base}
	t0 := time.Now()
	outs := closedLoop(ctx, []*client{c, c}, next, do)
	rt := refTime{Elapsed: time.Since(t0)}
	for k, o := range outs {
		if f := failure(o); f != "" || !matches(o, set.want[k%len(set.want)]) {
			return refTime{}, fmt.Errorf("reference server request failed: %q", f)
		}
		rt.LatencyMS = append(rt.LatencyMS, ms(o.Latency))
	}
	cpu1, err := h.proc.cpuSeconds()
	if err != nil {
		return refTime{}, err
	}
	rt.CPU = cpu1 - cpu0
	return rt, nil
}

// refStats are a set of reference timings' statistics, the same ones
// the end-to-end metrics report. P90 is 0 below 100 requests.
type refStats struct {
	Requests int     `json:"requests"`
	Rate     float64 `json:"rate"`
	P50      float64 `json:"p50_ms"`
	P90      float64 `json:"p90_ms"`
	CPU      float64 `json:"cpu_s_per_op"`
}

// preciseP90 is the fewest reference requests whose p90 scales the
// workload's: a hundred of them lie beyond it. With fewer, the
// reference's p90 is noisier than the drift it would correct, and the
// workload's p90 scales by the reference's median instead.
const preciseP90 = 1000

// scaleP90 is the factor the workload's p90 is multiplied by.
func (s refStats) scaleP90(nominal refShape) float64 {
	if s.Requests >= preciseP90 {
		return nominal.P90 / s.P90
	}
	return nominal.P50 / s.P50
}

func poolRefs(ts []refTime) (refStats, error) {
	var lat []float64
	var busy time.Duration
	cpu := 0.0
	for _, t := range ts {
		lat = append(lat, t.LatencyMS...)
		busy += t.Elapsed
		cpu += t.CPU
	}
	if len(lat) == 0 {
		return refStats{}, errors.New("no reference requests")
	}
	s := refStats{Requests: len(lat), Rate: float64(len(lat)) / busy.Seconds(), CPU: cpu / float64(len(lat))}
	s.P50, _ = percentile(lat, 50)
	s.P90, _ = percentile(lat, 90)
	return s, nil
}

// hostTicks are the machine's CPU time counters from /proc/stat, in
// clock ticks, summed over its CPUs.
type hostTicks struct {
	Busy  int64 `json:"busy"` // user, nice, system, irq and softirq
	Idle  int64 `json:"idle"` // idle and iowait
	Steal int64 `json:"steal"`
}

func (a hostTicks) sub(b hostTicks) hostTicks {
	return hostTicks{Busy: a.Busy - b.Busy, Idle: a.Idle - b.Idle, Steal: a.Steal - b.Steal}
}

func readHostTicks() (hostTicks, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostTicks{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostTicks{}, errors.New("unexpected /proc/stat")
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return hostTicks{}, err
		}
	}
	return hostTicks{Busy: v[0] + v[1] + v[2] + v[5] + v[6], Idle: v[3] + v[4], Steal: v[7]}, nil
}
