// Command vmatbench is the repository's benchmark: it launches the real
// vmat-server (and, for fleet-sweep, one vmat-worker), drives one named
// workload with two closed-loop clients, checks every output against
// the in-process trial runner, and prints the end-to-end metrics. With
// --trace 1 it also replays the same requests in-process with a span
// around each layer's public functions and prints the per-layer metrics
// and an attribution table.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash vmatbench/run.sh --workload cold-mix --seed 1 --seconds 20 --trace 0
//	bash vmatbench/run.sh compare base.jsonl change.jsonl
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == replayWorkerArg {
		if err := replayWorker(args[1:], os.Stdin, stdout); err != nil {
			fmt.Fprintln(stderr, "vmatbench replay worker:", err)
			return 1
		}
		return 0
	}
	if len(args) > 0 && args[0] == refServerArg {
		if err := refServe(args[1:]); err != nil {
			fmt.Fprintln(stderr, "vmatbench reference server:", err)
			return 1
		}
		return 0
	}
	if len(args) > 0 && args[0] == "compare" {
		if len(args) != 3 {
			fmt.Fprintln(stderr, "usage: vmatbench compare BASE.jsonl CHANGE.jsonl")
			return 2
		}
		if err := compare(stdout, args[1], args[2]); err != nil {
			fmt.Fprintln(stderr, "vmatbench:", err)
			return 1
		}
		return 0
	}
	fs := flag.NewFlagSet("vmatbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.Workload, "workload", "", "workload to run: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&cfg.Seed, "seed", defaultSeed, "workload seed; the same seed gives the same requests")
	seconds := fs.Int("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.BinDir, "bin", "", "directory holding the built vmat-server and vmat-worker")
	fs.StringVar(&cfg.Results, "results", filepath.Join(".bench_build", "results.jsonl"), "file each run's full record is appended to")
	writeDigest := fs.Bool("write-digest", false, "compute the default-seed digests in-process, write them to "+digestPath+" and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.Duration = time.Duration(*seconds) * time.Second
	cfg.Trace = *trace == 1
	if *writeDigest {
		if err := writeDigests(digestPath); err != nil {
			fmt.Fprintln(stderr, "vmatbench:", err)
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || cfg.BinDir == "" {
		fmt.Fprintln(stderr, "vmatbench: need --bin, --seconds >= 1 and --trace 0|1")
		return 2
	}
	res, err := runWorkload(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "vmatbench:", err)
		return 1
	}
	if err := appendRecord(cfg.Results, res); err != nil {
		fmt.Fprintln(stderr, "vmatbench: record result:", err)
		return 1
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "vmatbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type config struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
	BinDir   string
	Results  string
}

// Paths relative to the repository root, where the benchmark runs.
var (
	workDir    = filepath.Join(".bench_build", "run")
	digestPath = filepath.Join("vmatbench", digestFile)
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// windowLength is the target length of one window of the timed phase.
// A reference timing follows every window, so the reference samples the
// host throughout the run.
const windowLength = 4 * time.Second

// endToEndUnits and perLayerUnits name the metrics a run prints with
// --trace 0 and with --trace 1, and their units. BENCHMARK.json lists
// the same.
var (
	endToEndUnits = map[string]string{
		"setup_s": "s", "throughput_per_s": "1/s", "latency_p50_ms": "ms",
		"latency_p90_ms": "ms", "cpu_ms_per_op": "ms", "peak_rss_mb": "MiB",
	}
	perLayerUnits = map[string]string{
		"service.spec_decode_us": "us", "service.submit_us": "us", "service.view_encode_us": "us",
		"service.queue_wait_ms": "ms", "service.exec_ms": "ms", "service.cached_share": "ratio",
		"service.rejected": "count",
		"tenant.auth_us":   "us", "tenant.admit_us": "us", "tenant.queue_us": "us",
		"store.open_ms": "ms", "store.key_us": "us", "store.get_us": "us",
		"store.cache_hit_share": "ratio", "store.put_us": "us", "store.wal_append_us": "us",
		"store.puts_per_op": "1/op", "store.wal_appends_per_op": "1/op",
		"experiments.scenario_ms": "ms", "experiments.trial_setup_ms": "ms",
		"core.announce_ms": "ms", "core.tree_ms": "ms", "core.aggregation_ms": "ms",
		"core.confirmation_ms": "ms", "core.pinpoint_ms": "ms", "core.us_per_slot": "us",
		"core.slots": "count", "core.predicate_tests": "count", "core.revoked_keys": "count",
		"simnet.total_bytes": "bytes",
		"sweep.decode_us":    "us", "sweep.expand_us": "us", "sweep.csv_ms": "ms",
		"shard.plan_us": "us", "shard.merge_us": "us", "wire.frame_us": "us", "cluster.codec_us": "us",
		"cluster.leases_per_cell": "1/cell", "cluster.shards_per_cell": "1/cell",
		"wire.frames_per_cell": "1/cell", "cluster.reassigned": "count",
		"trace.overhead_pct":    "%",
		"attribution.layers_ms": "ms", "attribution.remainder_ms": "ms", "attribution.layers_share": "ratio",
	}
)

// sameMetrics reports a metric set that differs from its declaration.
func sameMetrics(m map[string]metric, want map[string]string) error {
	for name, unit := range want {
		if got, ok := m[name]; !ok || got.Unit != unit {
			return fmt.Errorf("metric %s (%s) missing or in the wrong unit", name, unit)
		}
	}
	if len(m) != len(want) {
		return fmt.Errorf("%d metrics produced, %d declared", len(m), len(want))
	}
	return nil
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's full record: the printed summary plus provenance
// and the raw values behind it.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Env       env                `json:"env"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  map[string]int     `json:"failures,omitempty"`
	Metrics   map[string]metric  `json:"metrics"`
	Raw       map[string]float64 `json:"raw"`
	// SetupS holds each set-up's time scaled to the nominal host speed,
	// SetupRawS the same times as measured.
	SetupS    []float64 `json:"setup_samples_s"`
	SetupRawS []float64 `json:"setup_raw_samples_s"`
	// SetupRef and TimedRef are the reference's statistics around the
	// set-ups and over the timed phase; Windows are the timed phase's
	// windows.
	SetupRef refStats `json:"setup_ref"`
	TimedRef refStats `json:"timed_ref"`
	Windows  []window `json:"windows"`
	Notes    []string `json:"notes,omitempty"`
}

func (r *result) summary() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

func (r *result) fail(reason string, n int) {
	if n == 0 {
		return
	}
	if r.Failures == nil {
		r.Failures = map[string]int{}
	}
	r.Failures[reason] += n
	r.Failed += n
}

// env is the provenance every result records.
type env struct {
	GoVersion  string         `json:"go_version"`
	GOOS       string         `json:"goos"`
	GOARCH     string         `json:"goarch"`
	CPUModel   string         `json:"cpu_model"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS map[string]int `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Loop       string         `json:"loop"`
	Clients    int            `json:"clients"`
	Poll       string         `json:"poll_schedule"`
	Started    string         `json:"started"`
}

func collectEnv(workload string) env {
	procs := runtime.NumCPU()
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		procs = v
	}
	e := env{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUModel:  cpuModel(),
		NProc:     runtime.NumCPU(),
		// The processes under test inherit this environment and CPU set,
		// so their GOMAXPROCS is the same as this process's default.
		GOMAXPROCS: map[string]int{"vmatbench": runtime.GOMAXPROCS(0), "vmat-server": procs},
		Commit:     commit(),
		Loop:       "closed",
		Clients:    2,
		Poll:       pollScheduleDoc,
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if workload == FleetSweep {
		e.GOMAXPROCS["vmat-worker"] = procs
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the working directory is the
// top of a git work tree; git is kept from searching parent
// directories for some other repository.
func commit() string {
	cwd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

func appendRecord(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tenantKeys are the bearer keys of the two tenants, one per client.
var tenantKeys = [2]string{"vmatbench-key-a", "vmatbench-key-b"}

func writeKeyfile(path string) error {
	kf := map[string]any{"tenants": []map[string]any{
		{"id": "bench-a", "key": tenantKeys[0]},
		{"id": "bench-b", "key": tenantKeys[1]},
	}}
	raw, err := json.Marshal(kf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o600)
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
}

// runWorkload is one run: set up `setups` times, time the workload on
// the last set-up, check every output, and with tracing replay the
// requests in-process.
func runWorkload(ctx context.Context, cfg config, stdout io.Writer) (*result, error) {
	g, err := NewGenerator(cfg.Workload, cfg.Seed)
	if err != nil {
		return nil, err
	}
	digests, err := loadDigests(digestPath)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace, Env: collectEnv(cfg.Workload),
		Metrics: map[string]metric{}, Raw: map[string]float64{}}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, fmt.Sprintf("%s-%d-", cfg.Workload, cfg.Seed))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	keyfile := filepath.Join(dir, "tenants.json")
	if err := writeKeyfile(keyfile); err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	ref, err := startHostRef(ctx, hc, dir, cfg.Workload)
	if err != nil {
		return nil, err
	}
	defer ref.stop()

	// The warm-up's references, outside every timed window.
	warm := g.WarmUp()
	warmRefs, err := references(warm)
	if err != nil {
		return nil, err
	}
	if d := statsDigest(warmRefs[:canaryJobs]); d != digests["canary"] {
		res.fail("canary digest mismatch", canaryJobs)
		res.Notes = append(res.Notes, "canary digest "+d+" != recorded "+digests["canary"])
	}

	var fl *fleet
	defer func() {
		if fl != nil {
			fl.stop()
		}
	}()
	// Reference timings before the first set-up and after each.
	r0, err := ref.measure(ctx, hc, ref.setup, 0)
	if err != nil {
		return nil, err
	}
	setupRefs := []refTime{r0}
	for k := 0; k < setups; k++ {
		if fl != nil {
			fl.stop()
			fl = nil
		}
		sdir := filepath.Join(dir, fmt.Sprintf("setup-%d", k))
		if err := os.MkdirAll(sdir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		fl, err = launch(ctx, hc, cfg.BinDir, sdir, cfg.Workload, keyfile)
		if err != nil {
			return nil, err
		}
		outs := closedLoop(ctx, clientsFor(hc, fl), listSource(warm), (*client).runJob)
		res.SetupRawS = append(res.SetupRawS, time.Since(t0).Seconds())
		r1, err := ref.measure(ctx, hc, ref.setup, 0)
		if err != nil {
			return nil, err
		}
		setupRefs = append(setupRefs, r1)
		res.check("warm-up ", outs, warmRefs, false)
	}
	if res.SetupRef, err = poolRefs(setupRefs); err != nil {
		return nil, err
	}
	for _, s := range res.SetupRawS {
		res.SetupS = append(res.SetupS, s*res.SetupRef.Rate/ref.setup.shape.Rate)
	}

	tm, err := timedPhase(ctx, hc, fl, g, cfg.Duration, ref)
	if err != nil {
		return nil, err
	}
	var pr *pairedRun
	if cfg.Trace {
		if pr, err = pairedPhase(ctx, hc, fl, cfg, g, dir, keyfile); err != nil {
			return nil, err
		}
	}
	fl.stop()
	fl = nil

	refs, err := timedReferences(tm.reqs, warmRefs)
	if err != nil {
		return nil, err
	}
	res.check("", tm.outs, refs, cfg.Workload == WarmHits)
	var prRefs []reference
	if pr != nil {
		if prRefs, err = timedReferences(pr.reqs, warmRefs); err != nil {
			return nil, err
		}
		res.check("paired ", pr.outs, prRefs, cfg.Workload == WarmHits)
	}
	if cfg.Seed == defaultSeed {
		if d := statsDigest(refs[:digestRequests]); d != digests[cfg.Workload] {
			res.fail("workload digest mismatch", digestRequests)
			res.Notes = append(res.Notes, cfg.Workload+" digest "+d+" != recorded "+digests[cfg.Workload])
		}
	}
	res.Correct = res.Failed == 0
	res.Seconds = tm.elapsed.Seconds()
	res.Windows = tm.windows

	raw, err := tm.totals()
	if err != nil {
		return nil, err
	}
	if res.TimedRef, err = poolRefs(tm.refs); err != nil {
		return nil, err
	}
	res.Raw["requests"] = float64(len(tm.outs))
	res.Raw["ops"] = float64(raw.ops)
	res.Raw["cpu_s"] = raw.cpu
	unscaled := map[string]float64{
		"setup_s":          median(res.SetupRawS),
		"throughput_per_s": float64(raw.ops) / raw.busy,
		"latency_p50_ms":   raw.p50,
		"latency_p90_ms":   raw.p90,
		"cpu_ms_per_op":    raw.cpu * 1000 / float64(raw.ops),
	}
	for k, v := range unscaled {
		res.Raw["unscaled."+k] = v
	}
	sh, tr := ref.timed.shape, res.TimedRef
	e2e := map[string]metric{
		"setup_s":          {median(res.SetupS), "s"},
		"throughput_per_s": {unscaled["throughput_per_s"] * sh.Rate / tr.Rate, "1/s"},
		"latency_p50_ms":   {raw.p50 * sh.P50 / tr.P50, "ms"},
		"latency_p90_ms":   {raw.p90 * tr.scaleP90(sh), "ms"},
		"cpu_ms_per_op":    {unscaled["cpu_ms_per_op"] * sh.CPU / tr.CPU, "ms"},
		"peak_rss_mb":      {tm.rss, "MiB"},
	}
	for k, v := range e2e {
		res.Raw[k] = v.Value
	}
	if err := sameMetrics(e2e, endToEndUnits); err != nil {
		return nil, err
	}
	p50, ops := raw.p50, raw.ops
	if !cfg.Trace {
		res.Metrics = e2e
		return res, nil
	}
	layers, err := traced(cfg, tm, pr, refs, prRefs, ops, p50, stdout)
	if err != nil {
		return nil, err
	}
	if err := sameMetrics(layers, perLayerUnits); err != nil {
		return nil, err
	}
	res.Metrics = layers
	for k, v := range layers {
		res.Raw[k] = v.Value
	}
	return res, nil
}

// check compares outcomes with their references, marks mismatches and
// counts failures under label; wantStore additionally requires every
// job to have been served from the store.
func (r *result) check(label string, outs []outcome, refs []reference, wantStore bool) {
	r.Attempted += len(outs)
	for i := range outs {
		o := &outs[i]
		if o.Status == "done" && (!matches(*o, refs[i]) || wantStore && o.Source != "store") {
			o.Mismatch = true
		}
		if f := failure(*o); f != "" {
			r.fail(label+f, 1)
		}
	}
}

// timedReferences returns the references of the timed requests. A
// warm-hits op resubmits a hot-set spec, whose reference the warm-up
// already computed.
func timedReferences(reqs []Request, warmRefs []reference) ([]reference, error) {
	if len(reqs) == 0 || reqs[0].Grid != nil || warmRefs == nil || len(warmRefs) == canaryJobs {
		return references(reqs)
	}
	refs := make([]reference, len(reqs))
	for i, r := range reqs {
		refs[i] = warmRefs[canaryJobs+r.Hot]
	}
	return refs, nil
}

func clientsFor(hc *http.Client, fl *fleet) []*client {
	return []*client{
		{hc: hc, base: fl.base, key: tenantKeys[0]},
		{hc: hc, base: fl.base, key: tenantKeys[1]},
	}
}

// timed is what the timed phase measured.
type timed struct {
	start   time.Time
	reqs    []Request
	outs    []outcome
	windows []window
	refs    []refTime     // before the first window and after each
	elapsed time.Duration // the whole phase, references included
	rss     float64       // summed VmHWM, MiB
	before  map[string]float64
	after   map[string]float64
}

// window is one window of the timed phase: requests outs[Lo:Hi], run
// back to back by the two clients, with the machine's CPU time counters
// over it.
type window struct {
	Lo      int           `json:"lo"`
	Hi      int           `json:"hi"`
	Elapsed time.Duration `json:"elapsed"`
	CPU     float64       `json:"cpu_s"` // CPU seconds of the processes under test
	Host    hostTicks     `json:"host"`
}

// totals are the timed phase's sums and percentiles over its
// successful requests, as measured.
type totals struct {
	ops      int     // jobs, or sweep cells
	busy     float64 // seconds the windows ran
	cpu      float64 // CPU seconds of the processes under test
	p50, p90 float64 // latency, ms
}

func (tm *timed) totals() (totals, error) {
	var m totals
	var lat []float64
	for _, w := range tm.windows {
		m.busy += w.Elapsed.Seconds()
		m.cpu += w.CPU
		for _, o := range tm.outs[w.Lo:w.Hi] {
			if failure(o) != "" {
				continue
			}
			lat = append(lat, ms(o.Latency))
			m.ops += max(o.Cells, 1)
		}
	}
	if m.ops == 0 {
		return m, errors.New("no request succeeded")
	}
	m.p50, _ = percentile(lat, 50)
	var err error
	m.p90, err = percentile(lat, 90)
	return m, err
}

// timedPhase runs the workload for d in windows of about windowLength,
// with a reference timing before the first window and after each.
func timedPhase(ctx context.Context, hc *http.Client, fl *fleet, g *Generator, d time.Duration, ref *hostRef) (*timed, error) {
	tm := &timed{}
	var err error
	if tm.before, err = scrapeMetrics(ctx, hc, fl.base); err != nil {
		return nil, err
	}
	do := (*client).runJob
	if g.Workload == FleetSweep {
		do = (*client).runSweep
	}
	n := max(1, int((d+windowLength/2)/windowLength))
	r0, err := ref.measure(ctx, hc, ref.timed, 0)
	if err != nil {
		return nil, err
	}
	tm.refs = []refTime{r0}
	refCount := len(r0.LatencyMS)
	tm.start = time.Now()
	for k := 0; k < n; k++ {
		cpu0, err := fl.cpuSeconds()
		if err != nil {
			return nil, err
		}
		minTotal := 0
		if k == n-1 {
			minTotal = minTimedRequests
		}
		h0, err := readHostTicks()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		outs := closedLoop(ctx, clientsFor(hc, fl), windowSource(g, len(tm.outs), t0.Add(d/time.Duration(n)), minTotal), do)
		w := window{Lo: len(tm.outs), Hi: len(tm.outs) + len(outs), Elapsed: time.Since(t0)}
		cpu1, err := fl.cpuSeconds()
		if err != nil {
			return nil, err
		}
		h1, err := readHostTicks()
		if err != nil {
			return nil, err
		}
		w.Host = h1.sub(h0)
		// The last reference timing makes up the 100 requests the
		// reference's p90 needs.
		need := 0
		if k == n-1 {
			need = minTimedRequests - refCount
		}
		r1, err := ref.measure(ctx, hc, ref.timed, need)
		if err != nil {
			return nil, err
		}
		refCount += len(r1.LatencyMS)
		w.CPU = cpu1 - cpu0
		tm.windows = append(tm.windows, w)
		tm.refs = append(tm.refs, r1)
		tm.outs = append(tm.outs, outs...)
	}
	tm.elapsed = time.Since(tm.start)
	if tm.rss, err = fl.peakRSSMiB(); err != nil {
		return nil, err
	}
	if tm.after, err = scrapeMetrics(ctx, hc, fl.base); err != nil {
		return nil, err
	}
	for i := range tm.outs {
		tm.reqs = append(tm.reqs, g.Request(i))
	}
	return tm, nil
}

// writeDigests records the default-seed digests from in-process
// references.
func writeDigests(path string) error {
	d := map[string]string{}
	g, err := NewGenerator(ColdMix, defaultSeed)
	if err != nil {
		return err
	}
	refs, err := references(g.WarmUp()[:canaryJobs])
	if err != nil {
		return err
	}
	d["canary"] = statsDigest(refs)
	for _, w := range workloads {
		g, err := NewGenerator(w, defaultSeed)
		if err != nil {
			return err
		}
		reqs := make([]Request, digestRequests)
		for i := range reqs {
			reqs[i] = g.Request(i)
		}
		refs, err := references(reqs)
		if err != nil {
			return err
		}
		d[w] = statsDigest(refs)
	}
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		fmt.Fprintf(&b, "  %q: %q", k, d[k])
		if i < len(keys)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
