package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/tenant"
	"repro/internal/wire"
)

// The traced run replays the timed run's requests in-process, through
// each layer's public functions in the order the server calls them,
// with a span around every call. Spans are recorded from this file
// only; the program is not instrumented.

// replayEnv is one replay's private copy of the server's state.
type replayEnv struct {
	rec  *Recorder
	reg  *metrics.Registry
	ctl  *tenant.Controller
	st   *store.Store
	wal  *store.WAL
	q    *tenant.Queue[int]
	mgr  *service.Manager
	keys [2]string
}

// noopExecutor completes every job at once, so the manager used to
// time Manager.SubmitAs never runs an engine.
type noopExecutor struct{}

func (noopExecutor) Execute(context.Context, experiments.ScenarioConfig) ([]experiments.ScenarioRow, bool, error) {
	return nil, true, nil
}

func newReplayEnv(rec *Recorder, dir, keyfile string, keys [2]string) (*replayEnv, error) {
	reg := metrics.New()
	ctl, err := tenant.NewController(tenant.Config{Path: keyfile, Metrics: reg})
	if err != nil {
		return nil, err
	}
	e := &replayEnv{rec: rec, reg: reg, ctl: ctl, keys: keys}
	open := rec.Start("store.open", 0, -1)
	e.st, err = store.Open(filepath.Join(dir, "data"), store.Config{Metrics: reg})
	if err == nil {
		e.wal, _, err = store.OpenWAL(filepath.Join(dir, "data"), store.WALConfig{Metrics: reg})
	}
	rec.End(open)
	if err != nil {
		return nil, err
	}
	e.q = tenant.NewQueue[int](ctl, tenant.QueueConfig{Capacity: 64})
	// SubmitAs is timed on a manager without a store: the store lookup is
	// priced on its own (store.key, store.get), and what remains is
	// SubmitAs's own work plus an open tenant's admission and one push.
	e.mgr = service.New(service.Config{Workers: 1, QueueSize: 1 << 12, Retain: 16, Cluster: noopExecutor{}, Metrics: metrics.New()})
	return e, nil
}

func (e *replayEnv) close() {
	_ = e.mgr.Drain(context.Background())
	e.q.Close()
	e.wal.Close()
	e.st.Close()
}

// span runs fn inside a span named name.
func (e *replayEnv) span(name string, parent, req int, fn func() error) error {
	id := e.rec.Start(name, parent, req)
	err := fn()
	e.rec.End(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (e *replayEnv) auth(root, req int, method, path string) (*tenant.Tenant, error) {
	hr, _ := http.NewRequest(method, path, nil) // constant method and path: never fails
	hr.Header.Set("Authorization", "Bearer "+e.keys[req%2])
	var t *tenant.Tenant
	err := e.span("tenant.auth", root, req, func() (err error) {
		t, err = e.ctl.FromRequest(hr)
		return err
	})
	return t, err
}

// lookup prices the store lookup as the server does it: GetScenario,
// whose key computation is also timed on its own as store.key.
func (e *replayEnv) lookup(root, req int, cfg experiments.ScenarioConfig) ([]experiments.ScenarioRow, bool, error) {
	if err := e.span("store.key", root, req, func() error {
		_, err := store.ScenarioKey(cfg)
		return err
	}); err != nil {
		return nil, false, err
	}
	var rows []experiments.ScenarioRow
	var ok bool
	err := e.span("store.get", root, req, func() (err error) {
		rows, ok, err = e.st.GetScenario(cfg)
		return err
	})
	return rows, ok, err
}

// admitAndSubmit prices one submission's front door: the tenant's
// bucket, SubmitAs itself, and the fair queue's push and pop.
func (e *replayEnv) admitAndSubmit(root, req int, t *tenant.Tenant, spec service.Spec, queued bool) error {
	if err := e.span("tenant.admit", root, req, func() error { return e.ctl.AdmitSubmission(t) }); err != nil {
		return err
	}
	if err := e.span("service.submit", root, req, func() error {
		_, err := e.mgr.SubmitAs(nil, spec)
		return err
	}); err != nil {
		return err
	}
	if !queued {
		return nil
	}
	return e.span("tenant.queue", root, req, func() error {
		if err := e.q.Push(t, req); err != nil {
			return err
		}
		if _, ok := e.q.Pop(); !ok {
			return errors.New("queue closed")
		}
		return nil
	})
}

// job replays one job request: POST /v1/jobs, the execution on a miss,
// and the GET that returns the rows.
func (e *replayEnv) job(req int, body []byte) error {
	root := e.rec.Start("request", 0, req)
	defer e.rec.End(root)
	var spec service.Spec
	if err := e.span("service.spec_decode", root, req, func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&spec)
	}); err != nil {
		return err
	}
	t, err := e.auth(root, req, http.MethodPost, "/v1/jobs")
	if err != nil {
		return err
	}
	spec.Normalize() // as SubmitAs does; the view carries the normalized spec
	cfg := spec.ScenarioConfig
	rows, hit, err := e.lookup(root, req, cfg)
	if err != nil {
		return err
	}
	if err := e.admitAndSubmit(root, req, t, spec, !hit); err != nil {
		return err
	}
	if !hit {
		if rows, err = e.scenario(root, req, cfg, -1, -1); err != nil {
			return err
		}
		if err := e.span("store.put", root, req, func() error {
			return e.st.PutScenario(cfg, rows, store.Meta{Version: "bench"})
		}); err != nil {
			return err
		}
	}
	if _, err := e.auth(root, req, http.MethodGet, "/v1/jobs/j000001"); err != nil {
		return err
	}
	view := service.View{ID: fmt.Sprintf("j%06d", req+1), Status: service.StatusDone, Tenant: t.ID(),
		Spec: spec, Rows: rows, SubmittedAt: time.Now().UTC().Format(time.RFC3339Nano)}
	if hit {
		view.Source = "store"
	}
	return e.span("service.view_encode", root, req, func() error {
		return json.NewEncoder(io.Discard).Encode(view)
	})
}

// sweepReq replays one fleet-sweep request: POST /v1/sweeps, every
// cell through the coordinator's shard path with its grant and
// completion frames, and the GET of the CSV.
func (e *replayEnv) sweepReq(req int, body []byte) error {
	root := e.rec.Start("request", 0, req)
	defer e.rec.End(root)
	t, err := e.auth(root, req, http.MethodPost, "/v1/sweeps")
	if err != nil {
		return err
	}
	var g sweep.Grid
	if err := e.span("sweep.decode", root, req, func() error {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		return dec.Decode(&g)
	}); err != nil {
		return err
	}
	if err := e.span("tenant.admit", root, req, func() error { return e.ctl.AdmitSubmission(t) }); err != nil {
		return err
	}
	var cells []sweep.Cell
	if err := e.span("sweep.expand", root, req, func() (err error) {
		cells, err = g.Expand()
		return err
	}); err != nil {
		return err
	}
	sweepID := fmt.Sprintf("s%06d", req+1)
	if err := e.walAppend(root, req, store.WALRecord{Kind: store.RecSweepOpened, Sweep: sweepID, Grid: body}); err != nil {
		return err
	}
	results := make([]sweep.CellResult, len(cells))
	for i, c := range cells {
		rows, err := e.cell(root, req, t, sweepID, c)
		if err != nil {
			return err
		}
		results[i] = sweep.CellResult{Index: i, Key: c.Key, Source: sweep.SourceExecuted, Spec: c.Spec, Rows: rows}
	}
	if err := e.walAppend(root, req, store.WALRecord{Kind: store.RecSweepClosed, Sweep: sweepID, Status: "done"}); err != nil {
		return err
	}
	if _, err := e.auth(root, req, http.MethodGet, "/v1/sweeps/s000001/results"); err != nil {
		return err
	}
	return e.span("sweep.csv", root, req, func() error { return sweep.WriteCSV(io.Discard, results) })
}

func (e *replayEnv) walAppend(root, req int, rec store.WALRecord) error {
	return e.span("store.wal_append", root, req, func() error { return e.wal.Append(rec) })
}

// cell replays one sweep cell: the sweep's store lookup and
// submission, the coordinator's plan, each one-trial unit's grant,
// execution, completion and merge, and the write-backs.
func (e *replayEnv) cell(root, req int, t *tenant.Tenant, sweepID string, c sweep.Cell) ([]experiments.ScenarioRow, error) {
	if _, _, err := e.lookup(root, req, c.Spec); err != nil {
		return nil, err
	}
	if err := e.admitAndSubmit(root, req, t, service.Spec{ScenarioConfig: c.Spec}, true); err != nil {
		return nil, err
	}
	if err := e.walAppend(root, req, store.WALRecord{Kind: store.RecUnitEnqueued, Sweep: sweepID, Key: c.Key}); err != nil {
		return nil, err
	}
	var ranges []shard.Range
	if err := e.span("shard.plan", root, req, func() error {
		ranges = shard.Plan(c.Spec.Trials, 1)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := e.walAppend(root, req, store.WALRecord{Kind: store.RecUnitEnqueued, Key: c.Key}); err != nil {
		return nil, err
	}
	mrg := shard.NewMerger(ranges)
	for i, r := range ranges {
		unit := cluster.Unit{ID: fmt.Sprintf("u%06d", i+1), Key: shard.Key(c.Key, r.Start, r.End),
			Parent: c.Key, Start: r.Start, End: r.End, Spec: c.Spec}
		rows, err := e.unit(root, req, unit)
		if err != nil {
			return nil, err
		}
		if err := e.span("shard.merge", root, req, func() error { return mrg.Add(i, rows) }); err != nil {
			return nil, err
		}
	}
	var rows []experiments.ScenarioRow
	_ = e.span("shard.merge", root, req, func() error {
		rows = mrg.Rows()
		return nil
	})
	if err := e.span("store.put", root, req, func() error {
		return e.st.PutScenario(c.Spec, rows, store.Meta{Version: "bench"})
	}); err != nil {
		return nil, err
	}
	if err := e.walAppend(root, req, store.WALRecord{Kind: store.RecUnitCompleted, Key: c.Key, Source: "cluster"}); err != nil {
		return nil, err
	}
	return rows, e.walAppend(root, req, store.WALRecord{Kind: store.RecUnitCompleted, Sweep: sweepID, Key: c.Key, Source: sweep.SourceExecuted})
}

// unit replays one leased unit: grant encode, frame and decode; the
// trial range; completion encode, frame and decode.
func (e *replayEnv) unit(root, req int, u cluster.Unit) ([]experiments.ScenarioRow, error) {
	var grant []byte
	if err := e.span("cluster.codec", root, req, func() (err error) {
		grant, err = shard.EncodeBatch([]shard.Descriptor{u})
		return err
	}); err != nil {
		return nil, err
	}
	grant, err := e.frame(root, req, wire.Grant, grant)
	if err != nil {
		return nil, err
	}
	var got []shard.Descriptor
	if err := e.span("cluster.codec", root, req, func() (err error) {
		got, err = shard.DecodeBatch(grant)
		return err
	}); err != nil {
		return nil, err
	}
	d := got[0]
	rows, err := e.scenario(root, req, d.Spec, d.Start, d.End)
	if err != nil {
		return nil, err
	}
	var complete []byte
	if err := e.span("cluster.codec", root, req, func() error {
		raw, err := json.Marshal(rows)
		if err != nil {
			return err
		}
		complete, err = json.Marshal(cluster.CompleteRequest{WorkerID: "w1", UnitID: d.ID, Key: d.Key,
			Rows: raw, CRC32: crc32.ChecksumIEEE(raw)})
		return err
	}); err != nil {
		return nil, err
	}
	complete, err = e.frame(root, req, wire.Complete, complete)
	if err != nil {
		return nil, err
	}
	var out []experiments.ScenarioRow
	err = e.span("cluster.codec", root, req, func() error {
		var cr cluster.CompleteRequest
		if err := json.Unmarshal(complete, &cr); err != nil {
			return err
		}
		if crc32.ChecksumIEEE(cr.Rows) != cr.CRC32 || cr.Key != u.Key {
			return errors.New("completion does not verify")
		}
		return json.Unmarshal(cr.Rows, &out)
	})
	return out, err
}

// frame prices one frame's trip through the codec: AppendFrame on the
// sender, ReadFrame on the receiver.
func (e *replayEnv) frame(root, req int, t wire.FrameType, payload []byte) ([]byte, error) {
	var got []byte
	err := e.span("wire.frame", root, req, func() error {
		buf := wire.AppendFrame(nil, t, payload)
		ft, p, err := wire.ReadFrame(bytes.NewReader(buf))
		if err == nil && ft != t {
			err = fmt.Errorf("frame type %d, want %d", ft, t)
		}
		got = p
		return err
	})
	return got, err
}

// phaseName maps the engine's phase labels to span names.
var phaseName = map[string]string{
	"announce":       "core.announce",
	"tree-formation": "core.tree",
	"aggregation":    "core.aggregation",
	"confirmation":   "core.confirmation",
}

// phaseTracer turns engine trace events into spans. Trials of a
// benchmark job run one after another (every spec sets one worker), so
// a trial's set-up runs from the previous trial's outcome, or from the
// call, to its first event. Pinpointing runs from the first predicate
// test or walk step to the outcome.
type phaseTracer struct {
	mu         sync.Mutex
	rec        *Recorder
	parent     int
	req        int
	setupStart time.Time
	inSetup    bool
	phase      string
	phaseStart time.Time
}

func (p *phaseTracer) close(now time.Time) {
	if p.phase != "" {
		p.rec.Add(p.phase, p.parent, p.req, p.phaseStart, now)
		p.phase = ""
	}
}

func (p *phaseTracer) open(name string, now time.Time) {
	p.close(now)
	p.phase, p.phaseStart = name, now
}

func (p *phaseTracer) event(_ int, ev core.Event) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.inSetup {
		p.rec.Add("experiments.trial_setup", p.parent, p.req, p.setupStart, now)
		p.inSetup = false
	}
	switch ev.Kind {
	case core.EventPhase:
		if name, ok := phaseName[ev.Label]; ok {
			p.open(name, now)
		}
	case core.EventPredicateTest, core.EventWalkStep:
		if p.phase != "core.pinpoint" {
			p.open("core.pinpoint", now)
		}
	case core.EventOutcome:
		p.close(now)
		p.inSetup, p.setupStart = true, now
	}
}

// scenario runs a scenario (or the trial range [start, end) when start
// >= 0) inside an experiments.scenario span, with the engine's events
// turned into child spans.
func (e *replayEnv) scenario(root, req int, cfg experiments.ScenarioConfig, start, end int) ([]experiments.ScenarioRow, error) {
	id := e.rec.Start("experiments.scenario", root, req)
	defer e.rec.End(id)
	// As the server's job runner does: a cancellable context and the
	// engine counters.
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	cfg.Context, cfg.Metrics = ctx, e.reg
	if e.rec != nil {
		tr := &phaseTracer{rec: e.rec, parent: id, req: req, inSetup: true, setupStart: time.Now()}
		cfg.Trace = tr.event
	}
	var rows []experiments.ScenarioRow
	var err error
	if start >= 0 {
		rows, err = experiments.RunScenarioRange(cfg, start, end)
	} else {
		rows, err = experiments.RunScenario(cfg)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments.scenario: %w", err)
	}
	return rows, nil
}

// preload stores the warm-up's rows the way the server's warm-up did.
func (e *replayEnv) preload(warm []Request, refs []reference) error {
	for i, w := range warm {
		if err := e.st.PutScenario(*w.Spec, refs[i].Rows[0], store.Meta{Version: "bench"}); err != nil {
			return err
		}
	}
	return nil
}

// runReplay replays reqs on e, two at a time, and returns the wall
// time. Each replay goroutine records into its own fork of e's
// recorder, merged back at the end.
func runReplay(e *replayEnv, reqs []Request) (time.Duration, error) {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 2)
	forks := make([]*Recorder, 2)
	start := time.Now()
	for w := 0; w < 2; w++ {
		we := *e
		we.rec = e.rec.Fork()
		forks[w] = we.rec
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				req := reqs[i]
				var err error
				if req.Grid != nil {
					err = we.sweepReq(req.Index, req.Body)
				} else {
					err = we.job(req.Index, req.Body)
				}
				if err != nil {
					errs[w] = fmt.Errorf("replay request %d: %w", req.Index, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	e.rec.Absorb(forks...)
	return elapsed, errors.Join(errs...)
}
