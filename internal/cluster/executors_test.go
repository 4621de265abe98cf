package cluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/experiments"
	"repro/internal/metrics"
)

// concurrency tracks how many units a RunUnit override is executing at
// once, and the most it ever saw.
type concurrency struct {
	now, peak atomic.Int64
}

func (c *concurrency) enter() int64 {
	n := c.now.Add(1)
	for {
		p := c.peak.Load()
		if n <= p || c.peak.CompareAndSwap(p, n) {
			return n
		}
	}
}

func (c *concurrency) leave() { c.now.Add(-1) }

// startWiredWorker starts w.Run(ctx) against c, waits until the worker
// holds a wire conn, and returns the channel Run's result arrives on.
func startWiredWorker(t *testing.T, ctx context.Context, c *Coordinator, w *Worker) chan error {
	t.Helper()
	runDone := make(chan error, 1)
	go func() { runDone <- w.Run(ctx) }()
	waitConnected(t, c, 1)
	waitWired(t, c, 1)
	return runDone
}

// waitFor blocks until ch closes, failing the test after 5s.
func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// wiredPlane is a one-trial-shard test plane with the streaming
// transport up; it returns the coordinator and its HTTP base URL.
func wiredPlane(t *testing.T, reg *metrics.Registry) (*Coordinator, string) {
	t.Helper()
	cfg := fastCadence()
	cfg.Metrics = reg
	cfg.ShardTrials = 1
	c, srv := newTestPlane(t, cfg)
	return c, srv.URL
}

// At GOMAXPROCS=4 one wire worker executes four granted units at once,
// never more, and the assembled rows are exactly a local run's.
func TestWorkerRunsOneUnitPerCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c, url := wiredPlane(t, metrics.New())

	var cc concurrency
	allIn := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	w := NewWorker(WorkerConfig{
		Server: url, Name: "quad", Reconnect: fastReconnect(),
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			if cc.enter() == 4 {
				once.Do(func() { close(allIn) })
			}
			defer cc.leave()
			<-gate
			return u.Run()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startWiredWorker(t, ctx, c, w)

	spec := shardSpec(90, 8)
	res := executeAsync(c, context.Background(), spec)
	waitFor(t, allIn, "four units executing at once")
	close(gate)
	r := <-res
	want, _ := experiments.RunScenario(spec)
	if !r.ok || r.err != nil || !reflect.DeepEqual(r.rows, want) {
		t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
	if p := cc.peak.Load(); p != 4 {
		t.Fatalf("peak concurrent units = %d, want 4", p)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
	// Read after Run returns: a unit counts once its completion is sent,
	// which can trail the coordinator assembling the scenario.
	if got := w.Completed(); got != 8 {
		t.Fatalf("worker completed %d units, want 8", got)
	}
}

// At GOMAXPROCS=1 the worker is the sequential executor it always was:
// never two units at once, even with grants queued.
func TestWorkerAtOneProcRunsOneUnitAtATime(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c, url := wiredPlane(t, metrics.New())

	var cc concurrency
	w := NewWorker(WorkerConfig{
		Server: url, Name: "solo", Reconnect: fastReconnect(),
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			cc.enter()
			defer cc.leave()
			time.Sleep(5 * time.Millisecond) // room for an overlap to show
			return u.Run()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startWiredWorker(t, ctx, c, w)

	spec := shardSpec(91, 6)
	rows, ok, err := c.Execute(context.Background(), spec)
	want, _ := experiments.RunScenario(spec)
	if !ok || err != nil || !reflect.DeepEqual(rows, want) {
		t.Fatalf("Execute = (ok=%v, err=%v)", ok, err)
	}
	if p := cc.peak.Load(); p != 1 {
		t.Fatalf("peak concurrent units = %d at GOMAXPROCS=1, want 1", p)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

// Units whose specs ask for every core (workers 0) or more share the
// worker's GOMAXPROCS trial slots instead of multiplying them: an
// unsplit scenario with workers 0 runs alone on all four slots, holding
// just one more unit queued as a sequential worker would, and across
// every mix of widths no more than four trials ever run at once.
func TestWorkerSharesTrialSlotsAcrossUnits(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c, srv := newTestPlane(t, fastCadence()) // one unit per scenario

	var trials concurrency
	var leased atomic.Int64
	gate := make(chan struct{})
	w := NewWorker(WorkerConfig{
		Server: srv.URL, Name: "slots", Reconnect: fastReconnect(),
		OnLease: func(Unit) { leased.Add(1) },
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			<-gate
			// Stand in for the unit's trials: the real trial runner at the
			// parallelism the worker hands the unit, each trial counted.
			if _, err := experiments.RunTrials(u.Spec.Seed, u.Spec.Trials, u.Spec.Workers,
				func(int, *crypto.Stream) (struct{}, error) {
					trials.enter()
					defer trials.leave()
					time.Sleep(5 * time.Millisecond)
					return struct{}{}, nil
				}); err != nil {
				return nil, err
			}
			return u.Run()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startWiredWorker(t, ctx, c, w)

	var specs []experiments.ScenarioConfig
	var results []chan execResult
	submit := func(seed uint64, workers int) {
		spec := shardSpec(seed, 6)
		spec.Workers = workers
		specs = append(specs, spec)
		results = append(results, executeAsync(c, context.Background(), spec))
	}
	for seed := uint64(100); seed < 103; seed++ {
		submit(seed, 0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for leased.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // room for a surplus grant to show
	if got := leased.Load(); got != 2 {
		t.Fatalf("worker leased %d unsplit scenarios at workers 0, want 2 (one executing, one queued)", got)
	}
	submit(103, 8)
	submit(104, 2)
	submit(105, 1)
	submit(106, 1)
	close(gate)
	for i, res := range results {
		r := <-res
		want, _ := experiments.RunScenario(specs[i])
		if !r.ok || r.err != nil || !reflect.DeepEqual(r.rows, want) {
			t.Fatalf("Execute seed %d = (ok=%v, err=%v)", specs[i].Seed, r.ok, r.err)
		}
	}
	if p := trials.peak.Load(); p != 4 {
		t.Fatalf("peak concurrent trials = %d, want 4 (the worker's GOMAXPROCS)", p)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

// Units start in grant order: a wide unit at the head of the queue that
// does not fit yet holds back a narrow one granted after it, even though
// the narrow one would fit. Each grant is waited for before the next
// scenario is submitted, so the grant order is the submission order.
func TestWorkerStartsUnitsInGrantOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	c, srv := newTestPlane(t, fastCadence()) // one unit per scenario

	leased := make(chan uint64, 3)
	starts := make(chan uint64, 3)
	var mu sync.Mutex
	var started []uint64
	startOrder := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), started...)
	}
	gate := make(chan struct{})
	w := NewWorker(WorkerConfig{
		Server: srv.URL, Name: "ordered", Reconnect: fastReconnect(),
		OnLease: func(u Unit) { leased <- u.Spec.Seed },
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			mu.Lock()
			started = append(started, u.Spec.Seed)
			mu.Unlock()
			starts <- u.Spec.Seed
			<-gate
			return u.Run()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startWiredWorker(t, ctx, c, w)

	var results []chan execResult
	submit := func(seed uint64, workers int) {
		t.Helper()
		spec := shardSpec(seed, 4)
		spec.Workers = workers
		results = append(results, executeAsync(c, context.Background(), spec))
		select {
		case got := <-leased:
			if got != seed {
				t.Fatalf("granted seed %d, want %d", got, seed)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("seed %d never granted", seed)
		}
	}
	submit(200, 1) // narrow: runs on one of the four slots
	select {
	case <-starts:
	case <-time.After(5 * time.Second):
		t.Fatal("the narrow unit never started")
	}
	submit(201, 4) // wide: waits at the head of the queue for all four
	submit(202, 1) // late: would fit, but is behind the wide unit
	if got := startOrder(); len(got) != 1 {
		t.Fatalf("started %v while the wide unit waited for slots", got)
	}
	close(gate)
	for _, res := range results {
		if r := <-res; !r.ok || r.err != nil {
			t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
		}
	}
	if got, want := startOrder(), []uint64{200, 201, 202}; !reflect.DeepEqual(got, want) {
		t.Fatalf("units started in order %v, want %v (grant order)", got, want)
	}

	// Demand followed the slots: the opening 2, one more when the narrow
	// unit and the late one each started with slots to spare, and a
	// replacement when the wide unit finished from full, less the three
	// grants. A unit that finishes with slots to spare asks for nothing.
	demand := func() (n int) {
		c.wire.mu.Lock()
		defer c.wire.mu.Unlock()
		for cn := range c.wire.open {
			n += cn.demand
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for demand() != 2 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // room for a surplus Want to show
	if d := demand(); d != 2 {
		t.Fatalf("worker's outstanding demand = %d after its units finished, want 2", d)
	}
	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("worker run: %v", err)
	}
}

// A graceful drain with several units executing finishes and reports
// every one of them while the worker is still registered — before its
// Bye — and then deregisters. The grant it held queued is released by
// the Bye and finished by the next worker.
func TestWorkerGracefulDrainReportsEveryInFlightUnit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg := metrics.New()
	c, url := wiredPlane(t, reg)

	var cc concurrency
	allIn := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	w := NewWorker(WorkerConfig{
		Server: url, Name: "drainer", Reconnect: fastReconnect(),
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			if cc.enter() == 4 {
				once.Do(func() { close(allIn) })
			}
			defer cc.leave()
			<-gate
			return u.Run()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := startWiredWorker(t, ctx, c, w)

	spec := shardSpec(92, 6) // 4 executing, 1 queued, 1 pending
	res := executeAsync(c, context.Background(), spec)
	waitFor(t, allIn, "four units executing at once")
	cancel() // drain signal lands with four units mid-execution
	// Outlast the lease TTL: heartbeats must keep all four leases alive.
	time.Sleep(400 * time.Millisecond)
	close(gate)
	if err := <-runDone; err != nil {
		t.Fatalf("worker run after graceful cancel: %v", err)
	}
	if got := w.Completed(); got != 4 {
		t.Fatalf("drained worker completed %d units, want its 4 in flight", got)
	}
	// A completion that arrived after the Bye would be counted under the
	// worker's ID, not its name (the coordinator no longer knows it).
	if v := reg.Counter(MetricUnitsCompleted + `{worker="drainer"}`).Value(); v != 4 {
		t.Fatalf("completions reported while registered = %d, want 4", v)
	}
	if ws := c.WorkersStatus(); ws.Connected != 0 {
		t.Fatalf("worker did not deregister on drain: %+v", ws)
	}

	next := NewWorker(WorkerConfig{Server: url, Name: "next", Reconnect: fastReconnect()})
	nextCtx, nextCancel := context.WithCancel(context.Background())
	defer nextCancel()
	nextDone := startWiredWorker(t, nextCtx, c, next)
	r := <-res
	want, _ := experiments.RunScenario(spec)
	if !r.ok || r.err != nil || !reflect.DeepEqual(r.rows, want) {
		t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
	nextCancel()
	if err := <-nextDone; err != nil {
		t.Fatalf("next worker run: %v", err)
	}
	if got := next.Completed(); got != 2 {
		t.Fatalf("next worker completed %d units, want the 2 left over", got)
	}
}

// An abort with several units executing reports none of them: their
// leases expire, another worker runs every one, and the scenario
// assembles once.
func TestWorkerAbortWithUnitsInFlightReportsNone(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	reg := metrics.New()
	c, url := wiredPlane(t, reg)

	var cc concurrency
	abort := make(chan struct{})
	var once sync.Once
	crashy := NewWorker(WorkerConfig{
		Server: url, Name: "crashy", Reconnect: fastReconnect(),
		Abort: abort,
		RunUnit: func(u Unit) ([]experiments.ScenarioRow, error) {
			if cc.enter() == 4 {
				once.Do(func() { close(abort) }) // die with four units mid-execution
			}
			defer cc.leave()
			<-u.Spec.Context.Done()
			return nil, u.Spec.Context.Err()
		},
	})
	crashDone := startWiredWorker(t, context.Background(), c, crashy)

	spec := shardSpec(93, 4)
	res := executeAsync(c, context.Background(), spec)
	if err := <-crashDone; !errors.Is(err, ErrAborted) {
		t.Fatalf("crashed worker run = %v, want ErrAborted", err)
	}
	if got := crashy.Completed(); got != 0 {
		t.Fatalf("crashed worker reported %d units, want 0", got)
	}

	healthy := NewWorker(WorkerConfig{Server: url, Name: "healthy", Reconnect: fastReconnect()})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	healthyDone := make(chan error, 1)
	go func() { healthyDone <- healthy.Run(ctx) }()
	r := <-res
	want, _ := experiments.RunScenario(spec)
	if !r.ok || r.err != nil || !reflect.DeepEqual(r.rows, want) {
		t.Fatalf("Execute = (ok=%v, err=%v)", r.ok, r.err)
	}
	for name, want := range map[string]int64{
		MetricUnitsCompleted + `{worker="crashy"}`:  0,
		MetricUnitsCompleted + `{worker="healthy"}`: 4,
		MetricShardsMerged:                          4,
		MetricResultsStale:                          0,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	cancel()
	if err := <-healthyDone; err != nil {
		t.Fatalf("healthy worker run: %v", err)
	}
}
