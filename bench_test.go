// Package repro benchmarks regenerate every evaluation artifact of the
// paper at benchmark-friendly scale, one testing.B target per figure or
// claim. Run the paper-scale versions with cmd/vmat-bench.
//
//	BenchmarkFig7MisRevocation      Figure 7  (mis-revocation vs theta)
//	BenchmarkFig8ApproxError        Figure 8  (synopsis approximation error)
//	BenchmarkCommComplexity         Section IX communication comparison
//	BenchmarkFloodingRounds         Section I  O(1) vs Omega(log n) rounds
//	BenchmarkPinpointing            Theorem 6  pinpointing cost
//	BenchmarkRevocationCampaign     Section I  >90% fewer key announcements
//	BenchmarkWormholeTreeFormation  Figure 2(c) hop-count vs timestamp
//	BenchmarkSOFChoking             Lemma 1   veto delivery under choking
//
// Micro-benchmarks cover the hot primitives underneath: MACs, synopsis
// derivation, one full honest execution, and one full pinpointing run.
package repro

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/adversary"
	"repro/internal/authbcast"
	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/experiments"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/synopsis"
	"repro/internal/tenant"
	"repro/internal/topology"
)

func BenchmarkFig7MisRevocation(b *testing.B) {
	cfg := experiments.Fig7Config{
		NetworkSizes:    []int{1000},
		MaliciousCounts: []int{1, 20},
		Thetas:          []int{1, 7, 27},
		Trials:          2,
		Params:          keydist.PaperParams(),
		Seed:            2011,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFig8ApproxError(b *testing.B) {
	cfg := experiments.Fig8Config{Synopses: 100, Counts: []int{100, 1000}, Trials: 20, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if rows := experiments.RunFig8(cfg); len(rows) != 2 {
			b.Fatal("bad row count")
		}
	}
}

func BenchmarkCommComplexity(b *testing.B) {
	cfg := experiments.CommConfig{NetworkSizes: []int{200}, Synopses: 100, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunComm(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].VMATMaxNodeBytes), "vmat_max_node_B")
		b.ReportMetric(float64(rows[0].NaiveMaxNodeBytes), "naive_max_node_B")
	}
}

func BenchmarkFloodingRounds(b *testing.B) {
	cfg := experiments.RoundsConfig{NetworkSizes: []int{200}, Repeats: 3, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunRounds(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].VMATRounds, "vmat_rounds")
		b.ReportMetric(float64(rows[0].SamplingRounds), "sampling_rounds")
	}
}

func BenchmarkPinpointing(b *testing.B) {
	cfg := experiments.PinpointConfig{NetworkSizes: []int{60}, Trials: 2, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunPinpoint(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Sound != r.Triggered {
				b.Fatalf("unsound revocation in %s", r.Strategy)
			}
		}
	}
}

func BenchmarkRevocationCampaign(b *testing.B) {
	cfg := experiments.CampaignConfig{N: 40, Thetas: []int{7}, MaxExecutions: 60, Trials: 1, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunCampaign(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].AvgRingCoverage, "ring_coverage")
	}
}

func BenchmarkWormholeTreeFormation(b *testing.B) {
	cfg := experiments.WormholeConfig{NetworkSizes: []int{60}, Trials: 2, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunWormhole(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].TimestampInvalid != 0 {
			b.Fatal("timestamp formation broke")
		}
	}
}

func BenchmarkSOFChoking(b *testing.B) {
	cfg := experiments.ChokingConfig{N: 50, MaliciousCounts: []int{2}, Trials: 3, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunChoking(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].VetoDelivered != rows[0].Trials {
			b.Fatal("Lemma 1 violated")
		}
	}
}

func BenchmarkMultipathLossAblation(b *testing.B) {
	cfg := experiments.LossConfig{N: 60, LossRates: []float64{0.1}, Trials: 4, Seed: 2011}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunLoss(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[0].MultiCorrect), "multi_correct")
		b.ReportMetric(float64(rows[0].SingleCorrect), "single_correct")
	}
}

// BenchmarkServiceSubmitToDone measures the full service round trip:
// submit a scenario job to the manager's bounded queue, execute it on
// the worker pool, and observe completion — the latency an HTTP client
// of vmat-server sees between POST /v1/jobs and the job turning done.
func BenchmarkServiceSubmitToDone(b *testing.B) {
	mgr := service.New(service.Config{
		QueueSize: 8,
		Workers:   1,
		Retain:    8,
		Metrics:   metrics.New(),
	})
	defer mgr.Drain(context.Background())
	spec := service.Spec{ScenarioConfig: experiments.ScenarioConfig{
		N: 30, Topology: "geometric", Query: "min",
		Attack: "drop", Malicious: 1,
		Trials: 2, Seed: 7, Workers: 1,
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job, err := mgr.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if job.Status() != service.StatusDone {
			b.Fatalf("job finished %s: %s", job.Status(), job.Err())
		}
	}
}

// BenchmarkStoreHitVsColdExecution quantifies the result store's win:
// "cold" executes a paper-style scenario through the service worker
// pool, "warm" serves the identical spec from the content-addressed
// store. The warm path is expected to be orders of magnitude (>=100x)
// faster since it replaces an engine run with one index lookup.
func BenchmarkStoreHitVsColdExecution(b *testing.B) {
	spec := service.Spec{ScenarioConfig: experiments.ScenarioConfig{
		N: 60, Topology: "geometric", Query: "min",
		Attack: "drop", Malicious: 2,
		Trials: 5, Seed: 2011, Workers: 1,
	}}

	b.Run("cold", func(b *testing.B) {
		mgr := service.New(service.Config{QueueSize: 8, Workers: 1, Retain: 8, Metrics: metrics.New()})
		defer mgr.Drain(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := mgr.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
			if job.Status() != service.StatusDone {
				b.Fatalf("job finished %s: %s", job.Status(), job.Err())
			}
		}
	})

	b.Run("warm", func(b *testing.B) {
		st, err := store.Open(b.TempDir(), store.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		mgr := service.New(service.Config{QueueSize: 8, Workers: 1, Retain: 8, Metrics: metrics.New(), Store: st})
		defer mgr.Drain(context.Background())
		// Prime the store with one real execution.
		job, err := mgr.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if job.Status() != service.StatusDone {
			b.Fatalf("priming job finished %s: %s", job.Status(), job.Err())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := mgr.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
			if v := job.View(); v.Status != service.StatusDone || v.Source != "store" {
				b.Fatalf("job not served from store: %+v", v)
			}
		}
	})
}

// BenchmarkClusterDispatch compares the same batch of jobs dispatched
// to the service's local pool vs a two-worker fleet on loopback: HTTP
// registration, then grants, heartbeats and CRC-verified completions
// over each worker's wire conn. The fleet pays the protocol cost per
// unit but runs units concurrently, so this is the in-process
// break-even measurement (run it with
// `go test -bench BenchmarkClusterDispatch .`; the end-to-end fleet
// numbers come from `bash vmatbench/run.sh --workload fleet-sweep`):
// distribution wins once units are expensive relative to the protocol.
func BenchmarkClusterDispatch(b *testing.B) {
	spec := service.Spec{ScenarioConfig: experiments.ScenarioConfig{
		N: 40, Topology: "geometric", Query: "min",
		Attack: "drop", Malicious: 1,
		Trials: 4, Seed: 7, Workers: 1,
	}}
	const batch = 6

	runBatch := func(b *testing.B, mgr *service.Manager) {
		b.Helper()
		jobs := make([]*service.Job, 0, batch)
		for i := 0; i < batch; i++ {
			job, err := mgr.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			jobs = append(jobs, job)
		}
		for _, job := range jobs {
			<-job.Done()
			if job.Status() != service.StatusDone {
				b.Fatalf("job finished %s: %s", job.Status(), job.Err())
			}
		}
	}

	b.Run("local-pool", func(b *testing.B) {
		mgr := service.New(service.Config{QueueSize: 2 * batch, Workers: 2, Retain: 2 * batch, Metrics: metrics.New()})
		defer mgr.Drain(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatch(b, mgr)
		}
	})

	b.Run("two-workers", func(b *testing.B) {
		coord := cluster.NewCoordinator(cluster.CoordinatorConfig{Metrics: metrics.New()})
		defer coord.Close()
		if _, err := coord.StartWire("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		mux := http.NewServeMux()
		cluster.RegisterHTTP(mux, coord)
		srv := httptest.NewServer(mux)
		defer srv.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		for i := 0; i < 2; i++ {
			w := cluster.NewWorker(cluster.WorkerConfig{Server: srv.URL, Name: fmt.Sprintf("bench-%d", i)})
			go w.Run(ctx)
		}
		for coord.WorkersStatus().WireConnected < 2 {
			time.Sleep(time.Millisecond)
		}
		mgr := service.New(service.Config{QueueSize: 2 * batch, Workers: 2 * batch, Retain: 2 * batch, Metrics: metrics.New(), Cluster: coord})
		defer mgr.Drain(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runBatch(b, mgr)
		}
	})
}

// BenchmarkShardGranularity measures the sharded streaming fabric's
// reason to exist: ONE large scenario (1024 trials, spec.Workers=1 so a
// single job cannot parallelize inside the trial loop) dispatched to
// wire-streaming fleets of 1/2/4 workers at shard granularities
// whole/64/256/1024 trials, against the serial local pool. Whole-unit
// dispatch cannot beat local no matter the fleet size — one unit, one
// worker — while 64-trial shards spread the same scenario across every
// conn; the gap between shard sizes prices the per-unit protocol
// overhead (grant + completion + merge) against lost parallelism.
func BenchmarkShardGranularity(b *testing.B) {
	spec := service.Spec{ScenarioConfig: experiments.ScenarioConfig{
		N: 24, Topology: "line", Query: "min", Attack: "none",
		Trials: 1024, Seed: 2011, Workers: 1,
	}}

	runOne := func(b *testing.B, mgr *service.Manager) {
		b.Helper()
		job, err := mgr.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if job.Status() != service.StatusDone {
			b.Fatalf("job finished %s: %s", job.Status(), job.Err())
		}
	}

	b.Run("local-serial", func(b *testing.B) {
		mgr := service.New(service.Config{QueueSize: 4, Workers: 1, Retain: 4, Metrics: metrics.New()})
		defer mgr.Drain(context.Background())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runOne(b, mgr)
		}
	})

	for _, sh := range []int{0, 64, 256, 1024} {
		for _, nw := range []int{1, 2, 4} {
			name := fmt.Sprintf("shard=%d/workers=%d", sh, nw)
			if sh == 0 {
				name = fmt.Sprintf("shard=whole/workers=%d", nw)
			}
			b.Run(name, func(b *testing.B) {
				coord := cluster.NewCoordinator(cluster.CoordinatorConfig{ShardTrials: sh, Metrics: metrics.New()})
				defer coord.Close()
				if _, err := coord.StartWire("127.0.0.1:0"); err != nil {
					b.Fatal(err)
				}
				mux := http.NewServeMux()
				cluster.RegisterHTTP(mux, coord)
				srv := httptest.NewServer(mux)
				defer srv.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				for i := 0; i < nw; i++ {
					w := cluster.NewWorker(cluster.WorkerConfig{Server: srv.URL, Name: fmt.Sprintf("bench-%d", i)})
					go w.Run(ctx)
				}
				for coord.WorkersStatus().WireConnected < nw {
					time.Sleep(time.Millisecond)
				}
				mgr := service.New(service.Config{QueueSize: 4, Workers: 4, Retain: 4, Metrics: metrics.New(), Cluster: coord})
				defer mgr.Drain(context.Background())
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					runOne(b, mgr)
				}
			})
		}
	}
}

// benchController writes a keyfile with n tenants t0..t(n-1), keys
// key-0..key-(n-1), weights cycling 1..4, and returns the controller
// plus the resolved tenants.
func benchController(b *testing.B, n int) (*tenant.Controller, []*tenant.Tenant) {
	b.Helper()
	doc := `{"tenants": [`
	for i := 0; i < n; i++ {
		if i > 0 {
			doc += ","
		}
		doc += fmt.Sprintf(`{"id": "t%d", "key": "key-%d", "weight": %d}`, i, i, i%4+1)
	}
	doc += `]}`
	path := filepath.Join(b.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		b.Fatal(err)
	}
	ctl, err := tenant.NewController(tenant.Config{Path: path, Metrics: metrics.New()})
	if err != nil {
		b.Fatal(err)
	}
	tenants := make([]*tenant.Tenant, n)
	for i := range tenants {
		t, err := ctl.Authenticate(fmt.Sprintf("key-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		tenants[i] = t
	}
	return ctl, tenants
}

// BenchmarkTenantAdmission prices the multi-tenant front door
// in-process (`go test -bench BenchmarkTenantAdmission .`; the
// end-to-end front-door numbers come from `bash vmatbench/run.sh
// --workload warm-hits`):
//
//   - overhead/{open,keyed} is the admission tax: the same cache-warm
//     job submitted through a nil-keyfile manager (pre-tenancy path)
//     vs through authentication + rate bucket + fair queue. The
//     acceptance bar is keyed within 5% of open.
//   - saturation/tenants={1,8} drives a saturated single-worker queue
//     with 8 cache-warm jobs per iteration from 1 vs 8 tenants, with
//     queue-full retries — the end-to-end cost of contention at the
//     front door.
//   - drain-fairness/tenants=8 fills per-tenant backlogs (weights
//     cycling 1..4) and pops under deficit round robin, reporting each
//     tenant's drain share relative to its weight share; every tenant
//     must land within 2x (fair_min/fair_max ratios).
func BenchmarkTenantAdmission(b *testing.B) {
	spec := service.Spec{ScenarioConfig: experiments.ScenarioConfig{
		N: 30, Topology: "geometric", Query: "min",
		Attack: "drop", Malicious: 1,
		Trials: 2, Seed: 7, Workers: 1,
	}}

	// warmManager returns a manager whose store already holds spec's
	// result, so every benchmarked submission is a store hit and the
	// numbers price admission, not the engine.
	warmManager := func(b *testing.B, ctl *tenant.Controller) *service.Manager {
		b.Helper()
		st, err := store.Open(b.TempDir(), store.Config{DisableFsync: true})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { st.Close() })
		mgr := service.New(service.Config{QueueSize: 8, Workers: 1, Retain: 16, Metrics: metrics.New(), Store: st, Tenants: ctl})
		b.Cleanup(func() { mgr.Drain(context.Background()) })
		job, err := mgr.Submit(spec)
		if err != nil {
			b.Fatal(err)
		}
		<-job.Done()
		if job.Status() != service.StatusDone {
			b.Fatalf("priming job finished %s: %s", job.Status(), job.Err())
		}
		return mgr
	}

	b.Run("overhead/open", func(b *testing.B) {
		mgr := warmManager(b, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := mgr.Submit(spec)
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
		}
	})

	b.Run("overhead/keyed", func(b *testing.B) {
		ctl, tenants := benchController(b, 1)
		mgr := warmManager(b, ctl)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := mgr.SubmitAs(tenants[0], spec)
			if err != nil {
				b.Fatal(err)
			}
			<-job.Done()
		}
	})

	for _, nt := range []int{1, 8} {
		b.Run(fmt.Sprintf("saturation/tenants=%d", nt), func(b *testing.B) {
			ctl, tenants := benchController(b, nt)
			mgr := warmManager(b, ctl)
			const batch = 8
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				jobs := make([]*service.Job, 0, batch)
				for j := 0; j < batch; j++ {
					for {
						job, err := mgr.SubmitAs(tenants[j%nt], spec)
						if err == nil {
							jobs = append(jobs, job)
							break
						}
						if !errors.Is(err, service.ErrQueueFull) {
							b.Fatal(err)
						}
						time.Sleep(100 * time.Microsecond) // saturated: wait a slot out
					}
				}
				for _, job := range jobs {
					<-job.Done()
				}
			}
		})
	}

	b.Run("drain-fairness/tenants=8", func(b *testing.B) {
		ctl, tenants := benchController(b, 8)
		const perTenant, pops = 16, 64
		totalWeight := 0
		for _, t := range tenants {
			totalWeight += t.Weight()
		}
		minRatio, maxRatio := 1.0, 1.0
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q := tenant.NewQueue[int](ctl, tenant.QueueConfig{Capacity: 256})
			for ti, t := range tenants {
				for j := 0; j < perTenant; j++ {
					if err := q.Push(t, ti); err != nil {
						b.Fatal(err)
					}
				}
			}
			counts := make([]int, len(tenants))
			for j := 0; j < pops; j++ {
				ti, ok := q.Pop()
				if !ok {
					b.Fatal("queue drained early")
				}
				counts[ti]++
			}
			for ti, c := range counts {
				expected := float64(pops) * float64(tenants[ti].Weight()) / float64(totalWeight)
				ratio := float64(c) / expected
				if ratio < minRatio {
					minRatio = ratio
				}
				if ratio > maxRatio {
					maxRatio = ratio
				}
				if ratio < 0.5 || ratio > 2 {
					b.Fatalf("tenant t%d drained %d of %d pops, expected ~%.1f (ratio %.2f outside 2x)", ti, c, pops, expected, ratio)
				}
			}
			q.Close()
		}
		b.ReportMetric(minRatio, "fair_min_ratio")
		b.ReportMetric(maxRatio, "fair_max_ratio")
	})
}

// --- micro-benchmarks ---

func BenchmarkComputeMAC(b *testing.B) {
	key := crypto.KeyFromUint64(1)
	payload := make([]byte, 24)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		crypto.ComputeMAC(key, payload)
	}
}

func BenchmarkSynopsisGenerate(b *testing.B) {
	nonce := []byte("bench-nonce")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		synopsis.Generate(nonce, topology.NodeID(i%1000+1), 1, i%100)
	}
}

func benchEnv(b *testing.B, n int, seed uint64) core.Config {
	b.Helper()
	rng := crypto.NewStreamFromSeed(seed)
	g, _ := topology.RandomGeometric(n, 0.25, rng.Fork([]byte("topo")))
	dep, err := keydist.NewDeployment(n, keydist.Params{PoolSize: 5000, RingSize: 220},
		crypto.KeyFromUint64(seed), rng.Fork([]byte("keys")))
	if err != nil {
		b.Fatal(err)
	}
	return core.Config{
		Graph:      g,
		Deployment: dep,
		Readings: func(id topology.NodeID, _ int) float64 {
			if id == topology.BaseStation {
				return core.Inf()
			}
			return 100 + float64(id)
		},
		Seed: seed,
	}
}

func BenchmarkHonestMinExecution(b *testing.B) {
	cfg := benchEnv(b, 80, 99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		out, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if out.Kind != core.OutcomeResult {
			b.Fatalf("outcome %v", out.Kind)
		}
	}
}

// BenchmarkAuthFlood prices the simulator's per-message path: one
// authenticated broadcast flood over benchEnv's 80-node graph, in which
// every node relays the announcement once, on a network reused across
// floods. The adversary-first case installs the inbox order an engine
// with AdversaryFavored uses.
func BenchmarkAuthFlood(b *testing.B) {
	g := benchEnv(b, 80, 99).Graph
	ch := authbcast.NewChannel(crypto.KeyFromUint64(99))
	a := ch.Announce(core.StartAnnounce{Nonce: []byte("bench-nonce"), Instances: 1, L: 10})
	orders := []struct {
		name  string
		first map[topology.NodeID]bool
	}{
		{"default", nil},
		{"adversary-first", map[topology.NodeID]bool{7: true, 40: true}},
	}
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			net := simnet.New(g, simnet.Config{FirstFrom: o.first})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := authbcast.Flood(net, ch.Verifier(), topology.BaseStation, a, nil, g.NumNodes())
				if !slices.Contains(res.Received[1:], true) {
					b.Fatal("the flood reached no node")
				}
			}
		})
	}
}

func BenchmarkCountQuery100Synopses(b *testing.B) {
	cfg := benchEnv(b, 80, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.RunCount(cfg, func(id topology.NodeID) bool { return true }, 100)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Answered() {
			b.Fatal("count did not answer")
		}
	}
}

func BenchmarkEnvelopeSealOpen(b *testing.B) {
	key := crypto.NewMACKey(crypto.KeyFromUint64(7))
	msg := core.AggMsg{Records: make([]core.Record, 100)} // a 2.4KB aggregate
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := core.Seal(5, &key, 1, 2, msg)
		if _, ok := env.Open(&key, 1, 2); !ok {
			b.Fatal("open failed")
		}
	}
}

func BenchmarkKeyDeploymentPaperScale(b *testing.B) {
	// One Eschenauer-Gligor deployment at the paper's Figure 7 scale:
	// 1,000 sensors x 250-key rings from a 100,000-key pool.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := keydist.NewDeployment(1000, keydist.PaperParams(),
			crypto.KeyFromUint64(uint64(i)), crypto.NewStreamFromSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSHIAExecution(b *testing.B) {
	g := topology.Grid(8, 8)
	dep, err := keydist.NewDeployment(64, keydist.Params{PoolSize: 500, RingSize: 60},
		crypto.KeyFromUint64(8), crypto.NewStreamFromSeed(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := &baseline.SHIA{
			Graph:      g,
			Deployment: dep,
			Readings:   func(id topology.NodeID) int64 { return int64(id) },
			Seed:       uint64(i),
		}
		if res := s.Run(); res.Alarm {
			b.Fatal("honest SHIA alarmed")
		}
	}
}

func BenchmarkFullPinpointingRun(b *testing.B) {
	// A deterministic dropping attack end to end, including the predicate
	//-test binary searches and the revocation broadcast.
	g := topology.New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 4)
	g.AddEdge(1, 3)
	g.AddEdge(3, 5)
	g.AddEdge(5, 4)
	rng := crypto.NewStreamFromSeed(101)
	dep, err := keydist.NewDeployment(6, keydist.Params{PoolSize: 600, RingSize: 90},
		crypto.KeyFromUint64(101), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := core.Config{
			Graph:      g,
			Deployment: dep,
			Malicious:  map[topology.NodeID]bool{2: true},
			Adversary:  adversary.NewDropper(50),
			Seed:       uint64(i),
			Readings: func(id topology.NodeID, _ int) float64 {
				switch id {
				case 0:
					return core.Inf()
				case 4:
					return 1
				default:
					return 100 + float64(id)
				}
			},
		}
		eng, err := core.NewEngine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		out, err := eng.Run()
		if err != nil {
			b.Fatal(err)
		}
		if out.Kind != core.OutcomeVetoRevocation {
			b.Fatalf("outcome %v", out.Kind)
		}
	}
}

// populateStore fills a fresh store directory with n small entries
// (fsync off — this is bulk load) and closes it cleanly, leaving an
// index snapshot behind. Keys are 64-hex strings like real content
// addresses.
func populateStore(b *testing.B, n int) string {
	b.Helper()
	dir := b.TempDir()
	s, err := store.Open(dir, store.Config{DisableFsync: true, CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%064x", i)
		if err := s.Put(key, "bench", [3]int64{int64(i), int64(i * 7), 42}, store.Meta{}); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkStoreReopen measures open-time over a populated store at
// three scales, both ways: via the index snapshot (one binary load plus
// tail replay) and via full journal replay (snapshot deleted first).
// The ratio between the two is the snapshot's reason to exist — the
// acceptance bar is ≥10x at the million-entry scale.
func BenchmarkStoreReopen(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		dir := populateStore(b, n)
		b.Run(fmt.Sprintf("snapshot/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := store.Open(dir, store.Config{DisableFsync: true})
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != n {
					b.Fatalf("reopened %d entries, want %d", s.Len(), n)
				}
				b.StopTimer()
				s.Close()
				b.StartTimer()
			}
		})
		b.Run(fmt.Sprintf("replay/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				os.Remove(filepath.Join(dir, store.SnapshotName))
				b.StartTimer()
				s, err := store.Open(dir, store.Config{DisableFsync: true})
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != n {
					b.Fatalf("reopened %d entries, want %d", s.Len(), n)
				}
				b.StopTimer()
				s.Close() // rewrites the snapshot; removed again above
				b.StartTimer()
			}
		})
	}
}

// BenchmarkStoreHitLatency measures a warm store hit — index lookup
// plus segment read plus record decode — across scales, cycling keys so
// most lookups miss the small LRU and pay the real disk path.
func BenchmarkStoreHitLatency(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		dir := populateStore(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, err := store.Open(dir, store.Config{DisableFsync: true})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				key := fmt.Sprintf("%064x", i%n)
				if _, ok, err := s.Get(key); !ok || err != nil {
					b.Fatalf("Get(%s): ok=%v err=%v", key, ok, err)
				}
			}
			// Close rewrites the O(n) index snapshot — keep it out of
			// the per-Get numbers.
			b.StopTimer()
			s.Close()
		})
	}
}
