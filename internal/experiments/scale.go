package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/keydist"
	"repro/internal/topology"
)

// ScaleConfig parameterizes the scale experiment: full VMAT MIN queries
// over grid deployments far beyond the paper's evaluation sizes, probing
// the simulator's capacity ceiling rather than protocol behavior. The
// event-loop simnet core makes this feasible — per-slot cost tracks
// traffic, not network size, and per-node state is flat arrays — where
// the goroutine-per-execution fan-out previously made million-node runs
// unreachable.
type ScaleConfig struct {
	// Sizes are the target node counts; each is rounded up to a full
	// grid square (the base station at one corner, the worst-case depth
	// position).
	Sizes []int
	// Seed drives the deployment and readings.
	Seed uint64
}

// DefaultScale sweeps 10k, 100k, and 1M sensors.
func DefaultScale() ScaleConfig {
	return ScaleConfig{Sizes: []int{10_000, 100_000, 1_000_000}, Seed: 2011}
}

// QuickScale is the CI-sized tier: 10k and 100k sensors.
func QuickScale() ScaleConfig {
	return ScaleConfig{Sizes: []int{10_000, 100_000}, Seed: 2011}
}

// scaleParams is the key pre-distribution for capacity runs: a small
// pool with r^2/u = 8 expected shared keys per neighbor pair, so the
// secure graph loses a negligible fraction of grid edges (P[no shared
// key] ~ e^-8) while ring storage stays ~0.5 GB at a million sensors.
// Capacity probing wants the protocol executed at full fidelity, not the
// paper's resilience parameterization (which at this scale would spend
// gigabytes on rings alone).
func scaleParams() keydist.Params { return keydist.Params{PoolSize: 512, RingSize: 64} }

// ScaleRow is one network size's capacity measurement.
type ScaleRow struct {
	// N is the actual node count (grid side squared); L the depth bound.
	N int
	L int
	// Outcome and Answer report the query result (the deterministic
	// minimum reading), witnessing that the full protocol ran.
	Outcome string
	Answer  float64
	// Slots and TotalMB are the execution's simulated cost.
	Slots   int
	TotalMB float64
	// BuildSeconds covers topology plus key pre-distribution;
	// RunSeconds the engine execution (announce through confirmation).
	BuildSeconds float64
	RunSeconds   float64
	// HeapMB is the live heap after the run; PeakRSSMB the process peak
	// resident set so far (monotone across rows — the largest size's row
	// is the meaningful one; 0 where the platform cannot report it).
	HeapMB    float64
	PeakRSSMB float64
}

// RunScale executes one full MIN query per network size and reports
// wall-clock and memory alongside the simulated cost. Unlike the other
// experiment drivers its rows are machine-dependent by design, so they
// are never content-cached or golden-pinned; the protocol outputs
// (outcome, answer, slots, bytes) are still deterministic per seed.
func RunScale(cfg ScaleConfig) ([]ScaleRow, error) {
	rows := make([]ScaleRow, 0, len(cfg.Sizes))
	for _, size := range cfg.Sizes {
		row, err := runScaleOne(cfg, size)
		if err != nil {
			return rows, fmt.Errorf("scale %d: %w", size, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func runScaleOne(cfg ScaleConfig, size int) (ScaleRow, error) {
	side := int(math.Ceil(math.Sqrt(float64(size))))
	n := side * side

	buildStart := time.Now()
	g := topology.Grid(side, side)
	rng := crypto.NewStreamFromSeed(subSeed(cfg.Seed, "scale", uint64(n)))
	dep, err := keydist.NewDeployment(n, scaleParams(), crypto.KeyFromUint64(cfg.Seed), rng)
	if err != nil {
		return ScaleRow{}, err
	}
	buildSeconds := time.Since(buildStart).Seconds()

	readings := func(id topology.NodeID, _ int) float64 {
		// A fixed multiplicative hash spreads readings deterministically;
		// the query's answer is the minimum over all sensors.
		return float64(1 + (uint64(id)*2654435761)%1_000_000)
	}
	runStart := time.Now()
	eng, err := core.NewEngine(core.Config{
		Graph:      g,
		Deployment: dep,
		Readings:   readings,
		Seed:       subSeed(cfg.Seed, "scale-query", uint64(n)),
	})
	if err != nil {
		return ScaleRow{}, err
	}
	out, err := eng.Run()
	if err != nil {
		return ScaleRow{}, err
	}
	runSeconds := time.Since(runStart).Seconds()

	answer := math.NaN()
	if len(out.Mins) > 0 {
		answer = out.Mins[0]
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ScaleRow{
		N:            n,
		L:            eng.L(),
		Outcome:      out.Kind.String(),
		Answer:       answer,
		Slots:        out.Slots,
		TotalMB:      float64(out.Stats.TotalBytes()) / (1 << 20),
		BuildSeconds: buildSeconds,
		RunSeconds:   runSeconds,
		HeapMB:       float64(ms.HeapAlloc) / (1 << 20),
		PeakRSSMB:    peakRSSMB(),
	}, nil
}

// ScaleTable renders the capacity sweep.
func ScaleTable(rows []ScaleRow) *Table {
	t := &Table{
		Title: "Scale: full MIN query on grid deployments (event-loop simnet core)",
		Columns: []string{
			"n", "L", "outcome", "answer", "slots", "sim_traffic_mb",
			"build_s", "run_s", "heap_mb", "peak_rss_mb",
		},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.N), d(r.L), r.Outcome, f4(r.Answer), d(r.Slots), f4(r.TotalMB),
			f4(r.BuildSeconds), f4(r.RunSeconds), f4(r.HeapMB), f4(r.PeakRSSMB),
		})
	}
	return t
}
