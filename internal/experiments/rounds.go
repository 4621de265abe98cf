package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/topology"
)

// RoundsConfig parameterizes the flooding-round comparison of Section I:
// VMAT answers in O(1) flooding rounds while the sampling-based protocol
// of Yu [29] needs Omega(log n) sequential rounds.
type RoundsConfig struct {
	NetworkSizes []int
	// Repeats is the set-sampling repeat budget per density level.
	Repeats int
	Seed    uint64
	// Workers caps parallelism across network sizes; 0 uses GOMAXPROCS.
	// Results are identical for every worker count.
	Workers int
}

// DefaultRounds returns the default sweep.
func DefaultRounds() RoundsConfig {
	return RoundsConfig{NetworkSizes: []int{50, 100, 200, 400, 800, 1600}, Repeats: 3, Seed: 2011}
}

// QuickRounds is the -quick tier: 50, 100 and 400 sensors.
func QuickRounds() RoundsConfig {
	cfg := DefaultRounds()
	cfg.NetworkSizes = []int{50, 100, 400}
	return cfg
}

// RoundsRow is one network size's comparison.
type RoundsRow struct {
	N int
	L int
	// VMATRounds is the happy-path VMAT execution cost in flooding
	// rounds (slots normalized by L).
	VMATRounds float64
	// SamplingRounds is the sequential flooding rounds of the
	// set-sampling estimator (two per keyed predicate test).
	SamplingRounds int
	// SamplingTests is the number of sequential tests behind it.
	SamplingTests int
}

// RunRounds executes the comparison.
func RunRounds(cfg RoundsConfig) ([]RoundsRow, error) {
	// One "trial" per network size: the sizes are independent runs, so
	// they fan out across workers like Monte-Carlo trials do.
	return RunTrials(subSeed(cfg.Seed, "rounds", 0),
		len(cfg.NetworkSizes), cfg.Workers,
		func(i int, _ *crypto.Stream) (RoundsRow, error) {
			n := cfg.NetworkSizes[i]
			env, err := newProtoEnv(n, denseProtoParams, cfg.Seed+uint64(n))
			if err != nil {
				return RoundsRow{}, err
			}
			eng, err := core.NewEngine(env.baseConfig(topology.NodeID(n-1), 1))
			if err != nil {
				return RoundsRow{}, err
			}
			out, err := eng.Run()
			if err != nil {
				return RoundsRow{}, err
			}
			ss := &baseline.SetSampling{Graph: env.graph, RepeatsPerLevel: cfg.Repeats, Seed: cfg.Seed}
			sres := ss.Run(func(id topology.NodeID) bool { return id != topology.BaseStation })
			return RoundsRow{
				N:              n,
				L:              eng.L(),
				VMATRounds:     out.FloodingRounds,
				SamplingRounds: sres.FloodingRounds,
				SamplingTests:  sres.Tests,
			}, nil
		})
}

// RoundsTable renders the comparison.
func RoundsTable(rows []RoundsRow) *Table {
	t := &Table{
		Title:   "Section I: flooding rounds per query, VMAT O(1) vs set-sampling Omega(log n)",
		Columns: []string{"n", "L", "vmat_rounds", "sampling_rounds", "sampling_tests"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.N), d(r.L), f2(r.VMATRounds), d(r.SamplingRounds), d(r.SamplingTests)})
	}
	return t
}
