package experiments

import (
	"repro/internal/core"
	"repro/internal/crypto"
)

// LossConfig parameterizes the multi-path ablation of Section IV-D: how
// single-path and ring-based multi-path aggregation cope with residual
// radio loss. The paper adopts synopsis-diffusion-style multi-path
// aggregation precisely because it "helps to route around failed
// parent[s]"; this experiment quantifies the effect the design buys.
type LossConfig struct {
	// N is the network size.
	N int
	// LossRates to sweep.
	LossRates []float64
	// Trials per (rate, mode) cell.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultLoss returns the default sweep.
func DefaultLoss() LossConfig {
	return LossConfig{
		N:         100,
		LossRates: []float64{0, 0.01, 0.03, 0.05, 0.1, 0.2},
		Trials:    15,
		Seed:      2011,
	}
}

// QuickLoss is the -quick tier: 60 sensors, 5 trials per cell.
func QuickLoss() LossConfig {
	cfg := DefaultLoss()
	cfg.N = 60
	cfg.Trials = 5
	return cfg
}

// LossRow aggregates one loss rate.
type LossRow struct {
	LossRate float64
	// SingleCorrect and MultiCorrect count trials where the execution
	// returned the exact planted minimum under each aggregation mode.
	// With losses, a missing value manifests as a (false) veto and a
	// re-execution in practice; here the first execution's outcome is
	// scored.
	SingleCorrect int
	MultiCorrect  int
	Trials        int
}

// RunLoss executes the ablation.
func RunLoss(cfg LossConfig) ([]LossRow, error) {
	type lossTrial struct {
		singleCorrect bool
		multiCorrect  bool
	}
	rows := make([]LossRow, 0, len(cfg.LossRates))
	for rateIdx, rate := range cfg.LossRates {
		trials, err := RunTrials(subSeed(cfg.Seed, "loss", uint64(rateIdx)),
			cfg.Trials, cfg.Workers,
			func(trial int, _ *crypto.Stream) (lossTrial, error) {
				var tr lossTrial
				env, err := newProtoEnv(cfg.N, denseProtoParams, cfg.Seed+uint64(trial*31+1))
				if err != nil {
					return tr, err
				}
				// Plant the minimum at the deepest sensor: its value
				// crosses the most lossy hops, which is where multi-path
				// redundancy matters.
				minHolder := farthestHonest(env, nil)
				for _, multipath := range []bool{false, true} {
					base := env.baseConfig(minHolder, 1)
					base.Multipath = multipath
					base.LossRate = rate
					base.Seed = env.seed ^ uint64(trial)
					eng, err := core.NewEngine(base)
					if err != nil {
						return tr, err
					}
					out, err := eng.Run()
					if err != nil {
						return tr, err
					}
					correct := out.Kind == core.OutcomeResult && out.Mins[0] == 1
					if multipath {
						tr.multiCorrect = correct
					} else {
						tr.singleCorrect = correct
					}
				}
				return tr, nil
			})
		if err != nil {
			return nil, err
		}
		row := LossRow{LossRate: rate, Trials: cfg.Trials}
		for _, tr := range trials {
			if tr.singleCorrect {
				row.SingleCorrect++
			}
			if tr.multiCorrect {
				row.MultiCorrect++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// LossTable renders the ablation.
func LossTable(rows []LossRow) *Table {
	t := &Table{
		Title:   "Section IV-D ablation: exact-minimum delivery under radio loss",
		Columns: []string{"loss_rate", "trials", "single_path_correct", "multi_path_correct"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{f2(r.LossRate), d(r.Trials), d(r.SingleCorrect), d(r.MultiCorrect)})
	}
	return t
}
