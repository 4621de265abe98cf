package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/faults"
	"repro/internal/simnet"
)

// FaultsConfig parameterizes the graceful-degradation sweep: how
// availability (any result returned) and correctness (the planted
// minimum survives) fall off as node-crash churn and bursty
// Gilbert–Elliott loss grow, for single-path versus ring-based
// multi-path aggregation, with the link-layer ARQ enabled throughout.
// The paper assumes reliable links and a static sensor population; this
// sweep measures what its protocols deliver when those assumptions break
// and the engine degrades to explicit partial results instead.
type FaultsConfig struct {
	// N is the network size.
	N int
	// CrashProbs are the per-node per-slot crash probabilities to sweep
	// (crashed sensors recover with probability 0.05 per slot).
	CrashProbs []float64
	// BurstLoss are the bad-state loss rates of the Gilbert–Elliott
	// chain to sweep (0 disables the chain; enter/exit probabilities are
	// fixed at 0.05/0.2).
	BurstLoss []float64
	// Trials per (crash, burst) cell.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultFaults returns the default sweep.
func DefaultFaults() FaultsConfig {
	return FaultsConfig{
		N:          60,
		CrashProbs: []float64{0, 0.002, 0.005},
		BurstLoss:  []float64{0, 0.5},
		Trials:     8,
		Seed:       2011,
	}
}

// QuickFaults is the -quick tier: 40 sensors, a 2x2 grid of crash and
// burst rates, 3 trials per cell.
func QuickFaults() FaultsConfig {
	cfg := DefaultFaults()
	cfg.N = 40
	cfg.CrashProbs = []float64{0, 0.005}
	cfg.Trials = 3
	return cfg
}

// FaultsRow aggregates one (crash probability, burst loss) cell.
type FaultsRow struct {
	CrashProb float64
	BurstLoss float64
	Trials    int
	// Answered counts trials that returned a result at all (possibly
	// partial); Correct counts trials whose result was the exact planted
	// minimum, per aggregation mode.
	SingleAnswered int
	SingleCorrect  int
	MultiAnswered  int
	MultiCorrect   int
	// AvgUnreachable and AvgRetransmits average the per-trial
	// unreachable-sensor count at answer time and the link-layer
	// retransmissions, across both aggregation modes.
	AvgUnreachable float64
	AvgRetransmits float64
}

// RunFaults executes the sweep.
func RunFaults(cfg FaultsConfig) ([]FaultsRow, error) {
	type faultsTrial struct {
		singleAnswered, singleCorrect bool
		multiAnswered, multiCorrect   bool
		unreachable                   int
		retransmits                   int64
	}
	rows := make([]FaultsRow, 0, len(cfg.CrashProbs)*len(cfg.BurstLoss))
	cell := 0
	for _, crash := range cfg.CrashProbs {
		for _, burst := range cfg.BurstLoss {
			spec := &faults.Spec{}
			if crash > 0 {
				spec.CrashProb = crash
				spec.RecoverProb = 0.05
			}
			if burst > 0 {
				spec.Burst = &faults.BurstSpec{EnterProb: 0.05, ExitProb: 0.2, LossBad: burst}
			}
			trials, err := RunTrials(subSeed(cfg.Seed, "faults", uint64(cell)),
				cfg.Trials, cfg.Workers,
				func(trial int, _ *crypto.Stream) (faultsTrial, error) {
					var tr faultsTrial
					env, err := newProtoEnv(cfg.N, denseProtoParams, cfg.Seed+uint64(trial*37+3))
					if err != nil {
						return tr, err
					}
					// Plant the minimum at the deepest sensor: its value
					// crosses the most hops, so it is the first casualty of
					// crash churn and burst loss on the way to the base.
					minHolder := farthestHonest(env, nil)
					for _, multipath := range []bool{false, true} {
						base := env.baseConfig(minHolder, 1)
						base.Multipath = multipath
						base.Faults = spec
						base.ARQ = &simnet.ARQConfig{}
						base.Seed = env.seed ^ uint64(trial)
						eng, err := core.NewEngine(base)
						if err != nil {
							return tr, err
						}
						out, err := eng.Run()
						if err != nil {
							return tr, err
						}
						// A result whose minimum is +Inf means no sensor value
						// reached the base at all — count it as unanswered, not
						// as an available (if wrong) aggregate.
						answered := out.Kind == core.OutcomeResult && !math.IsInf(out.Mins[0], 0)
						correct := answered && out.Mins[0] == 1
						if multipath {
							tr.multiAnswered, tr.multiCorrect = answered, correct
						} else {
							tr.singleAnswered, tr.singleCorrect = answered, correct
						}
						tr.unreachable += out.Unreachable
						tr.retransmits += out.Stats.Retransmits
					}
					return tr, nil
				})
			if err != nil {
				return nil, err
			}
			row := FaultsRow{CrashProb: crash, BurstLoss: burst, Trials: cfg.Trials}
			var unreachable, retransmits int64
			for _, tr := range trials {
				if tr.singleAnswered {
					row.SingleAnswered++
				}
				if tr.singleCorrect {
					row.SingleCorrect++
				}
				if tr.multiAnswered {
					row.MultiAnswered++
				}
				if tr.multiCorrect {
					row.MultiCorrect++
				}
				unreachable += int64(tr.unreachable)
				retransmits += tr.retransmits
			}
			denom := float64(2 * cfg.Trials)
			row.AvgUnreachable = float64(unreachable) / denom
			row.AvgRetransmits = float64(retransmits) / denom
			rows = append(rows, row)
			cell++
		}
	}
	return rows, nil
}

// FaultsTable renders the sweep.
func FaultsTable(rows []FaultsRow) *Table {
	t := &Table{
		Title:   "Graceful degradation: availability and exact-minimum rate under crash churn and burst loss (ARQ on)",
		Columns: []string{"crash_prob", "burst_loss", "trials", "single_answered", "single_correct", "multi_answered", "multi_correct", "avg_unreachable", "avg_retransmits"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.3f", r.CrashProb), f2(r.BurstLoss), d(r.Trials),
			d(r.SingleAnswered), d(r.SingleCorrect), d(r.MultiAnswered), d(r.MultiCorrect),
			f2(r.AvgUnreachable), f2(r.AvgRetransmits),
		})
	}
	return t
}
