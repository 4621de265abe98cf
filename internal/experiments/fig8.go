package experiments

import (
	"math"

	"repro/internal/crypto"
	"repro/internal/synopsis"
	"repro/internal/topology"
)

// Fig8Config parameterizes the Figure 8 reproduction: the relative error
// of converting a predicate COUNT to MIN queries over m exponential
// synopses.
type Fig8Config struct {
	// Synopses is m (the paper uses 100).
	Synopses int
	// Counts are the true predicate-count values to sweep.
	Counts []int
	// Trials per count value (the paper uses 200).
	Trials int
	// Unbiased switches to the (m-1)/sum estimator (ablation).
	Unbiased bool
	// Seed drives the per-trial nonces.
	Seed uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultFig8 returns the paper's configuration.
func DefaultFig8() Fig8Config {
	return Fig8Config{
		Synopses: 100,
		Counts:   []int{10, 30, 100, 300, 1000, 3000, 10000},
		Trials:   200,
		Seed:     2011,
	}
}

// QuickFig8 is the -quick tier: counts 10, 100 and 1,000, 50 trials each.
func QuickFig8() Fig8Config {
	cfg := DefaultFig8()
	cfg.Trials = 50
	cfg.Counts = []int{10, 100, 1000}
	return cfg
}

// Fig8Row is one point of Figure 8: the error distribution for one true
// count value.
type Fig8Row struct {
	Count   int
	Average float64
	P50     float64
	P90     float64
	P95     float64
	P99     float64
}

// RunFig8 reproduces Figure 8 by direct simulation of the synopsis
// scheme: per trial, every one of Count sensors derives its m
// deterministic Exp(1) synopses from a fresh query nonce; the estimator
// runs on the per-instance minima and the relative error is recorded.
func RunFig8(cfg Fig8Config) []Fig8Row {
	rows := make([]Fig8Row, 0, len(cfg.Counts))
	for _, count := range cfg.Counts {
		// The per-trial closure is a pure function of its pre-derived
		// stream, so the error below is impossible; RunTrials is still the
		// single scheduling path for every driver.
		errs, _ := RunTrials(subSeed(cfg.Seed, "fig8", uint64(count)),
			cfg.Trials, cfg.Workers,
			func(_ int, rng *crypto.Stream) (float64, error) {
				nonce := crypto.Uint64(rng.Uint64())
				// Track per-instance minima as raw 53-bit draws: the
				// draw-to-synopsis map is monotone, so the element-wise
				// minimum commutes with it and one conversion per instance
				// at the end replaces a logarithm per (sensor, instance)
				// pair. This sweep is the experiment's entire cost — m×Count
				// derivations per trial.
				g := synopsis.NewGenerator(nonce, 1)
				minU := make([]uint64, cfg.Synopses)
				for i := range minU {
					minU[i] = math.MaxUint64
				}
				for id := 1; id <= count; id++ {
					for i := range minU {
						if u := g.U53(topology.NodeID(id), i); u < minU[i] {
							minU[i] = u
						}
					}
				}
				mins := make([]float64, cfg.Synopses)
				for i, u := range minU {
					if u == math.MaxUint64 {
						mins[i] = synopsis.None()
					} else {
						mins[i] = g.ValueFromU53(u)
					}
				}
				est := synopsis.EstimateSum(mins)
				if cfg.Unbiased {
					est = synopsis.EstimateSumUnbiased(mins)
				}
				return synopsis.RelativeError(est, float64(count)), nil
			})
		rows = append(rows, Fig8Row{
			Count:   count,
			Average: mean(errs),
			P50:     percentile(errs, 50),
			P90:     percentile(errs, 90),
			P95:     percentile(errs, 95),
			P99:     percentile(errs, 99),
		})
	}
	return rows
}

// MSweepConfig parameterizes the synopsis-count ablation: how the
// COUNT->MIN approximation error scales with m, the knob behind the
// paper's m = Theta(eps^-2 log delta^-1) guarantee (Section VIII).
type MSweepConfig struct {
	// Count is the fixed true predicate count.
	Count int
	// Ms are the synopsis counts to sweep.
	Ms []int
	// Trials per m.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS.
	Workers int
}

// DefaultMSweep returns the default ablation.
func DefaultMSweep() MSweepConfig {
	return MSweepConfig{Count: 500, Ms: []int{25, 50, 100, 200, 400}, Trials: 200, Seed: 2011}
}

// QuickMSweep is the -quick tier: 40 trials per m.
func QuickMSweep() MSweepConfig {
	cfg := DefaultMSweep()
	cfg.Trials = 40
	return cfg
}

// MSweepRow is one synopsis count's error distribution.
type MSweepRow struct {
	M       int
	Average float64
	P90     float64
	// Bytes is the resulting aggregation-message size (24 bytes per
	// synopsis), the cost side of the tradeoff.
	Bytes int
}

// RunMSweep executes the ablation. The expected shape is the standard
// sketch behavior: error shrinks like 1/sqrt(m) while message size grows
// linearly in m.
func RunMSweep(cfg MSweepConfig) []MSweepRow {
	rows := make([]MSweepRow, 0, len(cfg.Ms))
	for _, m := range cfg.Ms {
		sub := RunFig8(Fig8Config{
			Synopses: m,
			Counts:   []int{cfg.Count},
			Trials:   cfg.Trials,
			Seed:     cfg.Seed + uint64(m),
			Workers:  cfg.Workers,
		})
		rows = append(rows, MSweepRow{
			M:       m,
			Average: sub[0].Average,
			P90:     sub[0].P90,
			Bytes:   24 * m,
		})
	}
	return rows
}

// MSweepTable renders the ablation.
func MSweepTable(rows []MSweepRow, count int) *Table {
	t := &Table{
		Title:   "Section VIII ablation: error vs synopsis count m (true count " + d(count) + ")",
		Columns: []string{"m", "avg_rel_err", "p90", "agg_msg_bytes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.M), f4(r.Average), f4(r.P90), d(r.Bytes)})
	}
	return t
}

// Fig8Table renders the rows as the paper's figure series.
func Fig8Table(rows []Fig8Row, synopses int) *Table {
	t := &Table{
		Title:   "Figure 8: COUNT->MIN approximation error (" + d(synopses) + " synopses)",
		Columns: []string{"count", "avg_rel_err", "p50", "p90", "p95", "p99"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.Count), f4(r.Average), f4(r.P50), f4(r.P90), f4(r.P95), f4(r.P99),
		})
	}
	return t
}
