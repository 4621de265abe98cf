// Command vmat-bench regenerates the paper's evaluation artifacts: every
// figure of Section IX plus the complexity-claim comparisons of Sections
// I and VII. Each experiment prints the same series the paper plots.
//
// Usage:
//
//	vmat-bench -exp fig7            # Figure 7 at paper scale
//	vmat-bench -exp fig8 -quick     # Figure 8, reduced trials
//	vmat-bench -exp all -quick      # everything, reduced scale
//	vmat-bench -exp scale           # simulator capacity sweep to 1M nodes
//
// Experiments: fig7, fig8, comm, rounds, pinpoint, campaign, wormhole,
// choking, faults, scale, all. The scale sweep measures this machine's
// wall clock and memory, so it is excluded from "all" (whose rows are
// deterministic and cacheable) and must be requested explicitly.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// the selected experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/keydist"
	"repro/internal/prof"
	"repro/internal/store"
)

// version is stamped by the Makefile via -ldflags "-X main.version=...".
var version = "dev"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmat-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmat-bench", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: fig7|fig8|msweep|comm|rounds|pinpoint|campaign|wormhole|choking|loss|avail|scenario|faults|scale|all (scale is not part of all)")
	quick := fs.Bool("quick", false, "reduced scale (fewer trials, smaller networks)")
	seed := fs.Uint64("seed", 2011, "simulation seed")
	workers := fs.Int("workers", 0, "parallel trial workers (0 = all cores); results are identical for any value")
	cacheDir := fs.String("cache-dir", "", "persist experiment rows in a content-addressed store under this directory; repeated runs print from disk")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	showVersion := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *showVersion {
		fmt.Fprintln(w, "vmat-bench", version)
		return nil
	}
	stopProfiles, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	var cache *benchCache
	if *cacheDir != "" {
		st, err := store.Open(*cacheDir, store.Config{})
		if err != nil {
			return fmt.Errorf("open cache: %w", err)
		}
		defer st.Close()
		cache = &benchCache{st: st}
	}

	runners := map[string]func() error{
		"fig7":     func() error { return runFig7(w, cache, *quick, *seed, *workers) },
		"fig8":     func() error { return runFig8(w, cache, *quick, *seed, *workers) },
		"comm":     func() error { return runComm(w, cache, *quick, *seed, *workers) },
		"rounds":   func() error { return runRounds(w, cache, *quick, *seed, *workers) },
		"pinpoint": func() error { return runPinpoint(w, cache, *quick, *seed, *workers) },
		"campaign": func() error { return runCampaign(w, cache, *quick, *seed, *workers) },
		"wormhole": func() error { return runWormhole(w, cache, *quick, *seed, *workers) },
		"choking":  func() error { return runChoking(w, cache, *quick, *seed, *workers) },
		"loss":     func() error { return runLoss(w, cache, *quick, *seed, *workers) },
		"avail":    func() error { return runAvailability(w, cache, *quick, *seed, *workers) },
		"msweep":   func() error { return runMSweep(w, cache, *quick, *seed, *workers) },
		"scenario": func() error { return runScenario(w, cache, *quick, *seed, *workers) },
		"faults":   func() error { return runFaults(w, cache, *quick, *seed, *workers) },
		"scale":    func() error { return runScale(w, *quick, *seed) },
	}
	if *exp == "all" {
		for _, name := range []string{"fig7", "fig8", "msweep", "comm", "rounds", "pinpoint", "campaign", "wormhole", "choking", "loss", "avail", "scenario", "faults"} {
			if err := runners[name](); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			fmt.Fprintln(w)
		}
		cacheSummary(w, cache)
		return nil
	}
	r, ok := runners[*exp]
	if !ok {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	if err := r(); err != nil {
		return err
	}
	cacheSummary(w, cache)
	return nil
}

// cacheSummary reports cache effectiveness for the run; a warm rerun
// shows zero misses, proving the tables came from the store.
func cacheSummary(w io.Writer, cache *benchCache) {
	if cache == nil {
		return
	}
	fmt.Fprintf(w, "cache: %d hits, %d misses (%d entries)\n",
		cache.hits, cache.misses, cache.st.Len())
}

func runFig7(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultFig7()
	if quick {
		cfg = experiments.QuickFig7()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "fig7", keyCfg, func() ([]experiments.Fig7Row, error) {
		return experiments.RunFig7(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.Fig7Table(rows).Write(w)
}

func runFig8(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultFig8()
	if quick {
		cfg = experiments.QuickFig8()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "fig8", keyCfg, func() ([]experiments.Fig8Row, error) {
		return experiments.RunFig8(cfg), nil
	})
	if err != nil {
		return err
	}
	return experiments.Fig8Table(rows, cfg.Synopses).Write(w)
}

func runMSweep(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultMSweep()
	if quick {
		cfg = experiments.QuickMSweep()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "msweep", keyCfg, func() ([]experiments.MSweepRow, error) {
		return experiments.RunMSweep(cfg), nil
	})
	if err != nil {
		return err
	}
	return experiments.MSweepTable(rows, cfg.Count).Write(w)
}

// runScenario runs the default service workload (the same driver
// cmd/vmat-server executes jobs with), printing one row per trial.
func runScenario(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultScenario()
	if quick {
		cfg = experiments.QuickScenario()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "scenario", keyCfg, func() ([]experiments.ScenarioRow, error) {
		return experiments.RunScenario(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.ScenarioTable(cfg, rows).Write(w)
}

// runFaults sweeps crash churn and burst loss with the ARQ on, printing
// availability and exact-answer rates for both aggregation modes.
func runFaults(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultFaults()
	if quick {
		cfg = experiments.QuickFaults()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "faults", keyCfg, func() ([]experiments.FaultsRow, error) {
		return experiments.RunFaults(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.FaultsTable(rows).Write(w)
}

// runScale probes the simulator's capacity ceiling: full MIN queries on
// 10k/100k/1M-node grids with wall-clock and memory columns. Its rows
// measure this machine, so they bypass the content-addressed cache (a
// cached timing would silently misreport a different host or build).
func runScale(w io.Writer, quick bool, seed uint64) error {
	cfg := experiments.DefaultScale()
	if quick {
		cfg = experiments.QuickScale()
	}
	cfg.Seed = seed
	rows, err := experiments.RunScale(cfg)
	if err != nil {
		return err
	}
	return experiments.ScaleTable(rows).Write(w)
}

func runComm(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultComm()
	if quick {
		cfg = experiments.QuickComm()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "comm", keyCfg, func() ([]experiments.CommRow, error) {
		return experiments.RunComm(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.CommTable(rows).Write(w)
}

func runRounds(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultRounds()
	if quick {
		cfg = experiments.QuickRounds()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "rounds", keyCfg, func() ([]experiments.RoundsRow, error) {
		return experiments.RunRounds(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.RoundsTable(rows).Write(w)
}

func runPinpoint(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultPinpoint()
	if quick {
		cfg = experiments.QuickPinpoint()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "pinpoint", keyCfg, func() ([]experiments.PinpointRow, error) {
		return experiments.RunPinpoint(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.PinpointTable(rows).Write(w)
}

func runCampaign(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultCampaign()
	if quick {
		cfg = experiments.QuickCampaign()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "campaign", keyCfg, func() ([]experiments.CampaignRow, error) {
		return experiments.RunCampaign(cfg)
	})
	if err != nil {
		return err
	}
	ringSize := keydist.Params{PoolSize: 10000, RingSize: 300}.RingSize
	return experiments.CampaignTable(rows, ringSize).Write(w)
}

func runWormhole(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultWormhole()
	if quick {
		cfg = experiments.QuickWormhole()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "wormhole", keyCfg, func() ([]experiments.WormholeRow, error) {
		return experiments.RunWormhole(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.WormholeTable(rows).Write(w)
}

func runLoss(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultLoss()
	if quick {
		cfg = experiments.QuickLoss()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "loss", keyCfg, func() ([]experiments.LossRow, error) {
		return experiments.RunLoss(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.LossTable(rows).Write(w)
}

func runAvailability(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultAvailability()
	if quick {
		cfg = experiments.QuickAvailability()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "avail", keyCfg, func() ([]experiments.AvailabilityRow, error) {
		return experiments.RunAvailability(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.AvailabilityTable(rows).Write(w)
}

func runChoking(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error {
	cfg := experiments.DefaultChoking()
	if quick {
		cfg = experiments.QuickChoking()
	}
	cfg.Seed = seed
	cfg.Workers = workers
	keyCfg := cfg
	keyCfg.Workers = 0
	rows, err := cachedRows(c, "choking", keyCfg, func() ([]experiments.ChokingRow, error) {
		return experiments.RunChoking(cfg)
	})
	if err != nil {
		return err
	}
	return experiments.ChokingTable(rows).Write(w)
}
