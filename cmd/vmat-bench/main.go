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
// Experiments, in the order "all" runs them: fig7, fig8, msweep, comm,
// rounds, pinpoint, campaign, wormhole, choking, loss, avail, scenario,
// faults. The scale sweep measures this machine's wall clock and memory,
// so it is excluded from "all" (whose rows are deterministic and
// cacheable) and must be requested explicitly.
//
// The -cpuprofile and -memprofile flags write pprof profiles covering
// the selected experiments.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
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
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	exp := fs.String("exp", "all", "experiment: "+strings.Join(names, "|")+"|scale|all (scale is not part of all)")
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

	switch *exp {
	case "all":
		for _, e := range table {
			if err := e.run(w, cache, *quick, *seed, *workers); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
			fmt.Fprintln(w)
		}
	case "scale":
		if err := runScale(w, *quick, *seed); err != nil {
			return err
		}
	default:
		i := slices.IndexFunc(table, func(e experiment) bool { return e.name == *exp })
		if i < 0 {
			return fmt.Errorf("unknown experiment %q", *exp)
		}
		if err := table[i].run(w, cache, *quick, *seed, *workers); err != nil {
			return err
		}
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

// experiment is one row of the table: a named experiment that prints
// its table at the paper's scale or at -quick, through the cache.
type experiment struct {
	name string
	run  func(w io.Writer, c *benchCache, quick bool, seed uint64, workers int) error
}

// newExperiment builds a row from an experiment's DefaultX and QuickX
// constructors, a setter for its seed and worker count, its RunX and
// its table writer. The cache key is the config as run with Workers
// zeroed: the trial runner returns the same rows for any worker count.
func newExperiment[C, R any](name string, def, quick func() C, set func(c *C, seed uint64, workers int),
	run func(C) ([]R, error), write func(C, []R) *experiments.Table) experiment {
	return experiment{name, func(w io.Writer, c *benchCache, q bool, seed uint64, workers int) error {
		cfg := def()
		if q {
			cfg = quick()
		}
		key := cfg
		set(&key, seed, 0)
		set(&cfg, seed, workers)
		rows, err := cachedRows(c, name, key, func() ([]R, error) { return run(cfg) })
		if err != nil {
			return err
		}
		return write(cfg, rows).Write(w)
	}}
}

// rowsOnly adapts a table writer that reads only the rows.
func rowsOnly[C, R any](write func([]R) *experiments.Table) func(C, []R) *experiments.Table {
	return func(_ C, rows []R) *experiments.Table { return write(rows) }
}

// table lists every cacheable experiment in the order -exp all runs
// them.
var table = []experiment{
	newExperiment("fig7", experiments.DefaultFig7, experiments.QuickFig7,
		func(c *experiments.Fig7Config, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunFig7,
		rowsOnly[experiments.Fig7Config](experiments.Fig7Table)),
	newExperiment("fig8", experiments.DefaultFig8, experiments.QuickFig8,
		func(c *experiments.Fig8Config, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		func(c experiments.Fig8Config) ([]experiments.Fig8Row, error) { return experiments.RunFig8(c), nil },
		func(c experiments.Fig8Config, rows []experiments.Fig8Row) *experiments.Table {
			return experiments.Fig8Table(rows, c.Synopses)
		}),
	newExperiment("msweep", experiments.DefaultMSweep, experiments.QuickMSweep,
		func(c *experiments.MSweepConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		func(c experiments.MSweepConfig) ([]experiments.MSweepRow, error) {
			return experiments.RunMSweep(c), nil
		},
		func(c experiments.MSweepConfig, rows []experiments.MSweepRow) *experiments.Table {
			return experiments.MSweepTable(rows, c.Count)
		}),
	newExperiment("comm", experiments.DefaultComm, experiments.QuickComm,
		func(c *experiments.CommConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunComm,
		rowsOnly[experiments.CommConfig](experiments.CommTable)),
	newExperiment("rounds", experiments.DefaultRounds, experiments.QuickRounds,
		func(c *experiments.RoundsConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunRounds,
		rowsOnly[experiments.RoundsConfig](experiments.RoundsTable)),
	newExperiment("pinpoint", experiments.DefaultPinpoint, experiments.QuickPinpoint,
		func(c *experiments.PinpointConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunPinpoint,
		rowsOnly[experiments.PinpointConfig](experiments.PinpointTable)),
	newExperiment("campaign", experiments.DefaultCampaign, experiments.QuickCampaign,
		func(c *experiments.CampaignConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunCampaign,
		func(_ experiments.CampaignConfig, rows []experiments.CampaignRow) *experiments.Table {
			return experiments.CampaignTable(rows, 300) // the campaign deploys 300-key rings
		}),
	newExperiment("wormhole", experiments.DefaultWormhole, experiments.QuickWormhole,
		func(c *experiments.WormholeConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunWormhole,
		rowsOnly[experiments.WormholeConfig](experiments.WormholeTable)),
	newExperiment("choking", experiments.DefaultChoking, experiments.QuickChoking,
		func(c *experiments.ChokingConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunChoking,
		rowsOnly[experiments.ChokingConfig](experiments.ChokingTable)),
	newExperiment("loss", experiments.DefaultLoss, experiments.QuickLoss,
		func(c *experiments.LossConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunLoss,
		rowsOnly[experiments.LossConfig](experiments.LossTable)),
	newExperiment("avail", experiments.DefaultAvailability, experiments.QuickAvailability,
		func(c *experiments.AvailabilityConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunAvailability,
		rowsOnly[experiments.AvailabilityConfig](experiments.AvailabilityTable)),
	// scenario runs the default service workload, the driver
	// cmd/vmat-server executes jobs with, and prints one row per trial.
	newExperiment("scenario", experiments.DefaultScenario, experiments.QuickScenario,
		func(c *experiments.ScenarioConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunScenario, experiments.ScenarioTable),
	newExperiment("faults", experiments.DefaultFaults, experiments.QuickFaults,
		func(c *experiments.FaultsConfig, seed uint64, workers int) { c.Seed, c.Workers = seed, workers },
		experiments.RunFaults,
		rowsOnly[experiments.FaultsConfig](experiments.FaultsTable)),
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
