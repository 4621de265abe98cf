package experiments

import (
	"repro/internal/adversary"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/keydist"
	"repro/internal/topology"
)

// AvailabilityConfig parameterizes the paper's motivating comparison
// (Section I): under a persistent attacker, a detection-only secure
// aggregation protocol (SHIA [3] / SECOA [19] style) raises an alarm on
// every execution forever — "the entire sensor network is effectively
// brought down by just a single malicious sensor" — while VMAT's
// revocation strictly diminishes the adversary until queries answer
// again.
type AvailabilityConfig struct {
	// N is the network size.
	N int
	// Executions is the campaign length per trial.
	Executions int
	// Trials with fresh placements.
	Trials int
	// Theta is VMAT's whole-sensor revocation threshold.
	Theta int
	Seed  uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultAvailability returns the default configuration.
func DefaultAvailability() AvailabilityConfig {
	return AvailabilityConfig{N: 60, Executions: 40, Trials: 5, Theta: 7, Seed: 2011}
}

// QuickAvailability is the -quick tier: 2 trials of 20 executions.
func QuickAvailability() AvailabilityConfig {
	cfg := DefaultAvailability()
	cfg.Trials = 2
	cfg.Executions = 20
	return cfg
}

// AvailabilityRow aggregates one protocol mode.
type AvailabilityRow struct {
	Mode string
	// AnsweredFraction is answered executions / total executions.
	AnsweredFraction float64
	// AvgFirstAnswer is the average index (1-based) of the first
	// execution that produced a result; 0 when none ever did.
	AvgFirstAnswer float64
	// AvgCorrupted is the average number of corrupted executions per
	// campaign.
	AvgCorrupted float64
}

// RunAvailability executes the comparison: the same persistent dropping
// attacker against VMAT-with-revocation, against the same machinery with
// pinpointing disabled (alarm-only), and against the SHIA commitment-tree
// baseline (a real detection-only protocol).
func RunAvailability(cfg AvailabilityConfig) ([]AvailabilityRow, error) {
	modes := []struct {
		name      string
		alarmOnly bool
		shia      bool
	}{
		{"vmat-revocation", false, false},
		{"alarm-only", true, false},
		{"shia-detect", false, true},
	}
	rows := make([]AvailabilityRow, 0, len(modes))
	for _, mode := range modes {
		if mode.shia {
			row, err := runSHIAAvailability(cfg)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
			continue
		}
		trials, err := RunTrials(subSeed(cfg.Seed, "availability-"+mode.name, 0),
			cfg.Trials, cfg.Workers,
			func(trial int, rng *crypto.Stream) (availTrial, error) {
				return runAvailabilityTrial(cfg, mode.alarmOnly, trial, rng)
			})
		if err != nil {
			return nil, err
		}
		var answered, firstSum, corrupted float64
		firstCount := 0
		for _, tr := range trials {
			answered += tr.answered
			corrupted += tr.corrupted
			if tr.first > 0 {
				firstSum += float64(tr.first)
				firstCount++
			}
		}
		total := float64(cfg.Trials * cfg.Executions)
		row := AvailabilityRow{
			Mode:             mode.name,
			AnsweredFraction: answered / total,
			AvgCorrupted:     corrupted / float64(cfg.Trials),
		}
		if firstCount > 0 {
			row.AvgFirstAnswer = firstSum / float64(firstCount)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// availTrial is one campaign's contribution to an availability row.
type availTrial struct {
	answered  float64
	corrupted float64
	first     int
}

// runAvailabilityTrial runs one persistent-attacker campaign against the
// VMAT machinery (with or without pinpointing).
func runAvailabilityTrial(cfg AvailabilityConfig, alarmOnly bool, trial int, rng *crypto.Stream) (availTrial, error) {
	var tr availTrial
	env, err := newProtoEnv(cfg.N, denseProtoParams, cfg.Seed+uint64(trial*131+7))
	if err != nil {
		return tr, err
	}
	attacker, minHolder, ok := placeCampaignAttack(env.graph, rng)
	if !ok {
		return tr, nil
	}
	registry := keydist.NewRegistry(env.dep, cfg.Theta)
	strat := adversary.NewDropper(50)
	for exec := 1; exec <= cfg.Executions; exec++ {
		base := env.baseConfig(minHolder, 1)
		base.Malicious = map[topology.NodeID]bool{attacker: true}
		base.Adversary = strat
		base.Registry = registry
		base.AlarmOnly = alarmOnly
		base.AdversaryFavored = true
		base.Seed = env.seed + uint64(exec)
		eng, err := core.NewEngine(base)
		if err != nil {
			return tr, err
		}
		out, err := eng.Run()
		if err != nil {
			return tr, err
		}
		if out.Kind == core.OutcomeResult {
			tr.answered++
			if tr.first == 0 {
				tr.first = exec
			}
		} else {
			tr.corrupted++
		}
	}
	return tr, nil
}

// runSHIAAvailability runs the persistent attacker against the SHIA
// baseline: the attacker drops its subtree in every execution; SHIA
// detects each time (alarm) but never identifies or revokes, so
// availability never recovers.
func runSHIAAvailability(cfg AvailabilityConfig) (AvailabilityRow, error) {
	trials, err := RunTrials(subSeed(cfg.Seed, "availability-shia", 0),
		cfg.Trials, cfg.Workers,
		func(trial int, _ *crypto.Stream) (availTrial, error) {
			var tr availTrial
			env, err := newProtoEnv(cfg.N, denseProtoParams, cfg.Seed+uint64(trial*131+7))
			if err != nil {
				return tr, err
			}
			attacker, ok := shiaAttackerWithChildren(env.graph)
			if !ok {
				return tr, nil
			}
			for exec := 1; exec <= cfg.Executions; exec++ {
				s := &baseline.SHIA{
					Graph:      env.graph,
					Deployment: env.dep,
					Readings:   func(id topology.NodeID) int64 { return int64(id) },
					Malicious:  map[topology.NodeID]bool{attacker: true},
					Tamper:     baseline.SHIADropSubtree,
					Seed:       env.seed + uint64(exec),
				}
				res := s.Run()
				if !res.Alarm {
					tr.answered++
					if tr.first == 0 {
						tr.first = exec
					}
				} else {
					tr.corrupted++
				}
			}
			return tr, nil
		})
	if err != nil {
		return AvailabilityRow{}, err
	}
	var answered, firstSum, corrupted float64
	firstCount := 0
	for _, tr := range trials {
		answered += tr.answered
		corrupted += tr.corrupted
		if tr.first > 0 {
			firstSum += float64(tr.first)
			firstCount++
		}
	}
	total := float64(cfg.Trials * cfg.Executions)
	row := AvailabilityRow{
		Mode:             "shia-detect",
		AnsweredFraction: answered / total,
		AvgCorrupted:     corrupted / float64(cfg.Trials),
	}
	if firstCount > 0 {
		row.AvgFirstAnswer = firstSum / float64(firstCount)
	}
	return row, nil
}

// shiaAttackerWithChildren picks a sensor with at least one child in the
// baseline's BFS tree, so the subtree drop always bites.
func shiaAttackerWithChildren(g *topology.Graph) (topology.NodeID, bool) {
	_, children := baseline.BFSTree(g)
	for id := 1; id < g.NumNodes(); id++ {
		if len(children[id]) > 0 {
			return topology.NodeID(id), true
		}
	}
	return 0, false
}

// AvailabilityTable renders the comparison.
func AvailabilityTable(rows []AvailabilityRow) *Table {
	t := &Table{
		Title:   "Section I: availability under a persistent attacker, revocation vs alarm-only",
		Columns: []string{"mode", "answered_fraction", "avg_first_answer", "avg_corrupted"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Mode, f2(r.AnsweredFraction), f2(r.AvgFirstAnswer), f2(r.AvgCorrupted)})
	}
	return t
}
