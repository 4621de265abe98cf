package experiments

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/keydist"
	"repro/internal/topology"
)

// CampaignConfig parameterizes the revocation-economics experiment behind
// the paper's Section I claim that threshold-based whole-sensor
// revocation "can often reduce the number of keys that need to be
// individually revoked by over 90%": a persistent attacker is engaged
// over repeated query executions until it is fully revoked, and the
// number of individual key-revocation announcements is compared with the
// attacker's ring size.
type CampaignConfig struct {
	// N is the network size.
	N int
	// Thetas are the thresholds to compare; 0 disables whole-sensor
	// revocation (the pure sequential baseline).
	Thetas []int
	// MaxExecutions caps one campaign.
	MaxExecutions int
	// Trials with fresh placements per theta.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultCampaign returns the default configuration.
func DefaultCampaign() CampaignConfig {
	return CampaignConfig{
		N:             60,
		Thetas:        []int{0, 3, 7, 15, 27},
		MaxExecutions: 400,
		Trials:        5,
		Seed:          2011,
	}
}

// QuickCampaign is the -quick tier: thetas 0 and 7, 2 trials each.
func QuickCampaign() CampaignConfig {
	cfg := DefaultCampaign()
	cfg.Thetas = []int{0, 7}
	cfg.Trials = 2
	return cfg
}

// CampaignRow aggregates one theta's campaigns.
type CampaignRow struct {
	Theta int
	// AvgExecutions is the average number of corrupted executions before
	// the system either fully revoked the attacker (theta > 0) or
	// neutralized it (no further corruptions possible).
	AvgExecutions float64
	// AvgKeyAnnouncements is the average number of individual key
	// revocations announced.
	AvgKeyAnnouncements float64
	// AvgRingCoverage is announcements / ring size: the fraction of the
	// attacker's ring that had to be revoked one key at a time. The
	// paper's >90% saving corresponds to a coverage below 0.1.
	AvgRingCoverage float64
	// FullyRevoked counts trials ending with the attacker wholly revoked.
	FullyRevoked int
	// Neutralized counts trials ending with the attacker unable to
	// corrupt further executions (the campaign's last execution
	// returned a correct result).
	Neutralized int
}

// RunCampaign executes the sweep: one persistent dropper per trial,
// repeatedly attacking consecutive COUNT-free MIN queries while the
// registry accumulates revocations across executions.
func RunCampaign(cfg CampaignConfig) ([]CampaignRow, error) {
	rows := make([]CampaignRow, 0, len(cfg.Thetas))
	for _, theta := range cfg.Thetas {
		trials, err := RunTrials(subSeed(cfg.Seed, "campaign", uint64(theta)),
			cfg.Trials, cfg.Workers,
			func(trial int, rng *crypto.Stream) (campaignTrial, error) {
				return runCampaignTrial(cfg, theta, trial, rng)
			})
		if err != nil {
			return nil, err
		}
		row := CampaignRow{Theta: theta}
		var execs, announcements, coverage float64
		for _, tr := range trials {
			execs += tr.execs
			announcements += tr.announcements
			coverage += tr.coverage
			if tr.fullyRevoked {
				row.FullyRevoked++
			}
			if tr.neutralized {
				row.Neutralized++
			}
		}
		row.AvgExecutions = execs / float64(cfg.Trials)
		row.AvgKeyAnnouncements = announcements / float64(cfg.Trials)
		row.AvgRingCoverage = coverage / float64(cfg.Trials)
		rows = append(rows, row)
	}
	return rows, nil
}

// campaignTrial is one campaign's contribution to a theta row.
type campaignTrial struct {
	execs         float64
	announcements float64
	coverage      float64
	fullyRevoked  bool
	neutralized   bool
}

// runCampaignTrial engages one persistent dropper until it is fully
// revoked, neutralized, or the execution budget runs out.
func runCampaignTrial(cfg CampaignConfig, theta, trial int, rng *crypto.Stream) (campaignTrial, error) {
	var tr campaignTrial
	env, err := newProtoEnv(cfg.N, denseProtoParams, cfg.Seed+uint64(trial*7919))
	if err != nil {
		return tr, err
	}
	attacker, minHolder, ok := placeCampaignAttack(env.graph, rng)
	if !ok {
		return tr, nil
	}
	mal := map[topology.NodeID]bool{attacker: true}
	registry := keydist.NewRegistry(env.dep, theta)
	strat := adversary.NewDropper(50)

	ran := 0
	for exec := 0; exec < cfg.MaxExecutions; exec++ {
		base := env.baseConfig(minHolder, 1)
		base.Malicious = mal
		base.Adversary = strat
		base.Registry = registry
		base.AdversaryFavored = true
		base.Seed = env.seed + uint64(exec+1)
		eng, err := core.NewEngine(base)
		if err != nil {
			return tr, err
		}
		out, err := eng.Run()
		if err != nil {
			return tr, err
		}
		ran = exec + 1
		if out.Kind == core.OutcomeResult {
			tr.neutralized = true
			break
		}
		if registry.NodeRevoked(attacker) {
			tr.fullyRevoked = true
			break
		}
	}
	tr.execs = float64(ran)
	tr.announcements = float64(registry.KeyRevocationAnnouncements())
	tr.coverage = tr.announcements / float64(len(env.dep.Ring(attacker)))
	return tr, nil
}

// placeCampaignAttack picks a malicious node that sits on the minimum
// holder's path: the attacker must not partition the honest subgraph and
// must have a strictly deeper honest neighbor, which becomes the minimum
// holder (its first tree-formation message arrives via the attacker under
// adversary-favored timing, making the attacker its aggregation parent).
func placeCampaignAttack(g *topology.Graph, rng *crypto.Stream) (attacker, minHolder topology.NodeID, ok bool) {
	n := g.NumNodes()
	depths := g.Depths(topology.BaseStation)
	for attempts := 0; attempts < 80; attempts++ {
		cand := topology.NodeID(rng.Intn(n-1) + 1)
		if !g.ConnectedExcluding(topology.BaseStation, map[topology.NodeID]bool{cand: true}) {
			continue
		}
		for _, nb := range g.Neighbors(cand) {
			if depths[nb] == depths[cand]+1 {
				return cand, nb, true
			}
		}
	}
	return 0, 0, false
}

// CampaignTable renders the sweep.
func CampaignTable(rows []CampaignRow, ringSize int) *Table {
	t := &Table{
		Title:   "Section I/VI-C: revocation campaign economics (ring size " + d(ringSize) + ")",
		Columns: []string{"theta", "avg_executions", "avg_key_announcements", "ring_coverage", "fully_revoked", "neutralized"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.Theta), f2(r.AvgExecutions), f2(r.AvgKeyAnnouncements),
			f4(r.AvgRingCoverage), d(r.FullyRevoked), d(r.Neutralized),
		})
	}
	return t
}
