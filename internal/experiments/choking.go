package experiments

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/topology"
)

// ChokingConfig parameterizes the SOF analysis (Lemma 1 and Section
// IV-C): under a drop-and-choke adversary, the base station must receive
// *some* veto in every execution, and whatever it receives must lead to a
// sound revocation.
type ChokingConfig struct {
	// N is the network size.
	N int
	// MaliciousCounts are the f values to sweep.
	MaliciousCounts []int
	// Trials per f with fresh placements.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultChoking returns the default sweep.
func DefaultChoking() ChokingConfig {
	return ChokingConfig{N: 80, MaliciousCounts: []int{1, 2, 4, 8}, Trials: 12, Seed: 2011}
}

// QuickChoking is the -quick tier: 50 sensors, 5 trials per f.
func QuickChoking() ChokingConfig {
	cfg := DefaultChoking()
	cfg.N = 50
	cfg.Trials = 5
	return cfg
}

// ChokingRow aggregates one f value.
type ChokingRow struct {
	F int
	// VetoDelivered counts trials where the base station received a veto
	// (Lemma 1 requires all of them, given the minimum was suppressed).
	VetoDelivered int
	// SpuriousWon counts trials where the first veto was spurious (the
	// choke beat the honest veto) — the attack "succeeding" at step one,
	// only to hand the base station a junk audit trail.
	SpuriousWon int
	// SoundRevocations counts trials ending with a revocation entirely
	// inside the malicious coalition.
	SoundRevocations int
	// Trials is the cell size.
	Trials int
}

// RunChoking executes the sweep.
func RunChoking(cfg ChokingConfig) ([]ChokingRow, error) {
	type chokingTrial struct {
		vetoDelivered bool
		spuriousWon   bool
		sound         bool
	}
	rows := make([]ChokingRow, 0, len(cfg.MaliciousCounts))
	for _, f := range cfg.MaliciousCounts {
		trials, err := RunTrials(subSeed(cfg.Seed, "choking", uint64(f)),
			cfg.Trials, cfg.Workers,
			func(trial int, rng *crypto.Stream) (chokingTrial, error) {
				var tr chokingTrial
				env, err := newProtoEnv(cfg.N, denseProtoParams, cfg.Seed+uint64(f*1000+trial))
				if err != nil {
					return tr, err
				}
				mal := pickMalicious(env.graph, rng, f)
				minHolder := farthestHonest(env, mal)
				base := env.baseConfig(minHolder, 1)
				base.Malicious = mal
				base.Adversary = adversary.NewDropAndChoke(50)
				base.AdversaryFavored = true
				eng, err := core.NewEngine(base)
				if err != nil {
					return tr, err
				}
				out, err := eng.Run()
				if err != nil {
					return tr, err
				}
				switch out.Kind {
				case core.OutcomeResult:
					// The droppers never sat on the minimum's path: the
					// execution was simply correct; no veto was needed.
					tr.vetoDelivered = true
					return tr, nil
				case core.OutcomeJunkConfRevocation:
					tr.vetoDelivered = true
					tr.spuriousWon = true
				case core.OutcomeVetoRevocation:
					tr.vetoDelivered = true
				case core.OutcomeJunkAggRevocation:
					tr.vetoDelivered = true
				}
				tr.sound = revokedSound(out, env, mal)
				return tr, nil
			})
		if err != nil {
			return nil, err
		}
		row := ChokingRow{F: f, Trials: cfg.Trials}
		for _, tr := range trials {
			if tr.vetoDelivered {
				row.VetoDelivered++
			}
			if tr.spuriousWon {
				row.SpuriousWon++
			}
			if tr.sound {
				row.SoundRevocations++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// farthestHonest returns the deepest honest sensor — the most exposed
// vetoer placement, whose value crosses the most hops.
func farthestHonest(env *protoEnv, malicious map[topology.NodeID]bool) topology.NodeID {
	depths := env.graph.Depths(topology.BaseStation)
	best := topology.NodeID(1)
	for id := 1; id < env.graph.NumNodes(); id++ {
		nid := topology.NodeID(id)
		if malicious[nid] {
			continue
		}
		if depths[id] > depths[best] || malicious[best] {
			best = nid
		}
	}
	return best
}

// ChokingTable renders the sweep.
func ChokingTable(rows []ChokingRow) *Table {
	t := &Table{
		Title:   "Lemma 1 / SOF: veto delivery and revocation soundness under drop-and-choke",
		Columns: []string{"f", "trials", "veto_delivered", "spurious_won", "sound_revocations"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.F), d(r.Trials), d(r.VetoDelivered), d(r.SpuriousWon), d(r.SoundRevocations)})
	}
	return t
}
