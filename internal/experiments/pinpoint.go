package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/topology"
)

// PinpointConfig parameterizes the Theorem 6 measurement: cost and
// soundness of pinpointing under each attack strategy.
type PinpointConfig struct {
	// NetworkSizes to sweep.
	NetworkSizes []int
	// Trials per (size, strategy) cell; each trial picks fresh malicious
	// placement.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultPinpoint returns the default sweep.
func DefaultPinpoint() PinpointConfig {
	return PinpointConfig{NetworkSizes: []int{50, 100, 200}, Trials: 10, Seed: 2011}
}

// QuickPinpoint is the -quick tier: 50 sensors, 4 trials per strategy.
func QuickPinpoint() PinpointConfig {
	cfg := DefaultPinpoint()
	cfg.NetworkSizes = []int{50}
	cfg.Trials = 4
	return cfg
}

// PinpointRow aggregates one (n, strategy) cell.
type PinpointRow struct {
	N        int
	Strategy string
	// Triggered counts trials in which the attack actually corrupted the
	// execution (and so pinpointing ran).
	Triggered int
	// Sound counts triggered trials whose every revocation hit the
	// malicious coalition (Theorem 6 requires Sound == Triggered).
	Sound int
	// AvgTests and AvgRounds are the average pinpointing cost over
	// triggered trials (keyed predicate tests; flooding rounds).
	AvgTests  float64
	AvgRounds float64
	// AvgMaxNodeKB is the average maximum per-sensor communication in
	// kilobytes (Theorem 6's O(L d log n) bits).
	AvgMaxNodeKB float64
}

// RunPinpoint executes the sweep.
func RunPinpoint(cfg PinpointConfig) ([]PinpointRow, error) {
	type strat struct {
		name  string
		mk    func() core.Adversary
		place placement
	}
	strategies := []strat{
		// Droppers only bite when the minimum's aggregation path crosses
		// them, so they are placed upstream of the minimum holder; the
		// hider must itself hold the minimum it withholds; injectors and
		// chokers corrupt from anywhere.
		{"dropper", func() core.Adversary { return adversary.NewDropper(50) }, placeUpstream},
		{"hider", func() core.Adversary { return adversary.NewHider() }, placeOnMinimum},
		{"junk-injector", func() core.Adversary { return adversary.NewJunkInjector(-100) }, placeAnywhere},
		{"drop-and-choke", func() core.Adversary { return adversary.NewDropAndChoke(50) }, placeAnywhere},
		{"lying-dropper", func() core.Adversary {
			s := adversary.NewDropper(50)
			s.Answer = adversary.AnswerAdmit
			return s
		}, placeUpstream},
	}

	type pinpointTrial struct {
		triggered bool
		sound     bool
		tests     float64
		rounds    float64
		maxKB     float64
	}
	var rows []PinpointRow
	for _, n := range cfg.NetworkSizes {
		for stIdx, st := range strategies {
			trials, err := RunTrials(
				subSeed(cfg.Seed, "pinpoint-"+st.name, uint64(n)*64+uint64(stIdx)),
				cfg.Trials, cfg.Workers,
				func(trial int, rng *crypto.Stream) (pinpointTrial, error) {
					var tr pinpointTrial
					env, err := newProtoEnv(n, denseProtoParams, cfg.Seed+uint64(n*1000+trial))
					if err != nil {
						return tr, err
					}
					mal, minHolder, ok := place(env.graph, rng, st.place)
					if !ok {
						return tr, nil
					}
					base := env.baseConfig(minHolder, 1)
					base.Malicious = mal
					base.Adversary = st.mk()
					base.AdversaryFavored = true
					eng, err := core.NewEngine(base)
					if err != nil {
						return tr, err
					}
					out, err := eng.Run()
					if err != nil {
						return tr, fmt.Errorf("%s n=%d trial %d: %w", st.name, n, trial, err)
					}
					if out.Kind == core.OutcomeResult {
						return tr, nil
					}
					tr.triggered = true
					tr.sound = revokedSound(out, env, mal)
					tr.tests = float64(out.PredicateTests)
					tr.rounds = out.FloodingRounds
					tr.maxKB = float64(out.Stats.MaxNodeBytes()) / 1024
					return tr, nil
				})
			if err != nil {
				return nil, err
			}
			row := PinpointRow{N: n, Strategy: st.name}
			var tests, rounds, maxKB float64
			for _, tr := range trials {
				if !tr.triggered {
					continue
				}
				row.Triggered++
				if tr.sound {
					row.Sound++
				}
				tests += tr.tests
				rounds += tr.rounds
				maxKB += tr.maxKB
			}
			if row.Triggered > 0 {
				row.AvgTests = tests / float64(row.Triggered)
				row.AvgRounds = rounds / float64(row.Triggered)
				row.AvgMaxNodeKB = maxKB / float64(row.Triggered)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// placement selects how the attacker relates to the planted minimum.
type placement int

const (
	placeAnywhere placement = iota
	placeUpstream
	placeOnMinimum
)

// place picks one malicious node (preserving honest connectivity) and the
// minimum holder per the placement mode.
func place(g *topology.Graph, rng *crypto.Stream, mode placement) (map[topology.NodeID]bool, topology.NodeID, bool) {
	n := g.NumNodes()
	switch mode {
	case placeUpstream:
		attacker, minHolder, ok := placeCampaignAttack(g, rng)
		if !ok {
			return nil, 0, false
		}
		return map[topology.NodeID]bool{attacker: true}, minHolder, true
	case placeOnMinimum:
		mal := pickMalicious(g, rng, 1)
		for id := range mal {
			return mal, id, true
		}
		return nil, 0, false
	default:
		mal := pickMalicious(g, rng, 1)
		minHolder := topology.NodeID(n - 1)
		if mal[minHolder] {
			minHolder = topology.NodeID(n - 2)
		}
		return mal, minHolder, len(mal) == 1
	}
}

// pickMalicious selects f malicious nodes that do not partition the
// honest subgraph.
func pickMalicious(g *topology.Graph, rng *crypto.Stream, f int) map[topology.NodeID]bool {
	n := g.NumNodes()
	mal := map[topology.NodeID]bool{}
	for attempts := 0; len(mal) < f && attempts < 20*f+40; attempts++ {
		cand := topology.NodeID(rng.Intn(n-1) + 1)
		if mal[cand] {
			continue
		}
		mal[cand] = true
		if !g.ConnectedExcluding(topology.BaseStation, mal) {
			delete(mal, cand)
		}
	}
	return mal
}

// revokedSound checks Theorem 6's soundness: everything revoked belongs
// to the malicious coalition.
func revokedSound(out *core.Outcome, env *protoEnv, malicious map[topology.NodeID]bool) bool {
	for _, k := range out.RevokedKeys {
		held := false
		for id := range malicious {
			if env.dep.Holds(id, k) {
				held = true
				break
			}
		}
		if !held {
			return false
		}
	}
	for _, id := range out.RevokedNodes {
		if !malicious[id] {
			return false
		}
	}
	return len(out.RevokedKeys) > 0 || len(out.RevokedNodes) > 0
}

// PinpointTable renders the sweep.
func PinpointTable(rows []PinpointRow) *Table {
	t := &Table{
		Title:   "Theorem 6: pinpointing cost and soundness per attack strategy",
		Columns: []string{"n", "strategy", "triggered", "sound", "avg_tests", "avg_rounds", "avg_max_node_KB"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.N), r.Strategy, d(r.Triggered), d(r.Sound),
			f2(r.AvgTests), f2(r.AvgRounds), f2(r.AvgMaxNodeKB),
		})
	}
	return t
}
