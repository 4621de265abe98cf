package experiments

import (
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/topology"
)

// WormholeConfig parameterizes the Figure 2(c) demonstration: the same
// wormhole adversary against traditional hop-count tree formation and
// against VMAT's timestamp-based formation.
type WormholeConfig struct {
	// NetworkSizes to sweep.
	NetworkSizes []int
	// Trials per size with fresh wormhole placements.
	Trials int
	Seed   uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultWormhole returns the default sweep.
func DefaultWormhole() WormholeConfig {
	return WormholeConfig{NetworkSizes: []int{50, 100, 200}, Trials: 10, Seed: 2011}
}

// QuickWormhole is the -quick tier: 60 sensors, 4 trials.
func QuickWormhole() WormholeConfig {
	cfg := DefaultWormhole()
	cfg.NetworkSizes = []int{60}
	cfg.Trials = 4
	return cfg
}

// WormholeRow aggregates one network size.
type WormholeRow struct {
	N int
	// HopCountInvalid is the average number of honest sensors pushed
	// beyond level L by the wormhole under hop-count formation.
	HopCountInvalid float64
	// TimestampInvalid is the same count under VMAT's timestamp
	// formation (Theorem: always 0 — levels are arrival intervals, which
	// a wormhole can only shrink).
	TimestampInvalid float64
	// TimestampUnleveled is the average number of honest sensors left
	// without any level by the VMAT formation (0 when the honest
	// subgraph is connected).
	TimestampUnleveled float64
}

// RunWormhole executes the comparison. The wormhole entry sits adjacent
// to the base station; the exit is placed at maximum depth, the paper's
// Figure 2(c) geometry.
func RunWormhole(cfg WormholeConfig) ([]WormholeRow, error) {
	type wormholeTrial struct {
		counted            bool
		hopCountInvalid    float64
		timestampInvalid   float64
		timestampUnleveled float64
	}
	rows := make([]WormholeRow, 0, len(cfg.NetworkSizes))
	for _, n := range cfg.NetworkSizes {
		trials, err := RunTrials(subSeed(cfg.Seed, "wormhole", uint64(n)),
			cfg.Trials, cfg.Workers,
			func(trial int, _ *crypto.Stream) (wormholeTrial, error) {
				var tr wormholeTrial
				env, err := newProtoEnv(n, denseProtoParams, cfg.Seed+uint64(n*100+trial))
				if err != nil {
					return tr, err
				}
				g := env.graph
				entry, exit, ok := placeWormhole(g)
				if !ok {
					// No placement keeps the honest subgraph connected (the
					// paper's model assumption); skip this topology draw.
					return tr, nil
				}
				tr.counted = true
				l := g.Depth(topology.BaseStation)
				w := &baseline.WormholeConfig{
					Pairs:        [][2]topology.NodeID{{entry, exit}},
					InflatedHops: 3 * l,
				}
				hres := baseline.RunHopCountTree(g, l, w, 6*l+20)
				tr.hopCountInvalid = float64(hres.Invalid)

				// The same adversary against VMAT: wormhole endpoints rush
				// the tree-formation flood through their tunnel. Timestamp
				// levels only ever shrink, so nothing exceeds L.
				mal := map[topology.NodeID]bool{entry: true, exit: true}
				base := env.baseConfig(0, 0)
				base.Malicious = mal
				base.Adversary = &wormholeRusher{exit: exit}
				base.AdversaryFavored = true
				eng, err := core.NewEngine(base)
				if err != nil {
					return tr, err
				}
				levels, err := eng.TreeLevels()
				if err != nil {
					return tr, err
				}
				for id, lvl := range levels {
					if mal[topology.NodeID(id)] || id == 0 {
						continue
					}
					if lvl > eng.L() {
						tr.timestampInvalid++
					}
					if lvl == -1 {
						tr.timestampUnleveled++
					}
				}
				return tr, nil
			})
		if err != nil {
			return nil, err
		}
		row := WormholeRow{N: n}
		counted := 0
		for _, tr := range trials {
			if !tr.counted {
				continue
			}
			counted++
			row.HopCountInvalid += tr.hopCountInvalid
			row.TimestampInvalid += tr.timestampInvalid
			row.TimestampUnleveled += tr.timestampUnleveled
		}
		if counted > 0 {
			row.HopCountInvalid /= float64(counted)
			row.TimestampInvalid /= float64(counted)
			row.TimestampUnleveled /= float64(counted)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// placeWormhole picks a wormhole entry adjacent to the base station and
// the deepest possible exit such that removing both keeps the honest
// subgraph connected (the paper's no-partition assumption).
func placeWormhole(g *topology.Graph) (entry, exit topology.NodeID, ok bool) {
	depths := g.Depths(topology.BaseStation)
	n := g.NumNodes()
	for _, entryCand := range g.Neighbors(topology.BaseStation) {
		// Deepest exit first.
		bestExit := topology.NodeID(-1)
		for id := 1; id < n; id++ {
			cand := topology.NodeID(id)
			if cand == entryCand || depths[id] <= 1 {
				continue
			}
			if bestExit != -1 && depths[id] <= depths[bestExit] {
				continue
			}
			if g.ConnectedExcluding(topology.BaseStation,
				map[topology.NodeID]bool{entryCand: true, cand: true}) {
				bestExit = cand
			}
		}
		if bestExit != -1 {
			return entryCand, bestExit, true
		}
	}
	return 0, 0, false
}

// wormholeRusher is the VMAT-side wormhole adversary: the entry relays
// the tree-formation message to the exit out of band, the exit re-floods
// it immediately. Against timestamp levels this only *lowers* the
// victims' levels (they hear the flood earlier), which is exactly the
// paper's point: the attack is defanged.
type wormholeRusher struct {
	core.HonestAdversary
	exit topology.NodeID
}

func (w *wormholeRusher) Step(phase core.Phase, a *core.AdvContext) {
	if phase != core.PhaseTree {
		a.ActHonestly()
		return
	}
	if a.Node() != w.exit {
		// Entry: act honestly, then tunnel the first tree message.
		if a.Level() == -1 {
			for _, env := range a.Inbox() {
				if !env.Valid {
					continue
				}
				if key, ok := a.EdgeKeyWith(w.exit); ok {
					a.SendSealed(w.exit, key, env.Payload)
					break
				}
			}
		}
		a.ActHonestly()
		return
	}
	// Exit: on the tunneled copy, flood tree messages to neighbors right
	// away (earlier than the honest flood would arrive).
	a.ActHonestly()
}

// WormholeTable renders the comparison.
func WormholeTable(rows []WormholeRow) *Table {
	t := &Table{
		Title:   "Figure 2(c): honest sensors broken by a wormhole, hop-count vs timestamp formation",
		Columns: []string{"n", "hopcount_invalid", "timestamp_invalid", "timestamp_unleveled"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.N), f2(r.HopCountInvalid), f2(r.TimestampInvalid), f2(r.TimestampUnleveled)})
	}
	return t
}
