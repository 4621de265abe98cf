package experiments

import (
	"math"

	"repro/internal/crypto"
	"repro/internal/keydist"
	"repro/internal/topology"
)

// Fig7Config parameterizes the Figure 7 reproduction: the average number
// of honest sensors mis-revoked under various thresholds theta, when the
// adversary exposes (and frames with) the union of the key rings of f
// malicious sensors.
type Fig7Config struct {
	// NetworkSizes are the sensor counts (the paper uses 1,000 and
	// 10,000).
	NetworkSizes []int
	// MaliciousCounts are the f values.
	MaliciousCounts []int
	// Thetas are the thresholds to sweep.
	Thetas []int
	// Trials is the number of independent deployments (the paper uses
	// 100).
	Trials int
	// Params is the key pre-distribution (the paper uses rings of 250
	// from a pool of 100,000).
	Params keydist.Params
	// Seed drives the simulation.
	Seed uint64
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Results are
	// identical for every worker count.
	Workers int
}

// DefaultFig7 returns the paper's configuration.
func DefaultFig7() Fig7Config {
	return Fig7Config{
		NetworkSizes:    []int{1000, 10000},
		MaliciousCounts: []int{1, 5, 10, 20},
		Thetas:          []int{1, 3, 5, 7, 10, 15, 20, 27, 35},
		Trials:          100,
		Params:          keydist.PaperParams(),
		Seed:            2011,
	}
}

// QuickFig7 is the -quick tier: 1,000 sensors, 10 trials.
func QuickFig7() Fig7Config {
	cfg := DefaultFig7()
	cfg.NetworkSizes = []int{1000}
	cfg.Trials = 10
	return cfg
}

// Fig7Row is one point of Figure 7.
type Fig7Row struct {
	N     int
	F     int
	Theta int
	// AvgMisRevoked is the average number of honest sensors whose ring
	// overlaps the adversary's combined key material in at least Theta
	// keys.
	AvgMisRevoked float64
}

// RunFig7 reproduces Figure 7. For each trial it draws a fresh
// deployment, picks f malicious sensors, pools their rings (the paper:
// "the adversary can use the edge keys held by different malicious
// sensors to frame honest sensors"), and counts honest sensors whose
// overlap with that pool reaches theta. All f values and thetas are
// evaluated on the same per-trial deployment with nested malicious sets,
// so series are directly comparable.
func RunFig7(cfg Fig7Config) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, n := range cfg.NetworkSizes {
		counts, err := RunTrials(subSeed(cfg.Seed, "fig7", uint64(n)),
			cfg.Trials, cfg.Workers,
			func(_ int, rng *crypto.Stream) ([]int64, error) {
				return fig7Trial(cfg, n, rng)
			})
		if err != nil {
			return nil, err
		}
		// sums[fIdx][thetaIdx] accumulates mis-revocation counts, merged
		// in trial order.
		sums := make([]int64, len(cfg.MaliciousCounts)*len(cfg.Thetas))
		for _, c := range counts {
			for i, v := range c {
				sums[i] += v
			}
		}
		for fIdx, f := range cfg.MaliciousCounts {
			for tIdx, theta := range cfg.Thetas {
				rows = append(rows, Fig7Row{
					N:             n,
					F:             f,
					Theta:         theta,
					AvgMisRevoked: float64(sums[fIdx*len(cfg.Thetas)+tIdx]) / float64(cfg.Trials),
				})
			}
		}
	}
	return rows, nil
}

// fig7Trial draws one deployment and counts, for every (f, theta) cell,
// the honest sensors whose ring overlaps the union of the first f
// malicious rings in at least theta keys. The malicious sets are nested
// (prefixes of one permutation), so instead of materializing a union set
// per f it computes, for every pool key, the smallest malicious-prefix
// length that covers it; a sensor's overlap at f is then the number of
// its ring keys covered by a prefix shorter than f. One pass over all
// rings replaces len(MaliciousCounts) union rebuilds.
func fig7Trial(cfg Fig7Config, n int, rng *crypto.Stream) ([]int64, error) {
	dep, err := keydist.NewDeployment(n, cfg.Params,
		crypto.KeyFromUint64(cfg.Seed^uint64(n)), rng.Fork([]byte("deployment")))
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(n)
	maxF := 0
	for _, f := range cfg.MaliciousCounts {
		if f > maxF {
			maxF = f
		}
	}
	const unset = int32(math.MaxInt32)
	// minPrefix[key] = smallest i such that perm[i]'s ring holds key.
	minPrefix := make([]int32, cfg.Params.PoolSize)
	for i := range minPrefix {
		minPrefix[i] = unset
	}
	for i := maxF - 1; i >= 0; i-- {
		for _, idx := range dep.Ring(topology.NodeID(perm[i])) {
			minPrefix[idx] = int32(i)
		}
	}
	// permPos[id] = id's position in the permutation (only the first maxF
	// positions matter: they decide maliciousness per f).
	permPos := make([]int32, n)
	for i := range permPos {
		permPos[i] = unset
	}
	for i := 0; i < maxF; i++ {
		permPos[perm[i]] = int32(i)
	}
	counts := make([]int64, len(cfg.MaliciousCounts)*len(cfg.Thetas))
	overlap := make([]int, len(cfg.MaliciousCounts))
	for id := 0; id < n; id++ {
		for i := range overlap {
			overlap[i] = 0
		}
		for _, idx := range dep.Ring(topology.NodeID(id)) {
			p := minPrefix[idx]
			if p == unset {
				continue
			}
			for fIdx, f := range cfg.MaliciousCounts {
				if p < int32(f) {
					overlap[fIdx]++
				}
			}
		}
		for fIdx, f := range cfg.MaliciousCounts {
			if permPos[id] < int32(f) {
				continue // malicious at this coalition size
			}
			for tIdx, theta := range cfg.Thetas {
				if overlap[fIdx] >= theta {
					counts[fIdx*len(cfg.Thetas)+tIdx]++
				}
			}
		}
	}
	return counts, nil
}

// Fig7Table renders the rows as the paper's figure series.
func Fig7Table(rows []Fig7Row) *Table {
	t := &Table{
		Title:   "Figure 7: avg # of honest sensors mis-revoked vs threshold theta",
		Columns: []string{"n", "f", "theta", "avg_mis_revoked"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{d(r.N), d(r.F), d(r.Theta), f4(r.AvgMisRevoked)})
	}
	return t
}
