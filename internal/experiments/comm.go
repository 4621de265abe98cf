package experiments

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/topology"
)

// CommConfig parameterizes the Section IX communication-complexity
// comparison: a COUNT query answered by VMAT's 100-synopsis in-network
// aggregation versus the naive baseline that ships every MAC-carrying
// reading to the base station.
type CommConfig struct {
	// NetworkSizes to sweep (the paper's discussion point is 10,000).
	NetworkSizes []int
	// Synopses is m (the paper uses 100, i.e. 2.4 KB aggregates).
	Synopses int
	// Seed drives the topologies.
	Seed uint64
	// Workers caps parallelism across network sizes; 0 uses GOMAXPROCS.
	// Results are identical for every worker count.
	Workers int
}

// DefaultComm returns the paper-scale configuration.
func DefaultComm() CommConfig {
	return CommConfig{NetworkSizes: []int{100, 1000, 10000}, Synopses: 100, Seed: 2011}
}

// QuickComm is the -quick tier: 100 and 1,000 sensors.
func QuickComm() CommConfig {
	cfg := DefaultComm()
	cfg.NetworkSizes = []int{100, 1000}
	return cfg
}

// CommRow is one network size's comparison.
type CommRow struct {
	N int
	// VMATAggMsgBytes is the size of one VMAT aggregate message (the
	// paper's 2.4 KB for 100 synopses).
	VMATAggMsgBytes int
	// VMATAggMedianNodeBytes and VMATAggMaxNodeBytes are the median and
	// maximum per-sensor bytes of the aggregation phase alone — the
	// apples-to-apples counterpart of the paper's 2.4 KB vs 80 KB
	// comparison.
	VMATAggMedianNodeBytes int64
	VMATAggMaxNodeBytes    int64
	// VMATMaxNodeBytes is the maximum per-sensor communication of the
	// whole VMAT execution (all phases and broadcasts).
	VMATMaxNodeBytes int64
	// VMATEstimate and VMATAnswered report the query result.
	VMATEstimate float64
	VMATAnswered bool
	// NaiveMaxNodeBytes is the bottleneck sensor's bytes in the naive
	// upload (at least 8n by the paper's MAC-only accounting).
	NaiveMaxNodeBytes int64
	// Ratio is naive/VMAT at the bottleneck.
	Ratio float64
}

// RunComm executes the comparison.
func RunComm(cfg CommConfig) ([]CommRow, error) {
	// One "trial" per network size: the sizes are independent runs, so
	// they fan out across workers like Monte-Carlo trials do.
	return RunTrials(subSeed(cfg.Seed, "comm", 0),
		len(cfg.NetworkSizes), cfg.Workers,
		func(i int, _ *crypto.Stream) (CommRow, error) {
			n := cfg.NetworkSizes[i]
			env, err := newProtoEnv(n, denseProtoParams, cfg.Seed+uint64(n))
			if err != nil {
				return CommRow{}, err
			}
			res, err := core.RunCount(env.baseConfig(0, 0),
				func(id topology.NodeID) bool { return true }, cfg.Synopses)
			if err != nil {
				return CommRow{}, fmt.Errorf("n=%d: %w", n, err)
			}
			naive := baseline.RunNaiveUpload(env.graph, 8*n)
			row := CommRow{
				N:                      n,
				VMATAggMsgBytes:        core.AggMsgWireSize(cfg.Synopses),
				VMATAggMedianNodeBytes: res.Outcome.AggMedianNodeBytes,
				VMATAggMaxNodeBytes:    res.Outcome.AggMaxNodeBytes,
				VMATMaxNodeBytes:       res.Outcome.Stats.MaxNodeBytes(),
				VMATEstimate:           res.Estimate,
				VMATAnswered:           res.Answered(),
				NaiveMaxNodeBytes:      naive.Stats.MaxNodeBytes(),
			}
			if row.VMATAggMedianNodeBytes > 0 {
				// The paper's comparison: a typical sensor's aggregation
				// traffic vs the naive bottleneck.
				row.Ratio = float64(row.NaiveMaxNodeBytes) / float64(row.VMATAggMedianNodeBytes)
			}
			return row, nil
		})
}

// CommTable renders the comparison.
func CommTable(rows []CommRow) *Table {
	t := &Table{
		Title: "Section IX: per-sensor communication, VMAT (100 synopses) vs naive upload",
		Columns: []string{"n", "vmat_agg_msg_B", "vmat_agg_median_B", "vmat_agg_max_B",
			"vmat_total_max_B", "naive_max_B", "naive/vmat_agg", "vmat_estimate"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.N), d(r.VMATAggMsgBytes),
			fmt.Sprintf("%d", r.VMATAggMedianNodeBytes),
			fmt.Sprintf("%d", r.VMATAggMaxNodeBytes),
			fmt.Sprintf("%d", r.VMATMaxNodeBytes),
			fmt.Sprintf("%d", r.NaiveMaxNodeBytes),
			f2(r.Ratio), f2(r.VMATEstimate),
		})
	}
	return t
}
