package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/faults"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// ScenarioConfig is the service-shaped workload: the vmat-sim scenario
// (topology, query, attack) run as Trials independent executions through
// the deterministic trial-runner. It is the job spec cmd/vmat-server
// accepts over HTTP and the workload `vmat-bench -exp scenario` prints,
// so both front ends produce bit-identical rows for the same seed and
// any worker count.
type ScenarioConfig struct {
	// N is the node count; node 0 is the base station.
	N int `json:"n"`
	// Topology is geometric, grid, or line.
	Topology string `json:"topology"`
	// Query is min, count, sum, or average.
	Query string `json:"query"`
	// Attack is none, drop, hide, junk, choke, drop-choke, or mute.
	Attack string `json:"attack"`
	// Malicious is the number of compromised sensors (ignored for
	// Attack "none").
	Malicious int `json:"malicious"`
	// Multipath enables ring-based multi-path aggregation.
	Multipath bool `json:"multipath"`
	// LossRate drops each delivered message with this probability.
	LossRate float64 `json:"loss_rate"`
	// Synopses is the instance count for count/sum/average (default 100).
	Synopses int `json:"synopses"`
	// Theta is the whole-sensor revocation threshold; 0 auto-calibrates
	// via keydist.SuggestTheta.
	Theta int `json:"theta"`
	// Trials is the number of independent executions.
	Trials int `json:"trials"`
	// Seed drives the whole scenario deterministically.
	Seed uint64 `json:"seed"`
	// Workers caps trial parallelism; 0 uses GOMAXPROCS. Rows are
	// identical for every worker count.
	Workers int `json:"workers"`
	// Faults, when present and non-zero, injects a deterministic fault
	// schedule (crashes, link churn, bursty loss, partitions) into every
	// trial; degraded trials report partial/unreachable/retransmit
	// columns. Omitted or zero keeps fault-free behavior bit-identical.
	Faults *faults.Spec `json:"faults,omitempty"`
	// ARQ, when present, enables the simnet link-layer ARQ for every
	// trial (zero-valued fields take the documented defaults).
	ARQ *simnet.ARQConfig `json:"arq,omitempty"`
	// MaxSlots is the per-execution slot deadline; 0 derives a default
	// when faults or the ARQ are configured (see core.Config.MaxSlots).
	MaxSlots int `json:"max_slots,omitempty"`

	// Context, when non-nil, cancels the run: each trial checks it
	// before starting and the run returns the context's error. Used by
	// the job service's DELETE endpoint.
	Context context.Context `json:"-"`
	// Trace, when non-nil, receives every engine event of every trial,
	// tagged with the trial index. Trials run concurrently, so the
	// callback must be safe for concurrent use.
	Trace func(trial int, ev core.Event) `json:"-"`
	// Metrics, when non-nil, receives per-execution engine counters.
	Metrics *metrics.Registry `json:"-"`
}

// DefaultScenario returns a small attacked deployment: the drop attack
// of Section III on a geometric network, MIN query, 20 trials.
func DefaultScenario() ScenarioConfig {
	return ScenarioConfig{
		N:         60,
		Topology:  "geometric",
		Query:     "min",
		Attack:    "drop",
		Malicious: 2,
		Synopses:  100,
		Trials:    20,
		Seed:      2011,
	}
}

// QuickScenario is the -quick tier: 40 sensors, 5 trials.
func QuickScenario() ScenarioConfig {
	cfg := DefaultScenario()
	cfg.N = 40
	cfg.Trials = 5
	return cfg
}

// scenarioTopologies and scenarioQueries/scenarioAttacks are the
// accepted enum values, shared with Validate's error messages.
var (
	scenarioTopologies = []string{"geometric", "grid", "line"}
	scenarioQueries    = []string{"min", "count", "sum", "average"}
	scenarioAttacks    = []string{"none", "drop", "hide", "junk", "choke", "drop-choke", "mute"}
)

func oneOf(v string, allowed []string) bool {
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

// Normalize fills defaulted fields in place (empty topology/query/attack
// strings, zero synopsis count).
func (c *ScenarioConfig) Normalize() {
	if c.Topology == "" {
		c.Topology = "geometric"
	}
	if c.Query == "" {
		c.Query = "min"
	}
	if c.Attack == "" {
		c.Attack = "none"
	}
	if c.Synopses == 0 {
		c.Synopses = 100
	}
	if c.Attack == "none" {
		c.Malicious = 0
	}
}

// Validate reports the first problem with the scenario, or nil. It does
// not normalize; call Normalize first when accepting external specs.
func (c *ScenarioConfig) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("scenario: need at least 2 nodes, got %d", c.N)
	}
	if c.N > 100_000 {
		return fmt.Errorf("scenario: n %d exceeds the 100000-node limit", c.N)
	}
	if !oneOf(c.Topology, scenarioTopologies) {
		return fmt.Errorf("scenario: unknown topology %q (want one of %v)", c.Topology, scenarioTopologies)
	}
	if c.Topology == "grid" {
		if rows, cols := gridShape(c.N); rows*cols != c.N {
			return fmt.Errorf("scenario: a grid cannot hold n %d: it would be %d×%d = %d nodes", c.N, rows, cols, rows*cols)
		}
	}
	if !oneOf(c.Query, scenarioQueries) {
		return fmt.Errorf("scenario: unknown query %q (want one of %v)", c.Query, scenarioQueries)
	}
	if !oneOf(c.Attack, scenarioAttacks) {
		return fmt.Errorf("scenario: unknown attack %q (want one of %v)", c.Attack, scenarioAttacks)
	}
	if c.Attack != "none" && (c.Malicious < 1 || c.Malicious >= c.N) {
		return fmt.Errorf("scenario: malicious count %d out of range [1, n)", c.Malicious)
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("scenario: loss rate %g out of range [0, 1)", c.LossRate)
	}
	if c.Synopses < 1 || c.Synopses > 10_000 {
		return fmt.Errorf("scenario: synopsis count %d out of range [1, 10000]", c.Synopses)
	}
	if c.Theta < 0 {
		return fmt.Errorf("scenario: negative theta %d", c.Theta)
	}
	if c.Trials < 1 || c.Trials > 100_000 {
		return fmt.Errorf("scenario: trial count %d out of range [1, 100000]", c.Trials)
	}
	if err := c.Faults.Validate(c.N); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if err := c.ARQ.Validate(); err != nil {
		return fmt.Errorf("scenario: %w", err)
	}
	if c.MaxSlots < 0 {
		return fmt.Errorf("scenario: negative max_slots %d", c.MaxSlots)
	}
	return nil
}

// ScenarioRow is one trial's result. Every field is JSON-safe (no NaN or
// Inf): Answer is zero when Answered is false.
type ScenarioRow struct {
	Trial          int     `json:"trial"`
	Outcome        string  `json:"outcome"`
	Answered       bool    `json:"answered"`
	Answer         float64 `json:"answer"`
	Slots          int     `json:"slots"`
	FloodingRounds float64 `json:"flooding_rounds"`
	PredicateTests int     `json:"predicate_tests"`
	RevokedKeys    int     `json:"revoked_keys"`
	RevokedNodes   int     `json:"revoked_nodes"`
	TotalBytes     int64   `json:"total_bytes"`
	MaxNodeBytes   int64   `json:"max_node_bytes"`
	// Degradation columns, all zero on fault-free scenarios (and then
	// omitted from JSON, keeping pre-fault job output byte-identical).
	Partial     bool  `json:"partial,omitempty"`
	Unreachable int   `json:"unreachable,omitempty"`
	Retransmits int64 `json:"retransmits,omitempty"`
}

// RunScenario executes every trial of the scenario, the range
// [0, Trials), and returns per-trial rows in trial order. Rows are a
// pure function of the config's scenario fields for any Workers value.
func RunScenario(cfg ScenarioConfig) ([]ScenarioRow, error) {
	return RunScenarioRange(cfg, 0, cfg.Trials)
}

// RunScenarioRange executes trials [start, end) of the scenario and
// returns their rows in trial order (rows[0].Trial == start). The rows
// are bit-identical to the corresponding slice of a full RunScenario:
// the per-trial streams come from the same fork sequence (see
// RunTrialRange), and each row carries its global trial index. This is
// the execution primitive behind internal/shard — a fleet runs disjoint
// ranges and the coordinator concatenates them back in range order.
func RunScenarioRange(cfg ScenarioConfig, start, end int) ([]ScenarioRow, error) {
	cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return RunTrialRange(subSeed(cfg.Seed, "scenario", uint64(cfg.N)),
		cfg.Trials, start, end, cfg.Workers,
		func(trial int, rng *crypto.Stream) (ScenarioRow, error) {
			if cfg.Context != nil && cfg.Context.Err() != nil {
				return ScenarioRow{}, cfg.Context.Err()
			}
			return scenarioTrial(cfg, trial, rng)
		})
}

// scenarioTrial runs one independent execution: fresh topology, key
// material, and malicious set, all drawn from the trial's private
// stream.
func scenarioTrial(cfg ScenarioConfig, trial int, rng *crypto.Stream) (ScenarioRow, error) {
	graph, err := ScenarioTopology(cfg.Topology, cfg.N, rng)
	if err != nil {
		return ScenarioRow{}, err
	}
	dep, err := keydist.NewDeployment(cfg.N, denseProtoParams,
		crypto.KeyFromUint64(rng.Uint64()), rng.Fork([]byte("keys")))
	if err != nil {
		return ScenarioRow{}, err
	}
	// Normalize zeroed Malicious for Attack "none".
	mal := PlaceMalicious(graph, cfg.Malicious, rng)
	adv, err := ScenarioAttack(cfg.Attack)
	if err != nil {
		return ScenarioRow{}, err
	}
	theta := cfg.Theta
	if theta == 0 {
		theta = keydist.SuggestTheta(denseProtoParams, max(len(mal), 1), cfg.N, 0.05)
	}

	ecfg := core.Config{
		Graph:            graph,
		Deployment:       dep,
		Registry:         keydist.NewRegistry(dep, theta),
		Malicious:        mal,
		Adversary:        adv,
		Multipath:        cfg.Multipath,
		LossRate:         cfg.LossRate,
		Seed:             rng.Uint64(),
		Metrics:          cfg.Metrics,
		Readings:         ScenarioMinReading,
		AdversaryFavored: cfg.Attack != "none",
		Faults:           cfg.Faults,
		ARQ:              cfg.ARQ,
		MaxSlots:         cfg.MaxSlots,
	}
	if cfg.Trace != nil {
		trace := cfg.Trace
		ecfg.Trace = func(ev core.Event) { trace(trial, ev) }
	}

	switch cfg.Query {
	case "min":
		eng, err := core.NewEngine(ecfg)
		if err != nil {
			return ScenarioRow{}, err
		}
		out, err := eng.Run()
		if err != nil {
			return ScenarioRow{}, err
		}
		row := newScenarioRow(trial, out)
		// Under fault injection the base station can announce a minimum of
		// +Inf — every sensor value was lost in transit. That is not a
		// usable answer, and a non-finite float would make the whole row
		// slice unmarshalable (json.Marshal rejects Inf), turning a server
		// job view into an empty 200.
		if out.Kind == core.OutcomeResult && !math.IsInf(out.Mins[0], 0) && !math.IsNaN(out.Mins[0]) {
			row.Answered = true
			row.Answer = out.Mins[0]
		}
		return row, nil
	case "count":
		res, err := core.RunCount(ecfg, ScenarioCountPredicate, cfg.Synopses)
		if err != nil {
			return ScenarioRow{}, err
		}
		return aggregateRow(trial, res), nil
	case "sum":
		res, err := core.RunSum(ecfg, ScenarioSumReading, ScenarioSumDomain, cfg.Synopses)
		if err != nil {
			return ScenarioRow{}, err
		}
		return aggregateRow(trial, res), nil
	case "average":
		res, err := core.RunAverageCombined(ecfg, ScenarioAvgReading, ScenarioAvgDomain, cfg.Synopses)
		if err != nil {
			return ScenarioRow{}, err
		}
		row := newScenarioRow(trial, res.Sum.Outcome)
		if !math.IsNaN(res.Estimate) && !math.IsInf(res.Estimate, 0) {
			row.Answered = true
			row.Answer = res.Estimate
		}
		return row, nil
	default:
		return ScenarioRow{}, fmt.Errorf("scenario: unknown query %q", cfg.Query)
	}
}

// PlaceMalicious rejection-samples count compromised sensors (never the
// base station) from rng, keeping only those that leave the honest
// component connected, so an attack tests the protocol rather than a
// partitioned network. It gives up after 20*count+60 draws, so a placement
// the graph cannot hold comes back smaller than count.
func PlaceMalicious(g *topology.Graph, count int, rng *crypto.Stream) map[topology.NodeID]bool {
	mal := map[topology.NodeID]bool{}
	for attempts := 0; len(mal) < count && attempts < 20*count+60; attempts++ {
		cand := topology.NodeID(rng.Intn(g.NumNodes()-1) + 1)
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

// The deterministic workload of every scenario query: sensor id reads
// 100+id for MIN, the even IDs satisfy the COUNT predicate, and SUM and
// AVERAGE read (id mod 10)+1 and (id mod 5)+1 over the matching domains.
// The base station reads nothing.
var (
	ScenarioSumDomain = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	ScenarioAvgDomain = []int64{1, 2, 3, 4, 5}
)

// ScenarioMinReading is the MIN query's core.Config.Readings.
func ScenarioMinReading(id topology.NodeID, _ int) float64 {
	if id == topology.BaseStation {
		return core.Inf()
	}
	return 100 + float64(id)
}

// ScenarioCountPredicate is the COUNT query's predicate.
func ScenarioCountPredicate(id topology.NodeID) bool { return id%2 == 0 }

// ScenarioSumReading is the SUM query's reading, in ScenarioSumDomain.
func ScenarioSumReading(id topology.NodeID) int64 {
	if id == topology.BaseStation {
		return 0
	}
	return int64(id%10) + 1
}

// ScenarioAvgReading is the AVERAGE query's reading, in ScenarioAvgDomain.
func ScenarioAvgReading(id topology.NodeID) int64 {
	if id == topology.BaseStation {
		return 0
	}
	return int64(id%5) + 1
}

func newScenarioRow(trial int, out *core.Outcome) ScenarioRow {
	return ScenarioRow{
		Trial:          trial,
		Outcome:        out.Kind.String(),
		Slots:          out.Slots,
		FloodingRounds: out.FloodingRounds,
		PredicateTests: out.PredicateTests,
		RevokedKeys:    len(out.RevokedKeys),
		RevokedNodes:   len(out.RevokedNodes),
		TotalBytes:     out.Stats.TotalBytes(),
		MaxNodeBytes:   out.Stats.MaxNodeBytes(),
		Partial:        out.Partial,
		Unreachable:    out.Unreachable,
		Retransmits:    out.Stats.Retransmits,
	}
}

func aggregateRow(trial int, res *core.AggregateResult) ScenarioRow {
	row := newScenarioRow(trial, res.Outcome)
	if res.Answered() && !math.IsNaN(res.Estimate) && !math.IsInf(res.Estimate, 0) {
		row.Answered = true
		row.Answer = res.Estimate
	}
	return row
}

// gridShape is the grid a "grid" scenario lays n nodes out on: side
// rows, the smallest side with side² >= n, of ceil(n/side) nodes each.
// It holds exactly n nodes only when those multiply back to n, which
// Validate requires.
func gridShape(n int) (rows, cols int) {
	side := 1
	for side*side < n {
		side++
	}
	return side, (n + side - 1) / side
}

// ScenarioTopology builds the deployment shape kind (geometric, grid or
// line) over n nodes. A geometric graph forks its layout from rng and
// has an expected degree of 12; a grid takes gridShape(n), which holds
// more than n nodes when n does not fill it.
func ScenarioTopology(kind string, n int, rng *crypto.Stream) (*topology.Graph, error) {
	switch kind {
	case "geometric":
		g, _ := topology.RandomGeometric(n, connectivityRadius(n, 12), rng.Fork([]byte("topo")))
		return g, nil
	case "grid":
		return topology.Grid(gridShape(n)), nil
	case "line":
		return topology.Line(n), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", kind)
	}
}

// ScenarioAttack returns the adversary named by a scenario's Attack.
func ScenarioAttack(name string) (core.Adversary, error) {
	switch name {
	case "none":
		return core.HonestAdversary{}, nil
	case "drop":
		return adversary.NewDropper(1000), nil
	case "hide":
		return adversary.NewHider(), nil
	case "junk":
		return adversary.NewJunkInjector(-1e6), nil
	case "choke":
		return adversary.NewChoker(), nil
	case "drop-choke":
		return adversary.NewDropAndChoke(1000), nil
	case "mute":
		return adversary.NewMute(), nil
	default:
		return nil, fmt.Errorf("unknown attack %q", name)
	}
}

// ScenarioTable renders the rows as vmat-bench prints them.
func ScenarioTable(cfg ScenarioConfig, rows []ScenarioRow) *Table {
	t := &Table{
		Title: fmt.Sprintf("Scenario: n=%d %s %s query, attack=%s x%d, %d trials, seed %d",
			cfg.N, cfg.Topology, cfg.Query, cfg.Attack, cfg.Malicious, cfg.Trials, cfg.Seed),
		Columns: []string{"trial", "outcome", "answered", "answer", "slots", "rounds", "tests", "rev_keys", "rev_nodes", "total_bytes"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			d(r.Trial), r.Outcome, fmt.Sprintf("%v", r.Answered), f2(r.Answer),
			d(r.Slots), f2(r.FloodingRounds), d(r.PredicateTests),
			d(r.RevokedKeys), d(r.RevokedNodes), fmt.Sprintf("%d", r.TotalBytes),
		})
	}
	return t
}
