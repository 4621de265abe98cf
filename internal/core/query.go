package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/crypto"
	"repro/internal/synopsis"
	"repro/internal/topology"
)

// AggregateResult is the outcome of a robust aggregate query (COUNT, SUM,
// or AVERAGE) executed through VMAT's MIN machinery.
type AggregateResult struct {
	// Outcome is the underlying execution outcome. The Estimate is only
	// meaningful when Outcome.Kind is OutcomeResult; otherwise the
	// execution ended in a revocation and the query should be re-run.
	Outcome *Outcome
	// Estimate is the (eps, delta)-approximate answer.
	Estimate float64
}

// Answered reports whether the execution produced a result.
func (r *AggregateResult) Answered() bool { return r.Outcome.Kind == OutcomeResult }

// RunCount executes a predicate COUNT query with m synopses (Section
// VIII): every sensor whose predicate holds contributes, per instance, a
// deterministic Exp(1) synopsis derived from (nonce, ID, instance); the
// per-instance minima aggregate through the ordinary VMAT execution, and
// the count is estimated from them. The base station verifies every
// winning synopsis by re-derivation, so a fabricated synopsis is detected
// exactly like a spurious minimum. The base Config's Instances, Readings,
// QueryNonce, and VerifyRecord fields are overwritten.
func RunCount(base Config, predicate func(topology.NodeID) bool, m int) (*AggregateResult, error) {
	if predicate == nil {
		return nil, errors.New("core: RunCount requires a predicate")
	}
	reading := func(id topology.NodeID) int64 {
		if id != topology.BaseStation && predicate(id) {
			return 1
		}
		return 0
	}
	return runSynopsisQuery(base, reading, []int64{1}, m)
}

// RunSum executes a SUM query with m synopses over integer readings drawn
// from the given domain. Sensors with reading 0 (or outside the domain)
// contribute nothing; the base station verifies winning synopses against
// the domain by re-derivation.
func RunSum(base Config, reading func(topology.NodeID) int64, domain []int64, m int) (*AggregateResult, error) {
	if reading == nil {
		return nil, errors.New("core: RunSum requires a reading function")
	}
	if len(domain) == 0 {
		return nil, errors.New("core: RunSum requires a non-empty reading domain")
	}
	return runSynopsisQuery(base, reading, domain, m)
}

// AverageResult reports an AVERAGE query, computed from a predicate COUNT
// and a SUM as in Section VIII.
type AverageResult struct {
	Count *AggregateResult
	Sum   *AggregateResult
	// Estimate is Sum/Count; NaN when either sub-query did not answer or
	// the count estimate is zero.
	Estimate float64
}

// RunAverage executes SUM and COUNT queries and combines them. The two
// executions use distinct nonces derived from the base seed.
func RunAverage(base Config, reading func(topology.NodeID) int64, domain []int64, m int) (*AverageResult, error) {
	sumCfg := base
	sumCfg.Seed = base.Seed ^ 0x5a5a
	sum, err := RunSum(sumCfg, reading, domain, m)
	if err != nil {
		return nil, fmt.Errorf("average sum leg: %w", err)
	}
	cntCfg := base
	cntCfg.Seed = base.Seed ^ 0xa5a5
	cnt, err := RunCount(cntCfg, func(id topology.NodeID) bool { return reading(id) > 0 }, m)
	if err != nil {
		return nil, fmt.Errorf("average count leg: %w", err)
	}
	out := &AverageResult{Count: cnt, Sum: sum, Estimate: math.NaN()}
	if sum.Answered() && cnt.Answered() && cnt.Estimate > 0 {
		out.Estimate = sum.Estimate / cnt.Estimate
	}
	return out, nil
}

// RunAverageCombined answers an AVERAGE query in a single execution by
// aggregating 2m MIN instances at once: instances [0, m) carry SUM
// synopses and [m, 2m) carry COUNT synopses. Compared with RunAverage's
// two executions it halves the fixed protocol overhead (tree formation,
// confirmation, broadcasts); the aggregate message grows to 2m records.
func RunAverageCombined(base Config, reading func(topology.NodeID) int64, domain []int64, m int) (*AverageResult, error) {
	if reading == nil {
		return nil, errors.New("core: RunAverageCombined requires a reading function")
	}
	if len(domain) == 0 {
		return nil, errors.New("core: RunAverageCombined requires a non-empty reading domain")
	}
	if m <= 0 {
		return nil, fmt.Errorf("core: need at least one synopsis instance, got %d", m)
	}
	nonce := append([]byte("synopsis-query"), crypto.Uint64(base.Seed)...)
	gens := synopsis.NewGenerators(nonce)
	base.QueryNonce = nonce
	base.Instances = 2 * m
	base.Readings = func(id topology.NodeID, inst int) float64 {
		if id == topology.BaseStation {
			return Inf()
		}
		v := reading(id)
		if v <= 0 {
			return Inf()
		}
		if inst < m {
			return gens.Generate(id, v, inst) // sum leg
		}
		return gens.Generate(id, 1, inst) // count leg
	}
	base.VerifyRecord = func(r Record) bool {
		d := domain
		if r.Instance >= m {
			d = []int64{1}
		}
		_, ok := gens.VerifyReading(r.Origin, r.Value, r.Instance, d)
		return ok
	}
	eng, err := NewEngine(base)
	if err != nil {
		return nil, err
	}
	out, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &AverageResult{
		Sum:      &AggregateResult{Outcome: out},
		Count:    &AggregateResult{Outcome: out},
		Estimate: math.NaN(),
	}
	if out.Kind == OutcomeResult {
		res.Sum.Estimate = synopsis.EstimateSum(out.Mins[:m])
		res.Count.Estimate = synopsis.EstimateSum(out.Mins[m:])
		if res.Count.Estimate > 0 {
			res.Estimate = res.Sum.Estimate / res.Count.Estimate
		}
	}
	return res, nil
}

func runSynopsisQuery(base Config, reading func(topology.NodeID) int64, domain []int64, m int) (*AggregateResult, error) {
	if m <= 0 {
		return nil, fmt.Errorf("core: need at least one synopsis instance, got %d", m)
	}
	nonce := append([]byte("synopsis-query"), crypto.Uint64(base.Seed)...)
	gens := synopsis.NewGenerators(nonce)
	base.QueryNonce = nonce
	base.Instances = m
	base.Readings = func(id topology.NodeID, inst int) float64 {
		v := reading(id)
		if v <= 0 || id == topology.BaseStation {
			return Inf()
		}
		return gens.Generate(id, v, inst)
	}
	base.VerifyRecord = func(r Record) bool {
		_, ok := gens.VerifyReading(r.Origin, r.Value, r.Instance, domain)
		return ok
	}
	eng, err := NewEngine(base)
	if err != nil {
		return nil, err
	}
	out, err := eng.Run()
	if err != nil {
		return nil, err
	}
	res := &AggregateResult{Outcome: out}
	if out.Kind == OutcomeResult {
		res.Estimate = synopsis.EstimateSum(out.Mins)
	}
	return res, nil
}
