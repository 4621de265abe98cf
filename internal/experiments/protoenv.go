package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/keydist"
	"repro/internal/topology"
)

// protoEnv is a ready-to-run protocol environment: a connected random
// geometric deployment with matching key material and deterministic
// readings, shared by the network-level experiments.
type protoEnv struct {
	graph *topology.Graph
	dep   *keydist.Deployment
	seed  uint64
}

// connectivityRadius returns a radio radius giving an expected degree of
// about deg for n nodes on the unit square.
func connectivityRadius(n int, deg float64) float64 {
	return math.Sqrt(deg / (math.Pi * float64(n)))
}

func newProtoEnv(n int, params keydist.Params, seed uint64) (*protoEnv, error) {
	rng := crypto.NewStreamFromSeed(seed)
	g, _ := topology.RandomGeometric(n, connectivityRadius(n, 12), rng.Fork([]byte("topo")))
	dep, err := keydist.NewDeployment(n, params, crypto.KeyFromUint64(seed), rng.Fork([]byte("keys")))
	if err != nil {
		return nil, fmt.Errorf("experiment deployment: %w", err)
	}
	return &protoEnv{graph: g, dep: dep, seed: seed}, nil
}

// baseConfig returns a core.Config for this environment with readings
// 100+id and the given minimum planted at minHolder (0 plants none).
func (p *protoEnv) baseConfig(minHolder topology.NodeID, minValue float64) core.Config {
	return core.Config{
		Graph:      p.graph,
		Deployment: p.dep,
		Readings: func(id topology.NodeID, _ int) float64 {
			if id == topology.BaseStation {
				return core.Inf()
			}
			if id == minHolder {
				return minValue
			}
			return 100 + float64(id)
		},
		Seed: p.seed,
	}
}

// denseProtoParams is the key pre-distribution used for protocol-level
// experiments: r = 3*sqrt(u) gives a key-share probability above 0.9999
// (Section III's birthday-paradox bound), so the secure graph tracks the
// radio graph and topology effects, not keying gaps, dominate the
// measurements.
var denseProtoParams = keydist.Params{PoolSize: 10000, RingSize: 300}
