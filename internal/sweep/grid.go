// Package sweep is the parameter-sweep orchestrator: it expands a JSON
// grid spec — lists of values per scenario field — into the cross
// product of individual scenario cells and feeds them through the
// service job manager, with a result-store lookup before execution and
// write-back after. This is exactly the paper's evaluation shape
// (Section IX re-runs a grid over n, topology, attack, θ, and loss),
// turned into a first-class server workload: progress is tracked per
// sweep, results export as JSON or CSV, and because every completed
// cell is persisted in the content-addressed store, a killed server
// resumes a resubmitted sweep by skipping everything already done.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/simnet"
	"repro/internal/store"
)

// DefaultMaxCells caps a grid expansion unless the spec raises it, and
// MaxCellsLimit is the ceiling no spec may exceed: cross products grow
// fast, and an unbounded one is a denial-of-service on the worker pool.
const (
	DefaultMaxCells = 4096
	MaxCellsLimit   = 65536
)

// Grid is a sweep specification: each list field enumerates values for
// the corresponding experiments.ScenarioConfig field, and the expansion
// is their cross product (in field order: n outermost, synopses
// innermost). Empty lists default to a single neutral value. Scalar
// fields (trials, seed, faults, ARQ, max slots) are shared by every
// cell — vary what the paper varies, pin the rest.
type Grid struct {
	N         []int     `json:"n,omitempty"`
	Topology  []string  `json:"topology,omitempty"`
	Query     []string  `json:"query,omitempty"`
	Attack    []string  `json:"attack,omitempty"`
	Malicious []int     `json:"malicious,omitempty"`
	Multipath []bool    `json:"multipath,omitempty"`
	LossRate  []float64 `json:"loss_rate,omitempty"`
	Theta     []int     `json:"theta,omitempty"`
	Synopses  []int     `json:"synopses,omitempty"`

	// Trials, Seed, and Workers apply to every cell. Zero trials means
	// 20; zero seed means 2011; zero workers means all cores.
	Trials  int    `json:"trials,omitempty"`
	Seed    uint64 `json:"seed,omitempty"`
	Workers int    `json:"workers,omitempty"`

	// Faults/ARQ/MaxSlots configure fault injection identically for
	// every cell (they are part of each cell's content address).
	Faults   *faults.Spec      `json:"faults,omitempty"`
	ARQ      *simnet.ARQConfig `json:"arq,omitempty"`
	MaxSlots int               `json:"max_slots,omitempty"`

	// MaxCells is the explicit expansion cap. Zero means
	// DefaultMaxCells; values beyond MaxCellsLimit are rejected.
	MaxCells int `json:"max_cells,omitempty"`
}

// Cell is one expanded grid point: a fully normalized scenario spec and
// its content address in the result store.
type Cell struct {
	Spec experiments.ScenarioConfig
	Key  string
}

func orInts(v []int, def int) []int {
	if len(v) == 0 {
		return []int{def}
	}
	return v
}

func orStrings(v []string, def string) []string {
	if len(v) == 0 {
		return []string{def}
	}
	return v
}

// maliciousFor returns the malicious-count dimension for one attack
// value: "none" has no attackers by definition, and attacked cells
// default to a single compromised sensor when the grid doesn't sweep
// the count.
func (g *Grid) maliciousFor(attack string) []int {
	if attack == "none" {
		return []int{0}
	}
	return orInts(g.Malicious, 1)
}

// cap returns the effective expansion cap.
func (g *Grid) cap() int {
	if g.MaxCells == 0 {
		return DefaultMaxCells
	}
	return g.MaxCells
}

// size computes the exact expansion size without materializing it, so
// an over-cap grid is rejected in O(attacks) time.
func (g *Grid) size() int {
	perAttack := 0
	for _, a := range orStrings(g.Attack, "none") {
		perAttack += len(g.maliciousFor(a))
	}
	return len(orInts(g.N, 60)) * len(orStrings(g.Topology, "geometric")) *
		len(orStrings(g.Query, "min")) * perAttack *
		max(len(g.Multipath), 1) * max(len(g.LossRate), 1) *
		max(len(g.Theta), 1) * max(len(g.Synopses), 1)
}

// Expand materializes the grid into validated cells, deduplicated by
// content address (normalization can collapse distinct grid points —
// e.g. attack "none" ignores the malicious dimension — and the second
// occurrence would only ever be a guaranteed cache hit). Any invalid
// cell fails the whole expansion: a sweep that silently dropped cells
// would report misleading coverage.
func (g *Grid) Expand() ([]Cell, error) {
	return g.expand(func(i int, _ Cell, err error) error {
		return fmt.Errorf("sweep: cell %d: %w", i, err)
	})
}

// expand is Expand with the verdict on each invalid cell left to
// invalid: an error fails the expansion, nil keeps the cell.
func (g *Grid) expand(invalid func(i int, c Cell, err error) error) ([]Cell, error) {
	if g.MaxCells < 0 || g.MaxCells > MaxCellsLimit {
		return nil, fmt.Errorf("sweep: max_cells %d out of range [0, %d]", g.MaxCells, MaxCellsLimit)
	}
	if total := g.size(); total > g.cap() {
		return nil, fmt.Errorf("sweep: grid expands to %d cells, exceeding the cap of %d (raise max_cells up to %d or shrink the grid)",
			total, g.cap(), MaxCellsLimit)
	}
	trials := g.Trials
	if trials == 0 {
		trials = 20
	}
	seed := g.Seed
	if seed == 0 {
		seed = 2011
	}

	var cells []Cell
	seen := map[string]bool{}
	multis := g.Multipath
	if len(multis) == 0 {
		multis = []bool{false}
	}
	losses := g.LossRate
	if len(losses) == 0 {
		losses = []float64{0}
	}
	for _, n := range orInts(g.N, 60) {
		for _, topo := range orStrings(g.Topology, "geometric") {
			for _, query := range orStrings(g.Query, "min") {
				for _, attack := range orStrings(g.Attack, "none") {
					for _, mal := range g.maliciousFor(attack) {
						for _, multi := range multis {
							for _, loss := range losses {
								for _, theta := range orInts(g.Theta, 0) {
									for _, syn := range orInts(g.Synopses, 100) {
										spec := experiments.ScenarioConfig{
											N: n, Topology: topo, Query: query,
											Attack: attack, Malicious: mal,
											Multipath: multi, LossRate: loss,
											Theta: theta, Synopses: syn,
											Trials: trials, Seed: seed, Workers: g.Workers,
											Faults: g.Faults, ARQ: g.ARQ, MaxSlots: g.MaxSlots,
										}
										spec.Normalize()
										key, err := store.ScenarioKey(spec)
										if err != nil {
											return nil, fmt.Errorf("sweep: cell %d: %w", len(cells), err)
										}
										if err := spec.Validate(); err != nil {
											if err := invalid(len(cells), Cell{Spec: spec, Key: key}, err); err != nil {
												return nil, err
											}
										}
										if seen[key] {
											continue
										}
										seen[key] = true
										cells = append(cells, Cell{Spec: spec, Key: key})
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep: grid expands to no cells")
	}
	return cells, nil
}

// cellsKey is a sweep's content address: the hash of its ordered
// expanded cell keys. Two grids that expand to the same cells — however
// differently they were spelled — are the same sweep, which is what
// lets a resubmission attach to the live sweep instead of
// double-enqueueing, and a recovered sweep be matched across restarts.
func cellsKey(cells []Cell) string {
	h := sha256.New()
	for _, c := range cells {
		h.Write([]byte(c.Key))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}
