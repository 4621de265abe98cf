package main

import (
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/experiments"
	"repro/internal/sweep"
)

// Workload names, as BENCHMARK.json lists them.
const (
	ColdMix    = "cold-mix"
	WarmHits   = "warm-hits"
	FleetSweep = "fleet-sweep"
)

var workloads = []string{ColdMix, WarmHits, FleetSweep}

// defaultSeed is the workload seed the recorded digests belong to.
const defaultSeed = 1

// hotSetSize is the number of distinct specs warm-hits draws from. It
// exceeds the store's 256-entry decoded-entry cache, so a skewed draw
// produces both cache hits and segment reads.
const hotSetSize = 384

// zipfS is the skew of the warm-hits key draw: rank r is drawn with
// weight 1/(r+1)^zipfS.
const zipfS = 0.9

// Spec-seed domains. Every scenario spec the benchmark sends carries a
// seed whose top byte names the stream it came from, so the content
// addresses of different streams (and of different workload seeds
// within one stream) never collide.
const (
	domainCanary = 1
	domainCold   = 2
	domainHot    = 3
	domainSweep  = 4
)

// maxStreamIndex bounds a stream's request index: it must fit the low
// 20 bits of a spec seed.
const maxStreamIndex = 1<<20 - 1

// specSeed derives a scenario seed from its domain, the workload seed
// and the request index.
func specSeed(domain, wseed uint64, i int) uint64 {
	if i < 0 || i > maxStreamIndex {
		panic(fmt.Sprintf("vmatbench: request index %d out of range", i))
	}
	return domain<<56 | (wseed&(1<<36-1))<<20 | uint64(i)
}

// rng is splitmix64: a tiny generator whose stream is fixed by this
// file, not by a library version.
type rng struct{ s uint64 }

func newRNG(parts ...uint64) *rng {
	r := &rng{s: 0x6a09e667f3bcc909}
	for _, p := range parts {
		r.s ^= p
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// Request is one generated client request: a job spec or a sweep grid
// and the exact body the client posts.
type Request struct {
	Index int
	Body  []byte
	// Spec is set for job requests (canary, cold-mix, warm-hits).
	Spec *experiments.ScenarioConfig
	// Grid is set for fleet-sweep requests.
	Grid *sweep.Grid
	// Hot is the hot-set rank a warm-hits op resubmits.
	Hot int
}

var (
	queries = []string{"min", "count", "sum", "average"}
	attacks = []string{"none", "drop", "junk", "hide", "choke"}
)

func jobRequest(i int, spec experiments.ScenarioConfig) Request {
	body, err := json.Marshal(&spec)
	if err != nil { // a ScenarioConfig of ints and strings always encodes
		panic(err)
	}
	return Request{Index: i, Body: body, Spec: &spec}
}

// canarySpec is the i-th warm-up job every workload runs on every
// set-up. It does not depend on the workload seed, so the set-up work
// is the same on every run and its simulated statistics can be checked
// against a recorded digest.
func canarySpec(i int) experiments.ScenarioConfig {
	r := newRNG(domainCanary, defaultSeed, uint64(i))
	attack := attacks[i%len(attacks)]
	spec := experiments.ScenarioConfig{
		N:        40 + r.intn(41),
		Topology: "geometric",
		Query:    queries[i%len(queries)],
		Attack:   attack,
		Synopses: 40,
		Trials:   2,
		Seed:     specSeed(domainCanary, defaultSeed, i),
		Workers:  1,
	}
	if attack != "none" {
		spec.Malicious = 1
	}
	return spec
}

// canaryJobs is the number of canary jobs per set-up.
const canaryJobs = 16

// coldBlock is the number of (query, attack) pairs; cold-mix requests
// come in blocks that hold each pair once, in seeded order.
const coldBlock = 4 * 5

// blockSlot returns the combination request i draws within its block:
// a seeded permutation per block, so every block of size k holds each
// combination once. Stratifying this way keeps the mix of job shapes in
// a run the same for every workload seed; the seed still picks the
// order and every scenario's topology, keys and attackers.
func blockSlot(domain, wseed uint64, k, i int) (block, combo int) {
	block, pos := i/k, i%k
	perm := make([]int, k)
	for j := range perm {
		perm[j] = j
	}
	r := newRNG(domain, wseed, 1<<42, uint64(block))
	for j := k - 1; j > 0; j-- {
		x := r.intn(j + 1)
		perm[j], perm[x] = perm[x], perm[j]
	}
	return block, perm[pos]
}

// coldSpec is cold-mix request i: every query under every attack, on
// 20 to 145 nodes, three or four trials each. One worker per
// job, so the server's two executors run two jobs at once.
func coldSpec(wseed uint64, i int) experiments.ScenarioConfig {
	block, c := blockSlot(domainCold, wseed, coldBlock, i)
	r := newRNG(domainCold, wseed, uint64(i))
	query, attack := queries[c/len(attacks)], attacks[c%len(attacks)]
	spec := experiments.ScenarioConfig{
		N:        20 + 6*((7*c+3*block)%21) + r.intn(6),
		Topology: "geometric",
		Query:    query,
		Attack:   attack,
		Trials:   3 + (c+block)%2,
		Seed:     specSeed(domainCold, wseed, i),
		Workers:  1,
	}
	if query != "min" {
		// Few synopses keep every job's heap near the runtime's 4 MiB
		// floor, so the peak RSS does not hinge on which two jobs
		// happen to run at once.
		spec.Synopses = 20
	}
	if attack != "none" {
		spec.Malicious = 1 + (c/2+block)%2
	}
	return spec
}

// hotSpec is warm-hits hot-set member h: small, so storing the whole
// set during warm-up stays cheap.
func hotSpec(wseed uint64, h int) experiments.ScenarioConfig {
	r := newRNG(domainHot, wseed, uint64(h))
	attack := []string{"none", "drop"}[r.intn(2)]
	spec := experiments.ScenarioConfig{
		N:        10 + r.intn(11),
		Topology: "geometric",
		Query:    "min",
		Attack:   attack,
		Trials:   1 + r.intn(2),
		Seed:     specSeed(domainHot, wseed, h),
		Workers:  1,
	}
	if attack != "none" {
		spec.Malicious = 1
	}
	return spec
}

// zipfCDF is the cumulative rank distribution of the warm-hits draw.
var zipfCDF = func() []float64 {
	cdf := make([]float64, hotSetSize)
	total := 0.0
	for r := range cdf {
		total += 1 / math.Pow(float64(r+1), zipfS)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return cdf
}()

// hotPermutation maps popularity ranks to hot-set members, so the most
// popular specs are spread over the warm-up's put order.
func hotPermutation(wseed uint64) []int {
	perm := make([]int, hotSetSize)
	for i := range perm {
		perm[i] = i
	}
	r := newRNG(domainHot, wseed, 1<<40)
	for i := len(perm) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// hotDraw returns the hot-set member warm-hits op i resubmits.
func hotDraw(wseed uint64, perm []int, i int) int {
	u := newRNG(domainHot, wseed, 1<<41, uint64(i)).float()
	lo, hi := 0, len(zipfCDF)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if zipfCDF[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return perm[lo]
}

// sweepBlock is the number of (query, attack) pairs a fleet-sweep
// block cycles through.
const sweepBlock = 4 * 4

// sweepGrid is fleet-sweep request i: two tiny cells (no attack and one
// attack) under a fresh grid seed, so every cell misses the store. Four
// trials make four one-trial units per cell.
func sweepGrid(wseed uint64, i int) sweep.Grid {
	block, c := blockSlot(domainSweep, wseed, sweepBlock, i)
	r := newRNG(domainSweep, wseed, uint64(i))
	return sweep.Grid{
		N:        []int{16 + 2*((5*c+block)%9) + r.intn(2)},
		Topology: []string{"geometric"},
		Query:    []string{queries[c/4]},
		Attack:   []string{"none", attacks[1+c%4]},
		Synopses: []int{20},
		Trials:   4,
		Seed:     specSeed(domainSweep, wseed, i),
		Workers:  1,
	}
}

// Generator produces a workload's requests from its seed. Request i is
// a pure function of (workload, seed, i), so any client may take any
// index and a replay sees the same requests.
type Generator struct {
	Workload string
	Seed     uint64
	perm     []int
}

func NewGenerator(workload string, seed uint64) (*Generator, error) {
	g := &Generator{Workload: workload, Seed: seed}
	switch workload {
	case ColdMix, FleetSweep:
	case WarmHits:
		g.perm = hotPermutation(seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	return g, nil
}

// Request returns request i of the workload's stream.
func (g *Generator) Request(i int) Request {
	switch g.Workload {
	case ColdMix:
		return jobRequest(i, coldSpec(g.Seed, i))
	case WarmHits:
		h := hotDraw(g.Seed, g.perm, i)
		req := jobRequest(i, hotSpec(g.Seed, h))
		req.Hot = h
		return req
	default:
		grid := sweepGrid(g.Seed, i)
		body, err := json.Marshal(&grid)
		if err != nil {
			panic(err)
		}
		return Request{Index: i, Body: body, Grid: &grid}
	}
}

// WarmUp returns the set-up requests: the canary jobs, then for
// warm-hits the whole hot set.
func (g *Generator) WarmUp() []Request {
	reqs := make([]Request, 0, canaryJobs+hotSetSize)
	for i := 0; i < canaryJobs; i++ {
		reqs = append(reqs, jobRequest(i, canarySpec(i)))
	}
	if g.Workload == WarmHits {
		for h := 0; h < hotSetSize; h++ {
			req := jobRequest(canaryJobs+h, hotSpec(g.Seed, h))
			req.Hot = h
			reqs = append(reqs, req)
		}
	}
	return reqs
}
