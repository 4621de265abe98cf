// Package keydist implements the Eschenauer-Gligor random key
// pre-distribution scheme the paper assumes for pair-wise sensor
// authentication (Section III), plus the revocation bookkeeping VMAT's
// pinpointing builds on (Section VI-C).
//
// Each sensor is loaded with a key ring of r keys drawn uniformly at
// random from a global pool of u symmetric keys. Two neighboring sensors
// that share a pool key use it as their edge key. Key rings are derived
// from per-sensor seeds so that revoking an entire sensor only requires
// announcing its seed, exactly as the paper notes in Section VI-A.
//
// The base station knows the full assignment: which sensor holds which
// pool keys and, symmetrically, the exact holder set of every pool key.
// Figures 5 and 6 of the paper rely on that knowledge for the binary
// searches of the pinpointing protocol.
package keydist

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// Params configures an Eschenauer-Gligor deployment.
type Params struct {
	// PoolSize is u, the size of the global key pool.
	PoolSize int
	// RingSize is r, the number of pool keys loaded onto each sensor.
	RingSize int
}

// PaperParams returns the parameters of the paper's Section IX evaluation:
// rings of 250 keys drawn from a pool of 100,000, which give two sensors a
// common key with probability around 0.5.
func PaperParams() Params { return Params{PoolSize: 100000, RingSize: 250} }

// DenseParams returns parameters with a high key-share probability
// (r = 3*sqrt(u), share probability roughly 1-e^-9 > 0.999), suitable for
// protocol simulations where the secure graph should closely track the
// radio graph. The paper notes (Section III) that r = c*sqrt(u) yields
// share probability at least 1-e^{-c^2}.
func DenseParams() Params { return Params{PoolSize: 10000, RingSize: 300} }

// Validate checks the parameters for basic sanity.
func (p Params) Validate() error {
	if p.PoolSize <= 0 {
		return fmt.Errorf("keydist: pool size must be positive, got %d", p.PoolSize)
	}
	if p.RingSize <= 0 || p.RingSize > p.PoolSize {
		return fmt.Errorf("keydist: ring size %d out of range (pool %d)", p.RingSize, p.PoolSize)
	}
	return nil
}

// Deployment is a concrete key assignment for n nodes (node 0 is the base
// station, which also carries a ring so it can receive edge-authenticated
// messages from its radio neighbors). A Deployment is immutable after
// construction and safe for concurrent reads.
type Deployment struct {
	params Params
	master crypto.Key
	n      int
	rings  [][]int // per-node sorted pool indices
	// The holder sets of all pool keys share one flat backing array:
	// holderIDs[holderOff[i]:holderOff[i+1]] are the sorted holders of pool
	// index i. A flat layout replaces a map of u small slices, which
	// dominated deployment construction time and allocations at paper scale
	// (u = 100,000).
	holderOff []int32
	holderIDs []topology.NodeID
	seeds     []crypto.Key // per-node ring seed (announcing it revokes the ring)
}

// NewDeployment draws a ring for each of n nodes using rng. The master key
// seeds the key pool; each node's ring seed is derived from the master and
// the node ID so the base station can reconstruct or announce it.
func NewDeployment(n int, params Params, master crypto.Key, rng *crypto.Stream) (*Deployment, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("keydist: need at least one node, got %d", n)
	}
	d := &Deployment{
		params: params,
		master: master,
		n:      n,
		rings:  make([][]int, n),
		seeds:  make([]crypto.Key, n),
	}
	// The trial randomness is folded into the per-node seed itself, so the
	// ring is a pure function of its seed: announcing the seed is enough
	// for every sensor to reconstruct (and ignore) the revoked ring.
	salt := crypto.DeriveKey(master, "deployment-salt", rng.Uint64())
	scratch := make([]uint64, (params.PoolSize+63)/64)
	ringBacking := make([]int, n*params.RingSize)
	for id := 0; id < n; id++ {
		d.seeds[id] = crypto.DeriveKey(salt, "ring-seed", uint64(id))
		ringRNG := crypto.NewStream(d.seeds[id][:])
		ring := ringBacking[id*params.RingSize : (id+1)*params.RingSize : (id+1)*params.RingSize]
		sampleDistinct(ring, params.PoolSize, ringRNG, scratch)
		d.rings[id] = ring
	}
	// Build the holder sets with a counting pass: sizes first, then one
	// flat fill. Appending in node-ID order keeps every holder set sorted.
	d.holderOff = make([]int32, params.PoolSize+1)
	counts := make([]int32, params.PoolSize)
	for _, ring := range d.rings {
		for _, idx := range ring {
			counts[idx]++
		}
	}
	var total int32
	for i, c := range counts {
		d.holderOff[i] = total
		total += c
	}
	d.holderOff[params.PoolSize] = total
	d.holderIDs = make([]topology.NodeID, total)
	next := counts // reuse as per-key fill cursors
	copy(next, d.holderOff[:params.PoolSize])
	for id := 0; id < n; id++ {
		for _, idx := range d.rings[id] {
			d.holderIDs[next[idx]] = topology.NodeID(id)
			next[idx]++
		}
	}
	return d, nil
}

// sampleDistinct draws len(ring) distinct integers from [0, u) via Floyd's
// algorithm and stores them in ring, sorted. The scratch bitset must have
// at least u bits; it holds the sample, which is read back in order, and
// is left cleared on return, so one scratch buffer serves every node of a
// deployment. The rejection-sampling draws are identical to the earlier
// map-backed implementation, so rings are unchanged for a given seed.
func sampleDistinct(ring []int, u int, rng *crypto.Stream, scratch []uint64) {
	for j := u - len(ring); j < u; j++ {
		t := rng.Intn(j + 1)
		if scratch[t>>6]&(1<<(uint(t)&63)) != 0 {
			t = j
		}
		scratch[t>>6] |= 1 << (uint(t) & 63)
	}
	out := ring[:0]
	for w, word := range scratch {
		for ; word != 0; word &= word - 1 {
			out = append(out, w<<6+bits.TrailingZeros64(word))
		}
		scratch[w] = 0
	}
}

// NumNodes returns the number of nodes in the deployment.
func (d *Deployment) NumNodes() int { return d.n }

// Params returns the deployment parameters.
func (d *Deployment) Params() Params { return d.params }

// SensorKey returns the unique symmetric key the given node shares with
// the base station (the paper's "sensor key").
func (d *Deployment) SensorKey(id topology.NodeID) crypto.Key {
	return crypto.DeriveKey(d.master, "sensor-key", uint64(id))
}

// PoolKey returns the pool key with the given index.
func (d *Deployment) PoolKey(index int) crypto.Key {
	return crypto.DeriveKey(d.master, "pool-key", uint64(index))
}

// Ring returns the sorted pool indices held by id. The returned slice is
// shared and must not be modified.
func (d *Deployment) Ring(id topology.NodeID) []int {
	if int(id) < 0 || int(id) >= d.n {
		return nil
	}
	return d.rings[id]
}

// RingSeed returns the seed from which id's ring was derived. Announcing
// this seed revokes the whole ring (Section VI-A).
func (d *Deployment) RingSeed(id topology.NodeID) crypto.Key { return d.seeds[id] }

// Holds reports whether id's ring contains the pool key with this index.
// Rings are sorted, so this is a binary search — no per-node set needed.
func (d *Deployment) Holds(id topology.NodeID, index int) bool {
	if int(id) < 0 || int(id) >= d.n {
		return false
	}
	_, found := slices.BinarySearch(d.rings[id], index)
	return found
}

// Holders returns the sorted IDs of all nodes holding the pool key with
// the given index. The returned slice is shared and must not be modified.
// The base station uses this set in the Figure 6 binary search.
func (d *Deployment) Holders(index int) []topology.NodeID {
	if index < 0 || index >= d.params.PoolSize {
		return nil
	}
	return d.holderIDs[d.holderOff[index]:d.holderOff[index+1]]
}

// SharedIndices returns the sorted pool indices common to the rings of a
// and b — their candidate edge keys. No protocol path calls it: it is the
// reference EdgeKeyIndex is tested against.
func (d *Deployment) SharedIndices(a, b topology.NodeID) []int {
	ra, rb := d.Ring(a), d.Ring(b)
	var out []int
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] == rb[j]:
			out = append(out, ra[i])
			i++
			j++
		case ra[i] < rb[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// EdgeKeyIndex returns the pool index of the edge key a and b use: the
// lowest-indexed common key not filtered out by revoked (which may be
// nil). The second result reports whether a usable edge key exists. Both
// endpoints compute the same answer, so no negotiation is needed. It is
// the first element of SharedIndices that revoked keeps, found by
// merge-walking the two sorted rings only as far as that element, so it
// allocates nothing; every sealed send calls it.
func (d *Deployment) EdgeKeyIndex(a, b topology.NodeID, revoked func(index int) bool) (int, bool) {
	ra, rb := d.Ring(a), d.Ring(b)
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] == rb[j]:
			if revoked == nil || !revoked(ra[i]) {
				return ra[i], true
			}
			i++
			j++
		case ra[i] < rb[j]:
			i++
		default:
			j++
		}
	}
	return 0, false
}

// SecureGraph returns the subgraph of physical containing only edges whose
// endpoints share at least one non-revoked pool key. VMAT's protocols run
// over this graph: without a common edge key two radio neighbors cannot
// authenticate each other (Section III).
func (d *Deployment) SecureGraph(physical *topology.Graph, revoked func(index int) bool) *topology.Graph {
	return physical.Subgraph(func(a, b topology.NodeID) bool {
		_, ok := d.EdgeKeyIndex(a, b, revoked)
		return ok
	})
}

// OverlapWithUnion returns, for the given node, how many of its ring keys
// appear in the union set. Figure 7's mis-revocation analysis asks, for
// each honest sensor, how many of its keys the adversary's combined rings
// cover.
func (d *Deployment) OverlapWithUnion(id topology.NodeID, union map[int]bool) int {
	count := 0
	for _, idx := range d.Ring(id) {
		if union[idx] {
			count++
		}
	}
	return count
}

// SuggestTheta returns the smallest whole-sensor revocation threshold
// theta such that the expected number of honest sensors mis-revoked — out
// of n sensors, against an adversary controlling f rings — stays below
// maxExpected. The ring overlap of an honest sensor with the adversary's
// combined key material is approximately Poisson with mean
// r * min(f*r, u) / u, so the threshold is the Poisson tail's crossing
// point. This is the calibration behind the paper's Figure 7 readings
// (theta around 7 for f=1, around 27 for f=20 at r=250, u=100,000); for
// denser rings the threshold must grow with the innocent overlap mean.
func SuggestTheta(p Params, f, n int, maxExpected float64) int {
	if maxExpected <= 0 {
		maxExpected = 0.1
	}
	adversaryKeys := float64(f * p.RingSize)
	if adversaryKeys > float64(p.PoolSize) {
		adversaryKeys = float64(p.PoolSize)
	}
	lambda := float64(p.RingSize) * adversaryKeys / float64(p.PoolSize)
	// Walk the Poisson pmf upward accumulating the tail from above.
	pmf := math.Exp(-lambda)
	cdf := pmf
	for theta := 1; theta <= p.RingSize; theta++ {
		tail := 1 - cdf // P(X >= theta)
		if float64(n)*tail <= maxExpected {
			return theta
		}
		pmf *= lambda / float64(theta)
		cdf += pmf
	}
	return p.RingSize
}

// UnionOfRings returns the set union of the rings of the given nodes: the
// full set of edge keys an adversary controlling those nodes can use,
// including for framing honest sensors (Section VI-C).
func (d *Deployment) UnionOfRings(ids []topology.NodeID) map[int]bool {
	union := make(map[int]bool)
	for _, id := range ids {
		for _, idx := range d.Ring(id) {
			union[idx] = true
		}
	}
	return union
}
