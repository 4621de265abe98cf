package keydist

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/topology"
)

func testDeployment(t *testing.T, n int, p Params, seed uint64) *Deployment {
	t.Helper()
	d, err := NewDeployment(n, p, crypto.KeyFromUint64(seed), crypto.NewStreamFromSeed(seed))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	return d
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"paper", PaperParams(), false},
		{"dense", DenseParams(), false},
		{"zero pool", Params{PoolSize: 0, RingSize: 1}, true},
		{"zero ring", Params{PoolSize: 10, RingSize: 0}, true},
		{"ring exceeds pool", Params{PoolSize: 10, RingSize: 11}, true},
		{"ring equals pool", Params{PoolSize: 10, RingSize: 10}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); (err != nil) != tc.wantErr {
				t.Fatalf("Validate() error = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestNewDeploymentRejectsBadInput(t *testing.T) {
	if _, err := NewDeployment(0, DenseParams(), crypto.Key{}, crypto.NewStreamFromSeed(1)); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewDeployment(5, Params{}, crypto.Key{}, crypto.NewStreamFromSeed(1)); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestRingSizeAndSortedDistinct(t *testing.T) {
	d := testDeployment(t, 30, Params{PoolSize: 500, RingSize: 60}, 1)
	for id := 0; id < 30; id++ {
		ring := d.Ring(topology.NodeID(id))
		if len(ring) != 60 {
			t.Fatalf("ring of %d has %d keys, want 60", id, len(ring))
		}
		for i := 1; i < len(ring); i++ {
			if ring[i] <= ring[i-1] {
				t.Fatalf("ring of %d not sorted/distinct at %d: %v", id, i, ring[i-1:i+1])
			}
		}
		for _, idx := range ring {
			if idx < 0 || idx >= 500 {
				t.Fatalf("ring index %d out of pool range", idx)
			}
			if !d.Holds(topology.NodeID(id), idx) {
				t.Fatalf("Holds(%d, %d) = false for ring member", id, idx)
			}
		}
	}
}

func TestHoldersInverseOfRings(t *testing.T) {
	d := testDeployment(t, 40, Params{PoolSize: 200, RingSize: 30}, 2)
	for idx := 0; idx < 200; idx++ {
		holders := d.Holders(idx)
		for i := 1; i < len(holders); i++ {
			if holders[i] <= holders[i-1] {
				t.Fatalf("holders of key %d not sorted: %v", idx, holders)
			}
		}
		for _, h := range holders {
			if !d.Holds(h, idx) {
				t.Fatalf("holder %d of key %d does not hold it", h, idx)
			}
		}
	}
	// Total ring size must equal total holder count.
	total := 0
	for idx := 0; idx < 200; idx++ {
		total += len(d.Holders(idx))
	}
	if total != 40*30 {
		t.Fatalf("holder total %d != 40*30", total)
	}
}

func TestSharedIndicesSymmetricAndCorrect(t *testing.T) {
	d := testDeployment(t, 20, Params{PoolSize: 100, RingSize: 40}, 3)
	for a := topology.NodeID(0); a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			ab := d.SharedIndices(a, b)
			ba := d.SharedIndices(b, a)
			if len(ab) != len(ba) {
				t.Fatalf("SharedIndices not symmetric for (%d,%d)", a, b)
			}
			for i := range ab {
				if ab[i] != ba[i] {
					t.Fatalf("SharedIndices not symmetric for (%d,%d)", a, b)
				}
				if !d.Holds(a, ab[i]) || !d.Holds(b, ab[i]) {
					t.Fatalf("shared index %d not held by both", ab[i])
				}
			}
		}
	}
}

func TestEdgeKeyIndexDeterministicLowestUnrevoked(t *testing.T) {
	d := testDeployment(t, 10, Params{PoolSize: 50, RingSize: 25}, 4)
	a, b := topology.NodeID(1), topology.NodeID(2)
	shared := d.SharedIndices(a, b)
	if len(shared) < 2 {
		t.Skip("fixture produced fewer than 2 shared keys; adjust seed")
	}
	idx, ok := d.EdgeKeyIndex(a, b, nil)
	if !ok || idx != shared[0] {
		t.Fatalf("EdgeKeyIndex = %d, %v; want lowest shared %d", idx, ok, shared[0])
	}
	// Revoking the lowest shared key moves to the next one.
	idx2, ok := d.EdgeKeyIndex(a, b, func(i int) bool { return i == shared[0] })
	if !ok || idx2 != shared[1] {
		t.Fatalf("EdgeKeyIndex after revocation = %d, %v; want %d", idx2, ok, shared[1])
	}
	// Revoking everything kills the link.
	if _, ok := d.EdgeKeyIndex(a, b, func(int) bool { return true }); ok {
		t.Fatal("EdgeKeyIndex returned a fully revoked key")
	}
}

// TestEdgeKeyIndexMatchesSharedIndices checks EdgeKeyIndex against its
// reference on every node pair of a dense deployment, under filters that
// keep every key, most keys, only each pair's last shared key, and no
// key, and checks that it allocates nothing.
func TestEdgeKeyIndexMatchesSharedIndices(t *testing.T) {
	const n = 60
	d := testDeployment(t, n, DenseParams(), 9)
	rng := crypto.NewStreamFromSeed(10)
	sparse := make([]bool, DenseParams().PoolSize)
	for i := range sparse {
		sparse[i] = rng.Float64() < 0.1
	}
	filters := []struct {
		name    string
		revoked func(a, b topology.NodeID) func(int) bool
	}{
		{"none", func(a, b topology.NodeID) func(int) bool { return nil }},
		{"sparse", func(a, b topology.NodeID) func(int) bool {
			return func(i int) bool { return sparse[i] }
		}},
		{"all-but-last", func(a, b topology.NodeID) func(int) bool {
			shared := d.SharedIndices(a, b)
			return func(i int) bool { return len(shared) == 0 || i != shared[len(shared)-1] }
		}},
		{"all", func(a, b topology.NodeID) func(int) bool {
			return func(int) bool { return true }
		}},
	}
	for _, f := range filters {
		found := 0
		for a := topology.NodeID(0); a < n; a++ {
			for b := topology.NodeID(0); b < n; b++ {
				if a == b {
					continue
				}
				revoked := f.revoked(a, b)
				want, wantOK := 0, false
				for _, idx := range d.SharedIndices(a, b) {
					if revoked == nil || !revoked(idx) {
						want, wantOK = idx, true
						break
					}
				}
				got, ok := d.EdgeKeyIndex(a, b, revoked)
				if ok != wantOK || got != want {
					t.Fatalf("%s: EdgeKeyIndex(%d, %d) = %d, %v; want %d, %v", f.name, a, b, got, ok, want, wantOK)
				}
				if ok {
					found++
				}
			}
		}
		if f.name != "all" && found == 0 {
			t.Fatalf("%s: no pair had a usable key; the fixture checks nothing", f.name)
		}
	}
	revoked := filters[1].revoked(1, 2)
	if allocs := testing.AllocsPerRun(100, func() { d.EdgeKeyIndex(1, 2, revoked) }); allocs != 0 {
		t.Fatalf("EdgeKeyIndex allocates %v times per call, want 0", allocs)
	}
}

func TestSecureGraphFiltersKeylessEdges(t *testing.T) {
	// With a sparse pool, some radio links lack a shared key.
	d := testDeployment(t, 30, Params{PoolSize: 1000, RingSize: 20}, 5)
	phys := topology.Grid(5, 6)
	sec := d.SecureGraph(phys, nil)
	if sec.NumEdges() > phys.NumEdges() {
		t.Fatal("secure graph gained edges")
	}
	for _, e := range sec.Edges() {
		if _, ok := d.EdgeKeyIndex(e[0], e[1], nil); !ok {
			t.Fatalf("secure graph kept keyless edge %v", e)
		}
	}
	// With r = pool, every edge shares keys.
	dense := testDeployment(t, 30, Params{PoolSize: 30, RingSize: 30}, 6)
	if got := dense.SecureGraph(phys, nil).NumEdges(); got != phys.NumEdges() {
		t.Fatalf("full-ring secure graph lost edges: %d != %d", got, phys.NumEdges())
	}
}

func TestShareProbabilityMatchesBirthdayParadox(t *testing.T) {
	// Section III: with r = c*sqrt(u), share probability >= 1-e^{-c^2}.
	// Use c = 2 (r=200, u=10000): expect share prob around 1-e^-4 ~ 0.982.
	d := testDeployment(t, 120, Params{PoolSize: 10000, RingSize: 200}, 7)
	pairs, shared := 0, 0
	for a := topology.NodeID(0); a < 120; a++ {
		for b := a + 1; b < 120; b++ {
			pairs++
			if len(d.SharedIndices(a, b)) > 0 {
				shared++
			}
		}
	}
	got := float64(shared) / float64(pairs)
	want := 1 - math.Exp(-4)
	if got < want-0.03 {
		t.Fatalf("share probability %.3f below birthday-paradox bound %.3f", got, want)
	}
}

func TestPaperParamsShareProbabilityNearHalf(t *testing.T) {
	// Section IX: r=250, u=100000 gives share probability around 0.5.
	d := testDeployment(t, 100, PaperParams(), 8)
	pairs, shared := 0, 0
	for a := topology.NodeID(0); a < 100; a++ {
		for b := a + 1; b < 100; b++ {
			pairs++
			if len(d.SharedIndices(a, b)) > 0 {
				shared++
			}
		}
	}
	got := float64(shared) / float64(pairs)
	if got < 0.40 || got > 0.55 {
		t.Fatalf("paper-params share probability %.3f, want around 0.47", got)
	}
}

func TestDeploymentDeterministic(t *testing.T) {
	d1 := testDeployment(t, 15, Params{PoolSize: 100, RingSize: 10}, 9)
	d2 := testDeployment(t, 15, Params{PoolSize: 100, RingSize: 10}, 9)
	for id := topology.NodeID(0); id < 15; id++ {
		r1, r2 := d1.Ring(id), d2.Ring(id)
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("non-deterministic ring for node %d", id)
			}
		}
		if d1.SensorKey(id) != d2.SensorKey(id) {
			t.Fatal("non-deterministic sensor key")
		}
		if d1.RingSeed(id) != d2.RingSeed(id) {
			t.Fatal("non-deterministic ring seed")
		}
	}
}

func TestSensorKeysDistinct(t *testing.T) {
	d := testDeployment(t, 50, Params{PoolSize: 100, RingSize: 10}, 10)
	seen := make(map[crypto.Key]bool)
	for id := topology.NodeID(0); id < 50; id++ {
		k := d.SensorKey(id)
		if seen[k] {
			t.Fatalf("duplicate sensor key for node %d", id)
		}
		seen[k] = true
	}
}

func TestPoolKeysDistinct(t *testing.T) {
	d := testDeployment(t, 2, Params{PoolSize: 300, RingSize: 10}, 11)
	seen := make(map[crypto.Key]bool)
	for idx := 0; idx < 300; idx++ {
		k := d.PoolKey(idx)
		if seen[k] {
			t.Fatalf("duplicate pool key at index %d", idx)
		}
		seen[k] = true
	}
}

func TestUnionAndOverlap(t *testing.T) {
	d := testDeployment(t, 10, Params{PoolSize: 60, RingSize: 20}, 12)
	union := d.UnionOfRings([]topology.NodeID{1, 2})
	for _, idx := range d.Ring(1) {
		if !union[idx] {
			t.Fatalf("union missing ring-1 key %d", idx)
		}
	}
	for _, idx := range d.Ring(2) {
		if !union[idx] {
			t.Fatalf("union missing ring-2 key %d", idx)
		}
	}
	// Overlap of node 1 with the union must be its full ring.
	if got := d.OverlapWithUnion(1, union); got != 20 {
		t.Fatalf("overlap of member with union = %d, want 20", got)
	}
}

func TestSampleDistinctProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := crypto.NewStreamFromSeed(seed)
		u := 50 + rng.Intn(200)
		k := 1 + rng.Intn(u)
		s := make([]int, k)
		scratch := make([]uint64, (u+63)/64)
		sampleDistinct(s, u, rng, scratch)
		if len(s) != k {
			return false
		}
		for _, w := range scratch {
			if w != 0 {
				return false // scratch must come back cleared
			}
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		for _, v := range s {
			if v < 0 || v >= u {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryKeyRevocation(t *testing.T) {
	d := testDeployment(t, 20, Params{PoolSize: 100, RingSize: 30}, 13)
	r := NewRegistry(d, 5)
	idx := d.Ring(3)[0]
	if r.KeyRevoked(idx) {
		t.Fatal("fresh registry has revoked keys")
	}
	r.RevokeKey(idx)
	if !r.KeyRevoked(idx) {
		t.Fatal("RevokeKey did not revoke")
	}
	if r.KeyRevocationAnnouncements() != 1 {
		t.Fatalf("announcements = %d, want 1", r.KeyRevocationAnnouncements())
	}
	// Idempotent.
	r.RevokeKey(idx)
	if r.KeyRevocationAnnouncements() != 1 {
		t.Fatal("duplicate revocation counted")
	}
	for _, h := range d.Holders(idx) {
		if r.RevokedCountFor(h) != 1 {
			t.Fatalf("holder %d count = %d, want 1", h, r.RevokedCountFor(h))
		}
	}
}

func TestRegistryThresholdCrossing(t *testing.T) {
	d := testDeployment(t, 10, Params{PoolSize: 200, RingSize: 20}, 14)
	r := NewRegistry(d, 3)
	target := topology.NodeID(4)
	ring := d.Ring(target)
	// Revoke target's keys one at a time; it must be wholly revoked at the
	// third.
	revoked := r.RevokeKey(ring[0])
	if len(revoked) != 0 || r.NodeRevoked(target) {
		t.Fatal("node revoked too early")
	}
	r.RevokeKey(ring[1])
	if r.NodeRevoked(target) {
		t.Fatal("node revoked too early")
	}
	newly := r.RevokeKey(ring[2])
	if !r.NodeRevoked(target) {
		t.Fatal("node not revoked at threshold")
	}
	found := false
	for _, id := range newly {
		if id == target {
			found = true
		}
	}
	if !found {
		t.Fatalf("threshold crossing did not report target; got %v", newly)
	}
	// After whole revocation, all its ring keys are revoked.
	for _, idx := range ring {
		if !r.KeyRevoked(idx) {
			t.Fatalf("ring key %d not revoked after node revocation", idx)
		}
	}
	// Individual announcements stay at 3: the rest went via the seed.
	if r.KeyRevocationAnnouncements() != 3 {
		t.Fatalf("announcements = %d, want 3", r.KeyRevocationAnnouncements())
	}
}

func TestRegistryRevokeNodeDirect(t *testing.T) {
	d := testDeployment(t, 10, Params{PoolSize: 200, RingSize: 20}, 15)
	r := NewRegistry(d, 0) // threshold disabled
	newly := r.RevokeNode(7)
	if len(newly) != 1 || newly[0] != 7 {
		t.Fatalf("RevokeNode returned %v, want [7]", newly)
	}
	if !r.NodeRevoked(7) {
		t.Fatal("node not revoked")
	}
	for _, idx := range d.Ring(7) {
		if !r.KeyRevoked(idx) {
			t.Fatal("ring key not revoked with node")
		}
	}
	// With theta=0 no other node is ever threshold-revoked.
	if len(r.RevokedNodes()) != 1 {
		t.Fatalf("unexpected cascade with theta=0: %v", r.RevokedNodes())
	}
	// Idempotent.
	if got := r.RevokeNode(7); got != nil {
		t.Fatalf("re-revocation returned %v", got)
	}
}

func TestRegistryNeverRevokesBaseStation(t *testing.T) {
	d := testDeployment(t, 5, Params{PoolSize: 20, RingSize: 20}, 16)
	r := NewRegistry(d, 1) // absurdly aggressive threshold
	// Revoking any key revokes every holder... except the base station.
	r.RevokeKey(d.Ring(1)[0])
	if r.NodeRevoked(topology.BaseStation) {
		t.Fatal("base station was revoked")
	}
}

func TestRegistryCascade(t *testing.T) {
	// Full-overlap rings: revoking one node revokes everyone (except BS)
	// when theta is low, demonstrating cascade propagation.
	d := testDeployment(t, 6, Params{PoolSize: 10, RingSize: 10}, 17)
	r := NewRegistry(d, 2)
	newly := r.RevokeNode(1)
	if len(newly) != 5 { // nodes 1..5; base station spared
		t.Fatalf("cascade revoked %d nodes, want 5 (got %v)", len(newly), newly)
	}
	if r.NodeRevoked(topology.BaseStation) {
		t.Fatal("cascade hit the base station")
	}
}

func TestSuggestThetaPaperCalibration(t *testing.T) {
	// The paper's Figure 7 readings: theta around 7 for f=1 and around 27
	// for f=20 at r=250, u=100,000, n=1,000.
	p := PaperParams()
	if got := SuggestTheta(p, 1, 1000, 0.1); got < 5 || got > 9 {
		t.Fatalf("SuggestTheta(f=1) = %d, want around 7", got)
	}
	if got := SuggestTheta(p, 20, 1000, 0.1); got < 22 || got > 33 {
		t.Fatalf("SuggestTheta(f=20) = %d, want around 27", got)
	}
}

func TestSuggestThetaMonotoneInF(t *testing.T) {
	p := PaperParams()
	prev := 0
	for _, f := range []int{1, 5, 10, 20} {
		got := SuggestTheta(p, f, 10000, 0.1)
		if got < prev {
			t.Fatalf("theta not monotone in f: f=%d gives %d after %d", f, got, prev)
		}
		prev = got
	}
}

func TestSuggestThetaScalesWithDensity(t *testing.T) {
	// Denser rings (higher innocent overlap) need larger thetas.
	sparse := SuggestTheta(PaperParams(), 2, 100, 0.05)
	dense := SuggestTheta(Params{PoolSize: 10000, RingSize: 300}, 2, 100, 0.05)
	if dense <= sparse {
		t.Fatalf("dense theta %d not above sparse %d", dense, sparse)
	}
}

func TestSuggestThetaDefaultsAndBounds(t *testing.T) {
	p := Params{PoolSize: 100, RingSize: 100}
	// Full-overlap rings: every key is shared, theta must top out at the
	// ring size rather than loop forever.
	if got := SuggestTheta(p, 1, 1000, 0); got < 1 || got > p.RingSize {
		t.Fatalf("theta %d outside [1, %d]", got, p.RingSize)
	}
}

func TestMisRevocationProbabilityDropsWithTheta(t *testing.T) {
	// Sanity of the Figure 7 mechanic: with one malicious node, the number
	// of honest sensors whose overlap exceeds theta must fall sharply as
	// theta grows.
	d := testDeployment(t, 200, Params{PoolSize: 10000, RingSize: 100}, 18)
	union := d.UnionOfRings([]topology.NodeID{5})
	count := func(theta int) int {
		n := 0
		for id := topology.NodeID(0); id < 200; id++ {
			if id == 5 {
				continue
			}
			if d.OverlapWithUnion(id, union) >= theta {
				n++
			}
		}
		return n
	}
	if c1, c7 := count(1), count(7); c7 > c1/10 && c7 > 2 {
		t.Fatalf("mis-revocation did not drop: theta=1 -> %d, theta=7 -> %d", c1, c7)
	}
}
