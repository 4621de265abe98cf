package authbcast

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// note is a minimal Encodable payload for tests.
type note struct {
	text string
}

func (n note) WireSize() int  { return len(n.text) }
func (n note) Encode() []byte { return []byte(n.text) }

func TestAnnounceVerifyRoundTrip(t *testing.T) {
	ch := NewChannel(crypto.KeyFromUint64(1))
	v := ch.Verifier()
	a := ch.Announce(note{"query starts at slot 10"})
	if !v.Verify(a) {
		t.Fatal("valid announcement rejected")
	}
}

func TestVerifyRejectsTamperedPayload(t *testing.T) {
	ch := NewChannel(crypto.KeyFromUint64(2))
	v := ch.Verifier()
	a := ch.Announce(note{"original"})
	forged := a
	forged.Payload = note{"tampered"}
	if v.Verify(forged) {
		t.Fatal("tampered payload accepted")
	}
}

func TestVerifyRejectsTamperedSeq(t *testing.T) {
	ch := NewChannel(crypto.KeyFromUint64(3))
	v := ch.Verifier()
	a := ch.Announce(note{"x"})
	forged := a
	forged.Seq++
	if v.Verify(forged) {
		t.Fatal("tampered sequence accepted")
	}
}

func TestVerifyRejectsWrongChannel(t *testing.T) {
	a := NewChannel(crypto.KeyFromUint64(4)).Announce(note{"x"})
	v := NewChannel(crypto.KeyFromUint64(5)).Verifier()
	if v.Verify(a) {
		t.Fatal("announcement from another channel accepted")
	}
}

func TestVerifyRejectsNilPayload(t *testing.T) {
	v := NewChannel(crypto.KeyFromUint64(6)).Verifier()
	if v.Verify(Announcement{}) {
		t.Fatal("zero announcement accepted")
	}
}

func TestAnnouncementSeqMonotonic(t *testing.T) {
	ch := NewChannel(crypto.KeyFromUint64(7))
	a1 := ch.Announce(note{"a"})
	a2 := ch.Announce(note{"b"})
	if a2.Seq <= a1.Seq {
		t.Fatalf("sequence not monotonic: %d then %d", a1.Seq, a2.Seq)
	}
}

func TestWireSizeIncludesOverhead(t *testing.T) {
	ch := NewChannel(crypto.KeyFromUint64(8))
	a := ch.Announce(note{"12345"})
	if got := a.WireSize(); got != 5+8+crypto.MACSize {
		t.Fatalf("WireSize = %d, want %d", got, 5+8+crypto.MACSize)
	}
}

func TestFloodReachesAllNodes(t *testing.T) {
	g := topology.Grid(4, 5)
	net := simnet.New(g, simnet.Config{})
	ch := NewChannel(crypto.KeyFromUint64(9))
	a := ch.Announce(note{"hello sensors"})
	res := Flood(net, ch.Verifier(), topology.BaseStation, a, nil, 100)
	if got := reached(res); got != g.NumNodes() {
		t.Fatalf("flood reached %d/%d nodes", got, g.NumNodes())
	}
	if res.Slots > g.Depth(0)+2 {
		t.Fatalf("flood took %d slots, depth is %d", res.Slots, g.Depth(0))
	}
}

func TestFloodSurvivesNonForwardingMalicious(t *testing.T) {
	// Grid with a column of silent (non-forwarding) malicious sensors that
	// do not partition the honest ones: every honest node must still
	// receive the announcement.
	g := topology.Grid(4, 5)
	malicious := map[topology.NodeID]bool{7: true, 12: true}
	net := simnet.New(g, simnet.Config{})
	ch := NewChannel(crypto.KeyFromUint64(10))
	a := ch.Announce(note{"m"})
	res := Flood(net, ch.Verifier(), topology.BaseStation, a,
		func(id topology.NodeID) bool { return !malicious[id] }, 100)
	for id := 0; id < g.NumNodes(); id++ {
		nid := topology.NodeID(id)
		if malicious[nid] {
			continue
		}
		if !res.Received[nid] {
			t.Fatalf("honest node %d did not receive the broadcast", id)
		}
	}
}

func TestFloodStopsAtPartition(t *testing.T) {
	// Line 0-1-2 where node 1 refuses to forward: node 2 is partitioned
	// (the paper's model excludes such nodes from the aggregate).
	g := topology.Line(3)
	net := simnet.New(g, simnet.Config{})
	ch := NewChannel(crypto.KeyFromUint64(11))
	a := ch.Announce(note{"p"})
	res := Flood(net, ch.Verifier(), topology.BaseStation, a,
		func(id topology.NodeID) bool { return id != 1 }, 100)
	if res.Received[2] {
		t.Fatal("partitioned node received the broadcast")
	}
	if !res.Received[1] {
		t.Fatal("silent node should still receive (it only refuses to forward)")
	}
}

func TestFloodOnSharedNetworkAccumulatesSlots(t *testing.T) {
	// Two consecutive floods on the same network must both work even
	// though slot numbers keep increasing (phases share one Network).
	g := topology.Line(4)
	net := simnet.New(g, simnet.Config{})
	ch := NewChannel(crypto.KeyFromUint64(12))
	r1 := Flood(net, ch.Verifier(), topology.BaseStation, ch.Announce(note{"one"}), nil, 50)
	r2 := Flood(net, ch.Verifier(), topology.BaseStation, ch.Announce(note{"two"}), nil, 50)
	if reached(r1) != 4 || reached(r2) != 4 {
		t.Fatalf("floods reached %d and %d nodes, want 4 and 4", reached(r1), reached(r2))
	}
}

// TestFloodRejectsForgedCopies puts a copy of the flood's announcement in
// front of a node the flood itself cannot reach: nodes 3 and 4 form a
// second component, and in the slot before the flood node 3 sends node 4
// the copy. A copy with the genuine Seq and MAC over a different payload
// is rejected, whether sent as a value or as a pointer (only the flood's
// own relayed pointer skips verification); a value copy of the genuine
// announcement is accepted and relayed.
func TestFloodRejectsForgedCopies(t *testing.T) {
	ch := NewChannel(crypto.KeyFromUint64(13))
	a := ch.Announce(note{"genuine"})
	forged := a
	forged.Payload = note{"tampered"}
	cases := []struct {
		name   string
		copy   simnet.Payload
		accept bool
	}{
		{"tampered value", forged, false},
		{"tampered pointer", &forged, false},
		{"genuine value", a, true},
	}
	for _, tc := range cases {
		g := topology.New(5)
		g.AddEdge(0, 1)
		g.AddEdge(1, 2)
		g.AddEdge(3, 4)
		net := simnet.New(g, simnet.Config{})
		net.RunSlots(1, func(ctx *simnet.Context) {
			if ctx.Node() == 3 {
				ctx.Send(4, tc.copy)
			}
		})
		res := Flood(net, ch.Verifier(), topology.BaseStation, a, nil, 20)
		if res.Received[4] != tc.accept || res.Received[3] != tc.accept {
			t.Errorf("%s: nodes 3 and 4 received = %v, %v; want %v", tc.name, res.Received[3], res.Received[4], tc.accept)
		}
		if !res.Received[2] {
			t.Errorf("%s: the flood did not reach its own component", tc.name)
		}
	}
}

// reached counts the nodes that accepted a flood's announcement.
func reached(res FloodResult) int {
	n := 0
	for _, ok := range res.Received {
		if ok {
			n++
		}
	}
	return n
}
