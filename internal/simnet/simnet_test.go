package simnet

import (
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// payload is a trivial test payload.
type payload struct {
	tag  string
	size int
}

func (p payload) WireSize() int { return p.size }

func TestDeliveryTakesOneSlot(t *testing.T) {
	net := New(topology.Line(3), Config{})
	var got []Message
	var mu sync.Mutex
	net.RunSlots(3, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"hello", 10})
		}
		mu.Lock()
		got = append(got, ctx.Inbox...)
		mu.Unlock()
	})
	if len(got) != 1 {
		t.Fatalf("delivered %d messages, want 1", len(got))
	}
	m := got[0]
	if m.From != 0 || m.To != 1 || m.Slot != 1 {
		t.Fatalf("message = %+v, want from 0 to 1 at slot 1", m)
	}
	if m.Payload.(payload).tag != "hello" {
		t.Fatal("payload corrupted")
	}
}

func TestNoDeliveryWithoutLink(t *testing.T) {
	net := New(topology.Line(3), Config{})
	delivered := 0
	var mu sync.Mutex
	net.RunSlots(2, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			if ctx.Send(2, payload{"skip", 1}) { // 0 and 2 are not adjacent
				t.Error("Send over missing link reported success")
			}
		}
		mu.Lock()
		delivered += len(ctx.Inbox)
		mu.Unlock()
	})
	if delivered != 0 {
		t.Fatalf("message crossed a missing link")
	}
	if s := net.Stats(); s.DroppedNoLink != 1 {
		t.Fatalf("DroppedNoLink = %d, want 1", s.DroppedNoLink)
	}
}

func TestSelfSendRejected(t *testing.T) {
	net := New(topology.Line(2), Config{})
	net.RunSlots(1, func(ctx *Context) {
		if ctx.Node() == 0 && ctx.Send(0, payload{"self", 1}) {
			t.Error("self-send reported success")
		}
	})
}

func TestExtraLinkWormhole(t *testing.T) {
	// Nodes 0 and 4 are far apart on a line but colluding out of band.
	colluders := map[topology.NodeID]bool{0: true, 4: true}
	net := New(topology.Line(5), Config{
		ExtraLink: func(from, to topology.NodeID) bool {
			return colluders[from] && colluders[to]
		},
	})
	var got []Message
	var mu sync.Mutex
	net.RunSlots(2, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			if !ctx.Send(4, payload{"wormhole", 4}) {
				t.Error("wormhole send failed")
			}
		}
		mu.Lock()
		got = append(got, ctx.Inbox...)
		mu.Unlock()
	})
	if len(got) != 1 || got[0].To != 4 {
		t.Fatalf("wormhole message not delivered: %v", got)
	}
}

func TestLinkFilterVetoesEdges(t *testing.T) {
	blocked := true
	net := New(topology.Line(2), Config{
		LinkFilter: func(from, to topology.NodeID) bool { return !blocked },
	})
	delivered := 0
	var mu sync.Mutex
	step := func(ctx *Context) {
		if ctx.Node() == 0 {
			ctx.Send(1, payload{"x", 1})
		}
		mu.Lock()
		delivered += len(ctx.Inbox)
		mu.Unlock()
	}
	net.RunSlots(2, step)
	if delivered != 0 {
		t.Fatal("filtered link delivered a message")
	}
	// The filter is consulted live: unblock and the same network delivers.
	blocked = false
	net.RunSlots(2, step)
	if delivered == 0 {
		t.Fatal("unblocked link failed to deliver")
	}
}

func TestCapacityCap(t *testing.T) {
	g := topology.Star(5) // node 0 has 4 neighbors
	net := New(g, Config{MaxSendsPerSlot: 2})
	received := 0
	var mu sync.Mutex
	net.RunSlots(2, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			if sent := ctx.Broadcast(payload{"b", 1}); sent != 2 {
				t.Errorf("Broadcast sent %d, want cap 2", sent)
			}
		}
		mu.Lock()
		received += len(ctx.Inbox)
		mu.Unlock()
	})
	if received != 2 {
		t.Fatalf("received %d, want 2 (cap)", received)
	}
	if s := net.Stats(); s.DroppedCapacity != 2 {
		t.Fatalf("DroppedCapacity = %d, want 2", s.DroppedCapacity)
	}
}

func TestBroadcastReachesAllNeighbors(t *testing.T) {
	g := topology.Star(6)
	net := New(g, Config{})
	var mu sync.Mutex
	gotAt := map[topology.NodeID]int{}
	net.RunSlots(2, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			if sent := ctx.Broadcast(payload{"b", 3}); sent != 5 {
				t.Errorf("Broadcast sent %d, want 5", sent)
			}
		}
		mu.Lock()
		gotAt[ctx.Node()] += len(ctx.Inbox)
		mu.Unlock()
	})
	for id := topology.NodeID(1); id < 6; id++ {
		if gotAt[id] != 1 {
			t.Fatalf("neighbor %d received %d messages, want 1", id, gotAt[id])
		}
	}
}

func TestByteAccounting(t *testing.T) {
	net := New(topology.Line(2), Config{})
	net.RunSlots(3, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"a", 100})
		}
		if ctx.Slot() == 1 && ctx.Node() == 1 {
			ctx.Send(0, payload{"reply", 40})
		}
	})
	s := net.Stats()
	if s.BytesSent[0] != 100 || s.BytesReceived[1] != 100 {
		t.Fatalf("forward accounting wrong: sent0=%d recv1=%d", s.BytesSent[0], s.BytesReceived[1])
	}
	if s.BytesSent[1] != 40 || s.BytesReceived[0] != 40 {
		t.Fatalf("reply accounting wrong: sent1=%d recv0=%d", s.BytesSent[1], s.BytesReceived[0])
	}
	if s.TotalBytes() != 280 {
		t.Fatalf("TotalBytes = %d, want 280", s.TotalBytes())
	}
	if s.NodeBytes(0) != 140 || s.MaxNodeBytes() != 140 {
		t.Fatalf("NodeBytes/MaxNodeBytes wrong: %d, %d", s.NodeBytes(0), s.MaxNodeBytes())
	}
	if s.MessagesSent[0] != 1 || s.MessagesReceived[0] != 1 {
		t.Fatal("message counters wrong")
	}
	if s.Slots != 3 {
		t.Fatalf("Slots = %d, want 3", s.Slots)
	}
}

func TestInboxDefaultOrderDeterministic(t *testing.T) {
	// Many senders to one hub; inbox must arrive sorted by sender.
	g := topology.Star(10)
	run := func() []topology.NodeID {
		net := New(g, Config{})
		var order []topology.NodeID
		net.RunSlots(2, func(ctx *Context) {
			if ctx.Slot() == 0 && ctx.Node() != 0 {
				ctx.Send(0, payload{"x", 1})
			}
			if ctx.Node() == 0 {
				for _, m := range ctx.Inbox {
					order = append(order, m.From)
				}
			}
		})
		return order
	}
	o1, o2 := run(), run()
	if len(o1) != 9 || len(o2) != 9 {
		t.Fatalf("hub received %d/%d messages, want 9", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("inbox order not deterministic across runs")
		}
		if i > 0 && o1[i] < o1[i-1] {
			t.Fatal("default inbox order not sorted by sender")
		}
	}
}

func TestMaliciousFirstOrder(t *testing.T) {
	g := topology.Star(10)
	mal := map[topology.NodeID]bool{7: true, 9: true}
	net := New(g, Config{Order: MaliciousFirstOrder(mal)})
	var order []topology.NodeID
	net.RunSlots(2, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() != 0 {
			ctx.Send(0, payload{"x", 1})
		}
		if ctx.Node() == 0 {
			for _, m := range ctx.Inbox {
				order = append(order, m.From)
			}
		}
	})
	if len(order) != 9 {
		t.Fatalf("hub received %d, want 9", len(order))
	}
	if !mal[order[0]] || !mal[order[1]] {
		t.Fatalf("malicious messages not first: %v", order)
	}
	// Honest portion stays sorted (stable reorder).
	for i := 3; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("honest suffix not stable-sorted: %v", order)
		}
	}
}

func TestRunUntilQuiescent(t *testing.T) {
	// A message ping-pongs 0->1->2 then stops; quiescence after 3 slots of
	// activity (send at 0, hop at 1, final delivery processed at 2, then
	// slot 3 starts empty).
	net := New(topology.Line(3), Config{})
	ran := net.RunUntilQuiescent(100, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"x", 1})
		}
		for range ctx.Inbox {
			if ctx.Node() == 1 {
				ctx.Send(2, payload{"x", 1})
			}
		}
	})
	if ran != 3 {
		t.Fatalf("ran %d slots, want 3", ran)
	}
}

func TestRunUntilQuiescentHonorsMax(t *testing.T) {
	// Two nodes bounce a message forever; the max must stop it.
	net := New(topology.Line(2), Config{})
	ran := net.RunUntilQuiescent(7, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"x", 1})
		}
		for _, m := range ctx.Inbox {
			ctx.Send(m.From, payload{"x", 1})
		}
	})
	if ran != 7 {
		t.Fatalf("ran %d slots, want 7 (max)", ran)
	}
}

func TestDropRateLosesMessages(t *testing.T) {
	g := topology.Star(2)
	net := New(g, Config{DropRate: 0.5, DropRNG: crypto.NewStreamFromSeed(1)})
	delivered := 0
	var mu sync.Mutex
	const sends = 400
	net.RunSlots(sends+1, func(ctx *Context) {
		if ctx.Node() == 0 && ctx.Slot() < sends {
			ctx.Send(1, payload{"x", 1})
		}
		mu.Lock()
		delivered += len(ctx.Inbox)
		mu.Unlock()
	})
	s := net.Stats()
	if s.DroppedLoss == 0 {
		t.Fatal("no losses at 50% drop rate")
	}
	if delivered+int(s.DroppedLoss) != sends {
		t.Fatalf("delivered %d + lost %d != sent %d", delivered, s.DroppedLoss, sends)
	}
	if delivered < sends/4 || delivered > 3*sends/4 {
		t.Fatalf("delivered %d of %d at 50%% loss, implausible", delivered, sends)
	}
	// Lost messages must not be charged to the receiver.
	if s.BytesReceived[1] != int64(delivered) {
		t.Fatalf("receiver charged %d bytes for %d deliveries", s.BytesReceived[1], delivered)
	}
}

func TestDropRateZeroIsLossless(t *testing.T) {
	net := New(topology.Star(2), Config{DropRNG: crypto.NewStreamFromSeed(2)})
	got := 0
	var mu sync.Mutex
	net.RunSlots(10, func(ctx *Context) {
		if ctx.Node() == 0 && ctx.Slot() < 5 {
			ctx.Send(1, payload{"x", 1})
		}
		mu.Lock()
		got += len(ctx.Inbox)
		mu.Unlock()
	})
	if got != 5 {
		t.Fatalf("delivered %d of 5 without loss configured", got)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	net := New(topology.Line(2), Config{})
	s := net.Stats()
	s.BytesSent[0] = 999
	if net.Stats().BytesSent[0] != 0 {
		t.Fatal("Stats snapshot shares state with network")
	}
}

func TestFloodCoversGraphWithinDepthSlots(t *testing.T) {
	// Property-ish check: flooding from the base station reaches every
	// node within Depth slots — the definition of a flooding round.
	g, _ := gridAndDepth(t)
	depth := g.Depth(0)
	net := New(g, Config{})
	seen := make([]bool, g.NumNodes())
	var mu sync.Mutex
	net.RunSlots(depth+1, func(ctx *Context) {
		first := false
		mu.Lock()
		if ctx.Slot() == 0 && ctx.Node() == 0 && !seen[0] {
			seen[0] = true
			first = true
		} else if len(ctx.Inbox) > 0 && !seen[ctx.Node()] {
			seen[ctx.Node()] = true
			first = true
		}
		mu.Unlock()
		if first {
			ctx.Broadcast(payload{"f", 1})
		}
	})
	for id, ok := range seen {
		if !ok {
			t.Fatalf("flood did not reach node %d within depth+1 slots", id)
		}
	}
}

func gridAndDepth(t *testing.T) (*topology.Graph, int) {
	t.Helper()
	g := topology.Grid(5, 6)
	return g, g.Depth(0)
}
