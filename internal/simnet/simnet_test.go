package simnet

import (
	"fmt"
	"slices"
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
	// The hub (node 0) must read its inbox in (From, seq) order: by sender,
	// and each sender's messages in the order they were sent.
	cases := []struct {
		name string
		g    *topology.Graph
		// cfg builds a fresh config per run: a scripted fault model
		// counts its draws.
		cfg func() Config
		// send is every leaf's behaviour; the hub's inbox is read in slot
		// read.
		send func(ctx *Context)
		read int
		want []string
	}{{
		name: "one message per sender",
		g:    topology.Star(10),
		cfg:  func() Config { return Config{} },
		send: func(ctx *Context) {
			if ctx.Slot() == 0 {
				ctx.Send(0, payload{tag: fmt.Sprint(ctx.Node())})
			}
		},
		read: 1,
		want: []string{"1", "2", "3", "4", "5", "6", "7", "8", "9"},
	}, {
		name: "several messages per sender",
		g:    topology.Star(4),
		cfg:  func() Config { return Config{} },
		send: func(ctx *Context) {
			if ctx.Slot() == 0 {
				for k := 0; k < 3; k++ {
					ctx.Send(0, payload{tag: fmt.Sprintf("%d.%d", ctx.Node(), k)})
				}
			}
		},
		read: 1,
		want: []string{"1.0", "1.1", "1.2", "2.0", "2.1", "2.2", "3.0", "3.1", "3.2"},
	}, {
		// Node 3's slot-0 frame is lost (fault draw 0) and the ARQ resends
		// it in slot 2, queued ahead of that slot's fresh sends from nodes
		// 1, 2 and 3, so all four reach the hub in slot 3.
		name: "ARQ retransmission beside fresh sends",
		g:    topology.Star(4),
		cfg: func() Config {
			return Config{Faults: &scriptedFaults{lossAt: map[int]bool{0: true}}, ARQ: &ARQConfig{}}
		},
		send: func(ctx *Context) {
			switch {
			case ctx.Slot() == 0 && ctx.Node() == 3:
				ctx.Send(0, payload{tag: "3.first"})
			case ctx.Slot() == 2:
				ctx.Send(0, payload{tag: fmt.Sprintf("%d.fresh", ctx.Node())})
			}
		},
		read: 3,
		want: []string{"1.fresh", "2.fresh", "3.first", "3.fresh"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []string {
				net := New(tc.g, tc.cfg())
				var got []string
				net.RunSlots(tc.read+1, func(ctx *Context) {
					if ctx.Node() != 0 {
						tc.send(ctx)
						return
					}
					if ctx.Slot() == tc.read {
						for _, m := range ctx.Inbox {
							got = append(got, m.Payload.(payload).tag)
						}
					}
				})
				return got
			}
			got := run()
			if !slices.Equal(got, tc.want) {
				t.Fatalf("hub inbox = %v, want %v", got, tc.want)
			}
			if again := run(); !slices.Equal(again, got) {
				t.Fatalf("inbox order not deterministic across runs: %v then %v", got, again)
			}
		})
	}
}

func TestMaliciousFirstOrder(t *testing.T) {
	// Every leaf sends the hub two messages. Those of malicious 7 and 9
	// come first; within each group, the (From, seq) order is kept. A
	// false entry in the set is an honest node.
	mal := map[topology.NodeID]bool{7: true, 9: true, 3: false}
	net := New(topology.Star(10), Config{Order: MaliciousFirstOrder(mal)})
	var got []string
	net.RunSlots(2, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() != 0 {
			for k := 0; k < 2; k++ {
				ctx.Send(0, payload{tag: fmt.Sprintf("%d.%d", ctx.Node(), k)})
			}
		}
		if ctx.Node() == 0 {
			for _, m := range ctx.Inbox {
				got = append(got, m.Payload.(payload).tag)
			}
		}
	})
	want := []string{"7.0", "7.1", "9.0", "9.1",
		"1.0", "1.1", "2.0", "2.1", "3.0", "3.1", "4.0", "4.1", "5.0", "5.1", "6.0", "6.1", "8.0", "8.1"}
	if !slices.Equal(got, want) {
		t.Fatalf("hub inbox = %v, want %v", got, want)
	}
}

// TestSteadySlotAllocatesNothing runs a broadcast flood in which every
// node that received something broadcasts again, so after a few slots
// each slot carries the same traffic. Once the buffers have grown, a slot
// must allocate nothing, in dense and sparse sweeps, with and without the
// adversary-first inbox order.
func TestSteadySlotAllocatesNothing(t *testing.T) {
	g := topology.Grid(8, 8)
	var flood Payload = payload{tag: "flood", size: 8}
	step := func(ctx *Context) {
		if len(ctx.Inbox) > 0 || (ctx.Slot() == 0 && ctx.Node() == 0) {
			ctx.Broadcast(flood)
		}
	}
	orders := []struct {
		name  string
		order Orderer
	}{
		{"default order", nil},
		{"malicious first", MaliciousFirstOrder(map[topology.NodeID]bool{9: true, 27: true, 44: true})},
	}
	for _, o := range orders {
		for _, sparse := range []bool{false, true} {
			net := New(g, Config{Order: o.order})
			if sparse {
				net.WakeAt(0, 0)
			}
			slot := func() {
				if sparse {
					net.RunSlotsActive(1, step)
				} else {
					net.RunSlots(1, step)
				}
			}
			for i := 0; i < 40; i++ {
				slot()
			}
			if net.Pending() == 0 {
				t.Fatalf("%s, sparse=%v: the flood died out", o.name, sparse)
			}
			if allocs := testing.AllocsPerRun(100, slot); allocs != 0 {
				t.Errorf("%s, sparse=%v: a steady-state slot made %.1f allocations, want 0", o.name, sparse, allocs)
			}
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
