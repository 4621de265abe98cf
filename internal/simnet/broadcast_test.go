package simnet

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/crypto"
	"repro/internal/faults"
	"repro/internal/topology"
)

// delivery is one inbox entry as a step saw it.
type delivery struct {
	slot     int
	to, from topology.NodeID
	tag      string
	seq      uint64
}

// TestBroadcastEqualsSends runs the same protocol twice, once relaying
// with Broadcast and once with a Send to each neighbour in neighbour
// order, and requires identical inbox logs and Stats. The protocol
// floods from three origins at the start of each of two runs; a node
// relays at most twice per run, answers the first sender of each relayed
// inbox with a unicast, and stops listening after its second relay.
// Adversary-first senders also broadcast every third slot of their own
// accord. Loss, the fault schedule, the ARQ and the adversary-first set
// each change which copies arrive, in what order, and which coins they
// draw, so every combination runs in dense and sparse sweeps over 30
// seeds of a 40-node geometric graph.
func TestBroadcastEqualsSends(t *testing.T) {
	const n, runs, runSlots = 40, 2, 14
	losses := []string{"lossless", "drop", "faults"}
	var covered Stats
	for seed := uint64(1); seed <= 30; seed++ {
		g, _ := topology.RandomGeometric(n, 0.3, crypto.NewStreamFromSeed(seed))
		origins := []topology.NodeID{0, topology.NodeID(1 + seed%(n-1)), topology.NodeID(1 + (7*seed)%(n-1))}
		firstIDs := []topology.NodeID{topology.NodeID(5 + seed%15), topology.NodeID(35 - seed%15)}
		first := map[topology.NodeID]bool{firstIDs[0]: true, firstIDs[1]: true}
		for _, loss := range losses {
			for _, arq := range []bool{false, true} {
				for _, adversaryFirst := range []bool{false, true} {
					for _, sparse := range []bool{false, true} {
						cfg := func() Config {
							var c Config
							switch loss {
							case "drop":
								c.DropRate, c.DropRNG = 0.2, crypto.NewStreamFromSeed(seed^0xd0)
							case "faults":
								c.DropRate, c.DropRNG = 0.05, crypto.NewStreamFromSeed(seed^0xd0)
								c.Faults = faults.NewSchedule(faults.Spec{
									CrashProb: 0.02, RecoverProb: 0.3,
									LinkDownProb: 0.05, LinkUpProb: 0.3,
									Burst: &faults.BurstSpec{EnterProb: 0.2, ExitProb: 0.4, LossBad: 0.6, LossGood: 0.02},
								}, g, seed)
							}
							if arq {
								c.ARQ = &ARQConfig{}
							}
							if adversaryFirst {
								c.FirstFrom = first
							}
							return c
						}
						name := fmt.Sprintf("seed %d, %s, arq=%v, adversary-first=%v, sparse=%v", seed, loss, arq, adversaryFirst, sparse)
						run := func(broadcast bool) ([]delivery, Stats) {
							net := New(g, cfg())
							var log []delivery
							relays := make([]int, n)
							relay := func(ctx *Context, tag string) {
								p := payload{tag: tag, size: 10 + len(tag)}
								if broadcast {
									if got := ctx.Broadcast(p); got != len(ctx.Neighbors()) {
										t.Fatalf("%s: Broadcast returned %d, want %d", name, got, len(ctx.Neighbors()))
									}
									return
								}
								for _, nb := range ctx.Neighbors() {
									ctx.Send(nb, p)
								}
							}
							var start int
							step := func(ctx *Context) {
								id := ctx.Node()
								for _, m := range ctx.Inbox {
									log = append(log, delivery{m.Slot, m.To, m.From, m.Payload.(payload).tag, m.seq})
								}
								if first[id] && ctx.Slot()%3 == 0 {
									relay(ctx, fmt.Sprintf("first %d@%d", id, ctx.Slot()))
								}
								origin := ctx.Slot() == start && slices.Contains(origins, id)
								if (len(ctx.Inbox) == 0 && !origin) || relays[id] == 2 {
									return
								}
								relays[id]++
								relay(ctx, fmt.Sprintf("%d@%d", id, ctx.Slot()))
								if len(ctx.Inbox) > 0 {
									ctx.Send(ctx.Inbox[0].From, payload{tag: fmt.Sprintf("ack %d@%d", id, ctx.Slot()), size: 4})
								}
								if relays[id] == 2 {
									ctx.StopListening()
								}
							}
							for r := 0; r < runs; r++ {
								start = net.Slot()
								clear(relays)
								if sparse {
									for _, id := range origins {
										net.WakeAt(start, id)
									}
									net.SetAlwaysActive(firstIDs)
									net.RunSlotsActive(runSlots, step)
								} else {
									net.RunSlots(runSlots, step)
								}
							}
							return log, net.Stats()
						}
						bLog, bStats := run(true)
						sLog, sStats := run(false)
						if len(bLog) == 0 {
							t.Fatalf("%s: nothing was delivered", name)
						}
						if !slices.Equal(bLog, sLog) {
							for i := range min(len(bLog), len(sLog)) {
								if bLog[i] != sLog[i] {
									t.Fatalf("%s: delivery %d differs: broadcast %+v, sends %+v", name, i, bLog[i], sLog[i])
								}
							}
							t.Fatalf("%s: broadcast delivered %d messages, sends %d", name, len(bLog), len(sLog))
						}
						if !reflect.DeepEqual(bStats, sStats) {
							t.Fatalf("%s: stats differ:\nbroadcast %+v\nsends     %+v", name, bStats, sStats)
						}
						covered.DroppedLoss += bStats.DroppedLoss
						covered.DroppedFault += bStats.DroppedFault
						covered.Retransmits += bStats.Retransmits
						covered.ARQDuplicates += bStats.ARQDuplicates
						covered.AcksLost += bStats.AcksLost
						covered.ARQFailed += bStats.ARQFailed
					}
				}
			}
		}
	}
	if covered.DroppedLoss == 0 || covered.DroppedFault == 0 || covered.Retransmits == 0 ||
		covered.ARQDuplicates == 0 || covered.AcksLost == 0 || covered.ARQFailed == 0 {
		t.Fatalf("the seeds do not exercise every loss and ARQ path: %+v", covered)
	}
}

// TestStopListening pins the contract of Context.StopListening on a line
// 0-1-2: node 1 stops listening in slot 0 of a run, and node 0 then sends
// it a message. The delivery is charged to node 1 (and acked under the
// ARQ) but does not reach its inbox; a sparse sweep does not step it for
// that delivery, and a dense one steps it with an empty inbox. The next
// run listens again.
func TestStopListening(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		for _, arq := range []bool{false, true} {
			name := fmt.Sprintf("sparse=%v, arq=%v", sparse, arq)
			cfg := Config{}
			if arq {
				cfg.ARQ = &ARQConfig{}
			}
			net := New(topology.Line(3), cfg)
			var steps []int // node 1's steps, as slots
			var got []Message
			start := 0
			step := func(ctx *Context) {
				switch ctx.Node() {
				case 0:
					if ctx.Slot() == start {
						ctx.Send(1, payload{"to-1", 10})
					}
				case 1:
					steps = append(steps, ctx.Slot())
					got = append(got, ctx.Inbox...)
					if ctx.Slot() == 0 {
						ctx.StopListening()
					}
				}
			}
			run := func() {
				if sparse {
					net.WakeAt(net.Slot(), 0)
					if net.Slot() == 0 {
						net.WakeAt(0, 1)
					}
					net.RunSlotsActive(5, step)
				} else {
					net.RunSlots(5, step)
				}
			}
			run()
			s := net.Stats()
			if len(got) != 0 {
				t.Fatalf("%s: a node that stopped listening read %v", name, got)
			}
			if s.BytesReceived[1] != 10 || s.MessagesReceived[1] != 1 {
				t.Fatalf("%s: node 1 charged %d bytes in %d messages, want 10 in 1", name, s.BytesReceived[1], s.MessagesReceived[1])
			}
			if arq && (s.AcksSent != 1 || s.Retransmits != 0 || s.BytesSent[1] != 8) {
				t.Fatalf("%s: acks sent %d, retransmits %d, node 1 sent %d bytes; want the frame acked once", name, s.AcksSent, s.Retransmits, s.BytesSent[1])
			}
			wantSteps := []int{0, 1, 2, 3, 4}
			if sparse {
				wantSteps = []int{0}
			}
			if !slices.Equal(steps, wantSteps) {
				t.Fatalf("%s: node 1 stepped in slots %v, want %v", name, steps, wantSteps)
			}

			// The next run listens again.
			start, steps = net.Slot(), nil
			run()
			if len(got) != 1 || got[0].Slot != start+1 || got[0].Payload.(payload).tag != "to-1" {
				t.Fatalf("%s: after a new run node 1 read %v, want the message in slot %d", name, got, start+1)
			}
			if sparse && !slices.Equal(steps, []int{start + 1}) {
				t.Fatalf("%s: in the new run node 1 stepped in slots %v, want [%d]", name, steps, start+1)
			}
		}
	}
}

// TestBroadcastCopyRetransmitsFromSendSlot loses one copy of a broadcast
// (the hub's copy to node 2, fault draw 2: each copy draws for its frame
// and then for its ack). Under the ARQ that copy is its own frame: its
// ack timeout runs from the slot the broadcast was sent in, so it goes
// out again two slots later, alone, under the next send sequence.
func TestBroadcastCopyRetransmitsFromSendSlot(t *testing.T) {
	fm := &scriptedFaults{lossAt: map[int]bool{2: true}}
	net := New(topology.Star(4), Config{Faults: fm, ARQ: &ARQConfig{}})
	var got []delivery
	net.RunSlots(6, func(ctx *Context) {
		for _, m := range ctx.Inbox {
			got = append(got, delivery{m.Slot, m.To, m.From, m.Payload.(payload).tag, m.seq})
		}
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Broadcast(payload{"b", 6})
		}
	})
	want := []delivery{{1, 1, 0, "b", 0}, {1, 3, 0, "b", 2}, {3, 2, 0, "b", 3}}
	if !slices.Equal(got, want) {
		t.Fatalf("deliveries = %+v, want %+v", got, want)
	}
	if s := net.Stats(); s.Retransmits != 1 || s.AcksSent != 3 || s.MessagesSent[0] != 4 {
		t.Fatalf("retransmits %d, acks %d, hub sent %d; want 1, 3, 4", s.Retransmits, s.AcksSent, s.MessagesSent[0])
	}
}
