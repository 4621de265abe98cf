package simnet

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/topology"
)

// The faults package's Schedule must satisfy the network's fault hook.
var _ FaultModel = (*faults.Schedule)(nil)

// scriptedFaults is a fully scripted FaultModel for tests: node and link
// outages are fixed predicates, and delivery-loss draws are answered from
// a per-draw-index table (default: not lost).
type scriptedFaults struct {
	downNodes map[topology.NodeID]bool
	downLinks func(from, to topology.NodeID) bool
	lossAt    map[int]bool
	draws     int
}

func (f *scriptedFaults) BeginSlot(int) {}

func (f *scriptedFaults) NodeDown(id topology.NodeID) bool { return f.downNodes[id] }

func (f *scriptedFaults) LinkDown(from, to topology.NodeID) bool {
	return f.downLinks != nil && f.downLinks(from, to)
}

func (f *scriptedFaults) DeliveryLost() bool {
	lost := f.lossAt[f.draws]
	f.draws++
	return lost
}

func TestCrashedNodeNeitherStepsNorReceives(t *testing.T) {
	fm := &scriptedFaults{downNodes: map[topology.NodeID]bool{1: true}}
	net := New(topology.Line(3), Config{Faults: fm})
	stepped := make([]int, 3)
	received := 0
	net.RunSlots(3, func(ctx *Context) {
		stepped[ctx.Node()]++
		received += len(ctx.Inbox)
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"to-crashed", 10})
		}
	})
	if stepped[1] != 0 {
		t.Fatalf("crashed node stepped %d times, want 0", stepped[1])
	}
	if stepped[0] != 3 || stepped[2] != 3 {
		t.Fatalf("live nodes stepped %v, want 3 each", stepped)
	}
	if received != 0 {
		t.Fatal("a message reached a crashed node")
	}
	if s := net.Stats(); s.DroppedFault != 1 {
		t.Fatalf("DroppedFault = %d, want 1", s.DroppedFault)
	}
}

func TestDownLinkDropsDelivery(t *testing.T) {
	fm := &scriptedFaults{downLinks: func(from, to topology.NodeID) bool {
		return (from == 0 && to == 1) || (from == 1 && to == 0)
	}}
	net := New(topology.Line(3), Config{Faults: fm})
	received := 0
	net.RunSlots(3, func(ctx *Context) {
		received += len(ctx.Inbox)
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			// Send succeeds (the sender cannot know the link faded) but the
			// delivery is lost.
			if !ctx.Send(1, payload{"x", 4}) {
				t.Error("send over a faded link must still report success")
			}
		}
		if ctx.Slot() == 0 && ctx.Node() == 2 {
			ctx.Send(1, payload{"y", 4}) // the 1-2 link is fine
		}
	})
	if received != 1 {
		t.Fatalf("received %d messages, want 1 (only over the live link)", received)
	}
	if s := net.Stats(); s.DroppedFault != 1 {
		t.Fatalf("DroppedFault = %d, want 1", s.DroppedFault)
	}
}

func TestARQRecoversFromBurstLoss(t *testing.T) {
	// Draw 0 is the first delivery attempt: lost. The retransmission
	// (draw 1) and its ack (draw 2) get through.
	fm := &scriptedFaults{lossAt: map[int]bool{0: true}}
	net := New(topology.Line(2), Config{Faults: fm, ARQ: &ARQConfig{}})
	var got []Message
	net.RunSlots(6, func(ctx *Context) {
		got = append(got, ctx.Inbox...)
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"reliable", 20})
		}
	})
	if len(got) != 1 || got[0].Payload.(payload).tag != "reliable" {
		t.Fatalf("delivered %v, want exactly one copy of the frame", got)
	}
	s := net.Stats()
	if s.Retransmits != 1 || s.ARQFailed != 0 || s.ARQDuplicates != 0 {
		t.Fatalf("stats = %+v, want 1 retransmit and no failures/duplicates", s)
	}
	if s.AcksSent != 1 || s.AcksLost != 0 {
		t.Fatalf("acks sent/lost = %d/%d, want 1/0", s.AcksSent, s.AcksLost)
	}
	// Ack bytes are charged: the receiver paid to send the ack, the
	// sender paid to receive it. Frame: 20 bytes sent twice by node 0.
	if s.BytesSent[1] != 8 || s.BytesReceived[0] != 8 {
		t.Fatalf("ack accounting: node1 sent %d, node0 received %d, want 8/8",
			s.BytesSent[1], s.BytesReceived[0])
	}
	if s.BytesSent[0] != 40 {
		t.Fatalf("node0 sent %d bytes, want 40 (frame + retransmission)", s.BytesSent[0])
	}
}

func TestARQSuppressesDuplicateOnLostAck(t *testing.T) {
	// Draw 0: data delivered. Draw 1: its ack is lost. The sender times
	// out and retransmits; draw 2 delivers the duplicate, which the
	// receiver suppresses and re-acks (draw 3 lets the ack through).
	fm := &scriptedFaults{lossAt: map[int]bool{1: true}}
	net := New(topology.Line(2), Config{Faults: fm, ARQ: &ARQConfig{}})
	var got []Message
	net.RunSlots(6, func(ctx *Context) {
		got = append(got, ctx.Inbox...)
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"once", 16})
		}
	})
	if len(got) != 1 {
		t.Fatalf("application saw %d copies, want 1 (duplicate suppressed)", len(got))
	}
	s := net.Stats()
	if s.ARQDuplicates != 1 || s.Retransmits != 1 {
		t.Fatalf("duplicates/retransmits = %d/%d, want 1/1", s.ARQDuplicates, s.Retransmits)
	}
	if s.AcksSent != 2 || s.AcksLost != 1 {
		t.Fatalf("acks sent/lost = %d/%d, want 2/1", s.AcksSent, s.AcksLost)
	}
}

func TestARQGivesUpAfterBudget(t *testing.T) {
	// The 0-1 link is permanently down: every attempt is dropped and the
	// sender must abandon the frame after MaxRetries retransmissions.
	fm := &scriptedFaults{downLinks: func(from, to topology.NodeID) bool { return true }}
	net := New(topology.Line(2), Config{Faults: fm, ARQ: &ARQConfig{}})
	net.RunSlots(40, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"doomed", 12})
		}
	})
	s := net.Stats()
	if s.Retransmits != 3 {
		t.Fatalf("Retransmits = %d, want 3 (the default budget)", s.Retransmits)
	}
	if s.ARQFailed != 1 {
		t.Fatalf("ARQFailed = %d, want 1", s.ARQFailed)
	}
	if s.DroppedFault != 4 {
		t.Fatalf("DroppedFault = %d, want 4 (initial + 3 retransmissions)", s.DroppedFault)
	}
}

func TestARQZeroCountersWhenDisabled(t *testing.T) {
	net := New(topology.Line(3), Config{})
	net.RunSlots(3, func(ctx *Context) {
		if ctx.Slot() == 0 && ctx.Node() == 0 {
			ctx.Send(1, payload{"plain", 10})
		}
	})
	s := net.Stats()
	if s.Retransmits != 0 || s.AcksSent != 0 || s.ARQFailed != 0 || s.ARQDuplicates != 0 || s.AcksLost != 0 || s.DroppedFault != 0 {
		t.Fatalf("fault/ARQ counters nonzero without faults or ARQ: %+v", s)
	}
}

func TestARQConfigValidateAndDefaults(t *testing.T) {
	if err := (*ARQConfig)(nil).Validate(); err != nil {
		t.Fatalf("nil config: %v", err)
	}
	if err := (&ARQConfig{Timeout: -1}).Validate(); err == nil {
		t.Fatal("negative timeout accepted")
	}
	if err := (&ARQConfig{MaxRetries: -1}).Validate(); err == nil {
		t.Fatal("negative retries accepted")
	}
	d := ARQConfig{}.withDefaults()
	if d.Timeout != 2 || d.MaxRetries != 3 || d.BackoffCap != 16 || d.AckBytes != 8 {
		t.Fatalf("defaults = %+v", d)
	}
}

// TestNoGoroutineLeakAfterFaultyRun is the simnet half of the
// goroutine-leak regression check: after concurrent executions under an
// aggressive fault schedule, every per-slot step goroutine must have
// exited.
func TestNoGoroutineLeakAfterFaultyRun(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 4; trial++ {
		g := topology.Grid(6, 6)
		sched := faults.NewSchedule(faults.Spec{
			CrashProb:    0.05,
			RecoverProb:  0.2,
			LinkDownProb: 0.05,
			LinkUpProb:   0.3,
		}, g, uint64(trial)+1)
		net := New(g, Config{Faults: sched, ARQ: &ARQConfig{}})
		var mu sync.Mutex
		net.RunSlots(30, func(ctx *Context) {
			mu.Lock()
			mu.Unlock()
			if ctx.Slot()%3 == int(ctx.Node())%3 {
				ctx.Broadcast(payload{"churn", 6})
			}
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}
