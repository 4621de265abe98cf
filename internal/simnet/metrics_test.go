package simnet

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// TestStatsSnapshotWhileStepsInFlight calls Stats() from inside step
// functions, in the middle of a slot's sweep. Steps run one at a time on
// the goroutine that drives the network, and each send charges its
// counters as it is made, so a snapshot taken mid-slot already counts the
// sends of the steps before it. The snapshot must still be a copy:
// mutating it must not reach the live accounting.
func TestStatsSnapshotWhileStepsInFlight(t *testing.T) {
	const n = 32
	net := New(topology.Grid(8, 4), Config{DropRate: 0.3, DropRNG: crypto.NewStreamFromSeed(4)})
	net.RunSlots(20, func(ctx *Context) {
		// Every node floods every neighbor every slot; with 30% loss
		// this also exercises the loss-drop counter.
		for _, nb := range ctx.Neighbors() {
			ctx.Send(nb, payload{"m", 8})
		}
		s := ctx.net.Stats()
		if len(s.BytesSent) != n || len(s.BytesReceived) != n {
			t.Errorf("snapshot has %d/%d per-node rows, want %d",
				len(s.BytesSent), len(s.BytesReceived), n)
		}
		// Mutating the snapshot must not touch the live accounting.
		s.BytesSent[0] += 1 << 40
	})
	final := net.Stats()
	if final.BytesSent[0] >= 1<<40 {
		t.Fatal("snapshot mutation leaked into the live Stats")
	}
	if final.DroppedLoss == 0 {
		t.Fatal("expected loss drops with DropRate=0.3")
	}
	if final.Slots != 20 {
		t.Fatalf("Slots = %d, want 20", final.Slots)
	}
}

// TestReportToMatchesStats checks the flushed counters against the
// snapshot they were derived from, including TotalBytes as the sum of
// the sent and received counters.
func TestReportToMatchesStats(t *testing.T) {
	net := New(topology.Line(5), Config{DropRate: 0.3, DropRNG: crypto.NewStreamFromSeed(5)})
	net.RunSlots(6, func(ctx *Context) {
		// A self-send has no link: it is a no-link drop.
		ctx.Send(ctx.Node(), payload{"self", 1})
		for _, nb := range ctx.Neighbors() {
			ctx.Send(nb, payload{"m", 16})
		}
	})
	s := net.Stats()
	reg := metrics.New()
	s.ReportTo(reg)

	sent := reg.Counter(MetricBytesSent).Value()
	received := reg.Counter(MetricBytesReceived).Value()
	if got, want := sent+received, s.TotalBytes(); got != want {
		t.Fatalf("bytes_sent+bytes_received = %d, want Stats.TotalBytes %d", got, want)
	}
	if got := reg.Counter(MetricSlots).Value(); got != int64(s.Slots) {
		t.Fatalf("slots counter = %d, want %d", got, s.Slots)
	}
	if got := reg.Counter(MetricDroppedLoss).Value(); got != s.DroppedLoss {
		t.Fatalf("loss drops = %d, want %d", got, s.DroppedLoss)
	}
	if got := reg.Counter(MetricDroppedNoLink).Value(); got != s.DroppedNoLink {
		t.Fatalf("nolink drops = %d, want %d", got, s.DroppedNoLink)
	}
	if s.DroppedLoss == 0 || s.DroppedNoLink == 0 {
		t.Fatal("workload should produce both loss and no-link drops")
	}

	// Flushing a second snapshot accumulates (per-execution flushes sum
	// across executions in a long-lived registry).
	s.ReportTo(reg)
	if got := reg.Counter(MetricBytesSent).Value(); got != 2*sent {
		t.Fatalf("second flush: bytes_sent = %d, want %d", got, 2*sent)
	}

	// Nil registry is the documented zero-overhead no-op.
	s.ReportTo(nil)
}
