package simnet

import "repro/internal/metrics"

// Metric names reported by ReportTo. They aggregate across all nodes of
// an execution; the serving layer sums them across executions.
const (
	MetricBytesSent     = "simnet_bytes_sent_total"
	MetricBytesReceived = "simnet_bytes_received_total"
	MetricMessagesSent  = "simnet_messages_sent_total"
	MetricSlots         = "simnet_slots_total"
	MetricDroppedNoLink = "simnet_dropped_nolink_total"
	MetricDroppedLoss   = "simnet_dropped_loss_total"
	MetricDroppedFault  = "simnet_dropped_fault_total"
	MetricRetransmits   = "simnet_arq_retransmits_total"
	MetricARQFailed     = "simnet_arq_failed_total"
	MetricARQDuplicates = "simnet_arq_duplicates_total"
	MetricAcksSent      = "simnet_arq_acks_sent_total"
	MetricAcksLost      = "simnet_arq_acks_lost_total"
)

// ReportTo adds this snapshot's aggregate counters to the registry. The
// per-slot hot loop stays metrics-free: accounting accumulates in plain
// Stats fields during execution and is flushed here once per execution
// (the registry lookups and atomic adds are amortized over the whole
// run). A nil registry is a no-op, preserving the zero-overhead path.
func (s *Stats) ReportTo(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	var sent, received, msgs int64
	for i := range s.BytesSent {
		sent += s.BytesSent[i]
		received += s.BytesReceived[i]
		msgs += s.MessagesSent[i]
	}
	reg.Counter(MetricBytesSent).Add(sent)
	reg.Counter(MetricBytesReceived).Add(received)
	reg.Counter(MetricMessagesSent).Add(msgs)
	reg.Counter(MetricSlots).Add(int64(s.Slots))
	reg.Counter(MetricDroppedNoLink).Add(s.DroppedNoLink)
	reg.Counter(MetricDroppedLoss).Add(s.DroppedLoss)
	reg.Counter(MetricDroppedFault).Add(s.DroppedFault)
	reg.Counter(MetricRetransmits).Add(s.Retransmits)
	reg.Counter(MetricARQFailed).Add(s.ARQFailed)
	reg.Counter(MetricARQDuplicates).Add(s.ARQDuplicates)
	reg.Counter(MetricAcksSent).Add(s.AcksSent)
	reg.Counter(MetricAcksLost).Add(s.AcksLost)
}
