package simnet

import "fmt"

// ARQConfig configures the link-layer stop-and-wait ARQ. The paper's
// system model (Section III) assumes every link-layer frame is delivered
// reliably "through retransmission"; the ARQ makes that assumption
// concrete and charges its cost honestly: every unicast is acknowledged
// by the receiver, unacked frames are retransmitted after an ack timeout
// that backs off exponentially up to a cap, and a frame is abandoned once
// its retransmit budget is spent. Zero-valued fields take the documented
// defaults, so `&ARQConfig{}` enables the ARQ with sensible parameters.
type ARQConfig struct {
	// Timeout is the ack timeout, in slots, for the first transmission
	// attempt. The minimum useful value is 2: delivery takes one slot
	// and the ack returns within the delivery slot, so a sender first
	// learns of a missing ack two slots after transmitting. Zero means 2.
	Timeout int `json:"timeout,omitempty"`
	// MaxRetries bounds retransmissions per frame (beyond the initial
	// transmission). When the budget is spent the frame is abandoned and
	// counted in Stats.ARQFailed if it never got through. Zero means 3.
	MaxRetries int `json:"max_retries,omitempty"`
	// BackoffCap caps the exponentially doubling ack timeout, in slots.
	// Zero means 8×Timeout.
	BackoffCap int `json:"backoff_cap,omitempty"`
	// AckBytes is the wire size charged for each acknowledgement frame
	// (a short header plus the sequence number being acked). Zero means 8.
	AckBytes int `json:"ack_bytes,omitempty"`
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (c ARQConfig) withDefaults() ARQConfig {
	if c.Timeout == 0 {
		c.Timeout = 2
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 8 * c.Timeout
	}
	if c.AckBytes == 0 {
		c.AckBytes = 8
	}
	return c
}

// Validate reports whether the configuration is usable. A nil config is
// valid (ARQ disabled).
func (c *ARQConfig) Validate() error {
	if c == nil {
		return nil
	}
	if c.Timeout < 0 {
		return fmt.Errorf("arq: timeout %d must be >= 0", c.Timeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("arq: max_retries %d must be >= 0", c.MaxRetries)
	}
	if c.BackoffCap < 0 {
		return fmt.Errorf("arq: backoff_cap %d must be >= 0", c.BackoffCap)
	}
	if c.AckBytes < 0 {
		return fmt.Errorf("arq: ack_bytes %d must be >= 0", c.AckBytes)
	}
	return nil
}

// arqEntry tracks one frame awaiting acknowledgement. Entries live on
// the network's driver goroutine: they are created when the frame is
// first delivered (a broadcast's copies one by one as it fans out),
// stamped with the slot it was sent in, consulted at every delivery, and
// retired in arqTick.
type arqEntry struct {
	msg       Message // the frame as originally sent (retransmitted verbatim)
	attempt   int     // retransmissions performed so far
	lastSent  int     // slot of the most recent (re)transmission
	acked     bool    // an ack reached the sender
	delivered bool    // at least one copy reached the receiver
}

// deliverARQ performs receiver-side ARQ for a frame that survived the
// radio: the receiver acks it (charging ack bytes; the ack itself may be
// lost to the same loss processes as data frames), and the caller learns
// whether the payload should be handed to the application — false for
// duplicates already delivered by an earlier copy.
func (n *Network) deliverARQ(e *arqEntry) bool {
	dup := e.delivered
	e.delivered = true
	// The receiver acks every copy it hears, duplicates included: a
	// duplicate means the previous ack was lost.
	n.stats.AcksSent++
	n.stats.BytesSent[e.msg.To] += int64(n.arqCfg.AckBytes)
	lost := false
	if n.cfg.DropRate > 0 && n.cfg.DropRNG != nil && n.cfg.DropRNG.Float64() < n.cfg.DropRate {
		lost = true
	} else if f := n.cfg.Faults; f != nil && f.DeliveryLost() {
		lost = true
	}
	if lost {
		n.stats.AcksLost++
	} else {
		n.stats.BytesReceived[e.msg.From] += int64(n.arqCfg.AckBytes)
		e.acked = true
	}
	if dup {
		n.stats.ARQDuplicates++
		return false
	}
	return true
}

// arqTick retires acked frames and retransmits timed-out ones. It runs
// once per slot on the driver goroutine, right after delivery, so
// retransmissions enter the just-drained pending queue and go out with
// this slot's fresh traffic.
func (n *Network) arqTick() {
	if len(n.arq) == 0 {
		return
	}
	live := n.arq[:0]
	for _, e := range n.arq {
		if e.acked {
			continue
		}
		wait := n.arqCfg.Timeout << e.attempt
		if wait > n.arqCfg.BackoffCap {
			wait = n.arqCfg.BackoffCap
		}
		if n.slot-e.lastSent < wait {
			live = append(live, e)
			continue
		}
		senderDown := n.cfg.Faults != nil && n.cfg.Faults.NodeDown(e.msg.From)
		if e.attempt >= n.arqCfg.MaxRetries || senderDown {
			// Budget spent (or the sender itself crashed). Only count a
			// failure if no copy ever got through; a delivered frame whose
			// acks all died is a sender-side bookkeeping loss, not a
			// delivery failure.
			if !e.delivered {
				n.stats.ARQFailed++
			}
			continue
		}
		e.attempt++
		e.lastSent = n.slot
		m := e.msg
		m.seq = n.seq
		n.seq++
		n.stats.Retransmits++
		n.stats.BytesSent[m.From] += int64(m.size)
		n.stats.MessagesSent[m.From]++
		n.pending = append(n.pending, m)
		live = append(live, e)
	}
	n.arq = live
}
