// Package authbcast models the DoS-resilient authenticated broadcast
// primitive VMAT imports from Ning et al. [20] (paper Section III/IV): the
// base station can broadcast messages that every honest sensor receives
// within one flooding round and that malicious sensors can neither forge
// nor choke.
//
// The real scheme uses a muTESLA-style one-way key chain with delayed key
// disclosure. Here the chain is modelled by a broadcast key known to the
// Channel (held by the trusted base station) and to Verifiers (held by
// sensors). The model boundary is the API: adversary code is handed
// Verifiers — which can check announcements but never expose the key — so
// it can replay or drop announcements but not mint or alter them, exactly
// the power the paper grants the adversary against [20]. Replays are
// rejected by sequence number.
package authbcast

import (
	"slices"

	"repro/internal/crypto"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Encodable is a broadcast payload with a stable byte encoding, required
// so the announcement MAC covers the payload content.
type Encodable interface {
	simnet.Payload
	Encode() []byte
}

// Announcement is an authenticated broadcast message minted by the base
// station's Channel. The MAC covers the sequence number and the payload
// encoding, so tampering with either is detected by any Verifier.
type Announcement struct {
	Seq     uint64
	Payload Encodable
	mac     crypto.MAC
}

// WireSize accounts for the payload plus the sequence number and MAC.
func (a Announcement) WireSize() int {
	return a.Payload.WireSize() + 8 + crypto.MACSize
}

// Channel mints announcements. Only the base station holds a Channel.
type Channel struct {
	key crypto.Key
	seq uint64
}

// NewChannel creates a broadcast channel keyed by key.
func NewChannel(key crypto.Key) *Channel {
	return &Channel{key: key}
}

// Announce mints the next authenticated announcement carrying payload.
func (c *Channel) Announce(payload Encodable) Announcement {
	c.seq++
	return Announcement{
		Seq:     c.seq,
		Payload: payload,
		mac:     crypto.ComputeMAC(c.key, crypto.Uint64(c.seq), payload.Encode()),
	}
}

// Verifier checks announcements without exposing the broadcast key.
type Verifier struct {
	key crypto.Key
}

// Verifier returns a verifier for announcements minted by this channel.
func (c *Channel) Verifier() Verifier { return Verifier{key: c.key} }

// Verify reports whether a is an untampered announcement from the channel.
func (v Verifier) Verify(a Announcement) bool {
	if a.Payload == nil {
		return false
	}
	return crypto.VerifyMAC(v.key, a.mac, crypto.Uint64(a.Seq), a.Payload.Encode())
}

// FloodResult reports the outcome of one broadcast flood.
type FloodResult struct {
	// Received[id] reports whether node id accepted the announcement.
	Received []bool
	// Slots is the number of network slots the flood consumed.
	Slots int
}

// Flood propagates announcement a from origin over net until quiescent (at
// most maxSlots). Each node accepts the first valid copy it receives and —
// if forward(node) is true, which is how malicious sensors decline to
// relay — rebroadcasts it once to its neighbors. Invalid or replayed
// copies are ignored, which is why choking the broadcast is impossible:
// the only message that propagates is the valid announcement, and each
// node relays it at most once.
//
// a's MAC is verified once per flood, not once per receiver: every relay
// sends the same *Announcement, so a node recognises the copies this
// flood put on the air by pointer and takes the one verdict for them.
// Any other announcement value in an inbox is verified in full.
func Flood(net *simnet.Network, v Verifier, origin topology.NodeID, a Announcement,
	forward func(topology.NodeID) bool, maxSlots int) FloodResult {

	relay := &a
	valid := v.Verify(a)
	accepts := func(m simnet.Message) bool {
		switch ann := m.Payload.(type) {
		case *Announcement:
			if ann == relay {
				return valid
			}
			return ann.Seq == a.Seq && v.Verify(*ann)
		case Announcement:
			return ann.Seq == a.Seq && v.Verify(ann)
		}
		return false
	}
	// received is indexed per node; each node's step touches only its own
	// element. The sweep is sparse: only the origin is woken explicitly
	// (to inject the announcement), every other node acts purely on
	// receipt, so a flood costs work proportional to the traffic it
	// creates rather than to network size.
	received := make([]bool, net.Graph().NumNodes())
	net.WakeAt(net.Slot(), origin)
	slots := net.RunUntilQuiescentActive(maxSlots, func(ctx *simnet.Context) {
		id := ctx.Node()
		if received[id] {
			return
		}
		// The origin injects the announcement on its first step of this
		// flood; every other node needs a valid copy.
		if id != origin && !slices.ContainsFunc(ctx.Inbox, accepts) {
			return
		}
		received[id] = true
		if forward == nil || forward(id) {
			ctx.Broadcast(relay)
		}
	})
	return FloodResult{Received: received, Slots: slots}
}
