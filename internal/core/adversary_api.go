package core

import (
	"repro/internal/crypto"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// Phase identifies which protocol phase an adversary step is running in.
type Phase int

const (
	// PhaseTree is the tree-formation phase (Section IV-A).
	PhaseTree Phase = iota + 1
	// PhaseAggregation is the MIN aggregation phase (Section IV-B).
	PhaseAggregation
	// PhaseConfirmation is the SOF confirmation phase (Section IV-C).
	PhaseConfirmation
)

// String returns the phase's name.
func (p Phase) String() string {
	switch p {
	case PhaseTree:
		return "tree"
	case PhaseAggregation:
		return "aggregation"
	case PhaseConfirmation:
		return "confirmation"
	default:
		return "unknown"
	}
}

// Adversary is the hook set through which malicious sensors act. A nil
// Adversary (or the HonestAdversary) makes malicious sensors behave
// exactly like honest ones.
//
// Step is invoked once per malicious node per slot during the three
// network phases, instead of the honest logic; the context exposes both
// the honest behavior (ActHonestly) and raw Byzantine sending power.
// Steps run one at a time, in node order, on the goroutine that called
// Run; a strategy shared by executions that run concurrently must
// synchronize internally.
//
// AnswerPredicate is consulted when a keyed predicate test reaches a
// malicious node that holds the tested key; the truthful answer (what an
// honest evaluation of the node's state would say) is provided so
// strategies can lie in either direction. The adversary cannot answer
// tests for keys it does not hold (Theorem 3's soundness side).
//
// ForwardAuthBroadcast decides whether a malicious node relays a base
// station broadcast; it cannot forge or alter one (the model of [20]).
type Adversary interface {
	Step(phase Phase, a *AdvContext)
	AnswerPredicate(node topology.NodeID, test TestAnnounce, truthful bool) bool
	ForwardAuthBroadcast(node topology.NodeID) bool
}

// HonestAdversary makes malicious nodes indistinguishable from honest
// ones; the zero value is ready to use.
type HonestAdversary struct{}

// Step runs the honest behavior.
func (HonestAdversary) Step(_ Phase, a *AdvContext) { a.ActHonestly() }

// AnswerPredicate answers truthfully.
func (HonestAdversary) AnswerPredicate(_ topology.NodeID, _ TestAnnounce, truthful bool) bool {
	return truthful
}

// ForwardAuthBroadcast always forwards.
func (HonestAdversary) ForwardAuthBroadcast(topology.NodeID) bool { return true }

// ReceivedEnvelope is a decoded inbound message as seen by a malicious
// node: the adversary sees everything on its links, including envelopes
// that fail verification.
type ReceivedEnvelope struct {
	From     topology.NodeID
	KeyIndex int
	Payload  interface{}
	Valid    bool
}

// AdvContext gives a strategy full Byzantine power for one malicious node
// in one slot.
type AdvContext struct {
	engine *Engine
	state  *sensorState
	ctx    *simnet.Context
	phase  Phase
	honest func(*sensorState, *simnet.Context)
}

// Node returns the malicious node's ID.
func (a *AdvContext) Node() topology.NodeID { return a.state.id }

// Phase returns the current protocol phase.
func (a *AdvContext) Phase() Phase { return a.phase }

// LocalSlot returns the slot index within the current phase (0-based).
func (a *AdvContext) LocalSlot() int { return a.ctx.Slot() - a.engine.phaseStart }

// Level returns the node's tree level (-1 if unset).
func (a *AdvContext) Level() int { return a.state.level }

// Parents returns the node's aggregation parents.
func (a *AdvContext) Parents() []topology.NodeID { return a.state.parents }

// Neighbors returns the node's physical neighbors.
func (a *AdvContext) Neighbors() []topology.NodeID { return a.ctx.Neighbors() }

// L returns the announced depth bound.
func (a *AdvContext) L() int { return a.engine.l }

// Instances returns the number of MIN instances in this execution.
func (a *AdvContext) Instances() int { return a.engine.instances }

// QueryNonce returns the aggregation nonce announced by the base station.
func (a *AdvContext) QueryNonce() []byte { return a.engine.queryNonce }

// ConfirmNonce returns the confirmation nonce (nil before the
// confirmation phase).
func (a *AdvContext) ConfirmNonce() []byte { return a.engine.confirmNonce }

// AnnouncedMins returns the minima the base station broadcast at the start
// of the confirmation phase (nil before then).
func (a *AdvContext) AnnouncedMins() []float64 { return a.engine.announcedMins }

// Inbox returns this slot's inbound messages, decoded. Envelopes are
// opened with the coalition's full key material; Valid reports whether the
// edge MAC verified.
func (a *AdvContext) Inbox() []ReceivedEnvelope {
	out := make([]ReceivedEnvelope, 0, len(a.ctx.Inbox))
	for _, m := range a.ctx.Inbox {
		env, ok := m.Payload.(Envelope)
		if !ok {
			out = append(out, ReceivedEnvelope{From: m.From, KeyIndex: NoKey, Payload: m.Payload, Valid: false})
			continue
		}
		key := a.engine.poolKey(env.KeyIndex)
		inner, valid := env.Open(&key, m.From, a.state.id)
		payload := interface{}(inner)
		if !valid {
			payload = env.Inner
		}
		out = append(out, ReceivedEnvelope{From: m.From, KeyIndex: env.KeyIndex, Payload: payload, Valid: valid})
	}
	return out
}

// ActHonestly runs the honest per-slot behavior for this node, updating
// its state and sending what an honest sensor would send.
func (a *AdvContext) ActHonestly() { a.honest(a.state, a.ctx) }

// CoalitionHolds reports whether any malicious node holds the pool key
// with the given index (the adversary pools all compromised key rings).
func (a *AdvContext) CoalitionHolds(index int) bool {
	return a.engine.coalitionHolds(index)
}

// Ring returns this node's own key ring (sorted pool indices).
func (a *AdvContext) Ring() []int { return a.engine.cfg.Deployment.Ring(a.state.id) }

// SendSealed seals payload with the pool key at keyIndex and sends it to
// the given node. The coalition must hold the key; the link must exist
// physically or via collusion (malicious-to-malicious traffic is always
// deliverable, modelling out-of-band wormholes). It reports whether the
// message was transmitted.
func (a *AdvContext) SendSealed(to topology.NodeID, keyIndex int, payload interface{}) bool {
	in, ok := payload.(inner)
	if !ok || !a.engine.coalitionHolds(keyIndex) {
		return false
	}
	key := a.engine.poolKey(keyIndex)
	env := Seal(keyIndex, &key, a.state.id, to, in)
	return a.ctx.Send(to, env)
}

// SendGarbled sends an envelope whose edge MAC is deliberately invalid,
// for flooding-with-garbage attacks. It reports whether the message was
// transmitted.
func (a *AdvContext) SendGarbled(to topology.NodeID, keyIndex int, payload interface{}) bool {
	in, ok := payload.(inner)
	if !ok {
		return false
	}
	env := Envelope{KeyIndex: keyIndex, MAC: crypto.MAC{0xBA, 0xD0}, Inner: in}
	return a.ctx.Send(to, env)
}

// OwnRecord returns the node's honest record for an instance (valid MAC
// over its true reading).
func (a *AdvContext) OwnRecord(instance int) Record {
	return a.engine.ownRecord(a.state.id, instance)
}

// RecordWithValue returns a record for this node with an arbitrary value
// but a valid MAC — the "report a fake reading for itself" behavior the
// secure-aggregation problem explicitly permits (Section III).
func (a *AdvContext) RecordWithValue(instance int, value float64) Record {
	key := a.engine.sensorKey(a.state.id)
	return NewRecord(a.state.id, instance, value, &key, a.engine.queryNonce)
}

// ForgeRecord returns a record claiming to originate from any node, with a
// garbage MAC: a spurious minimum. Only the base station can tell.
func (a *AdvContext) ForgeRecord(origin topology.NodeID, instance int, value float64) Record {
	return Record{Origin: origin, Instance: instance, Value: value,
		MAC: crypto.ComputeMAC(crypto.KeyFromUint64(uint64(a.state.rng.Uint64())), []byte("forged"))}
}

// VetoWithValue returns a veto for this node with a valid MAC over an
// arbitrary value and level.
func (a *AdvContext) VetoWithValue(instance int, value float64, level int) VetoMsg {
	key := a.engine.sensorKey(a.state.id)
	return NewVeto(a.state.id, instance, value, level, &key, a.engine.confirmNonce)
}

// ForgeVeto returns a spurious veto claiming any vetoer, with a garbage
// MAC. Honest sensors cannot tell (they cannot verify sensor-key MACs) and
// will forward it — the choking attack of Section IV-C.
func (a *AdvContext) ForgeVeto(vetoer topology.NodeID, instance int, value float64, level int) VetoMsg {
	return VetoMsg{Vetoer: vetoer, Instance: instance, Value: value, Level: level,
		MAC: crypto.ComputeMAC(crypto.KeyFromUint64(uint64(a.state.rng.Uint64())), []byte("forged-veto"))}
}

// EdgeKeyWith returns the pool index of the canonical (lowest unrevoked
// shared) edge key between this node and another, if any.
func (a *AdvContext) EdgeKeyWith(peer topology.NodeID) (int, bool) {
	return a.engine.edgeKey(a.state.id, peer)
}

// RNG returns this node's deterministic stream for adversarial coin
// flips.
func (a *AdvContext) RNG() *crypto.Stream { return a.state.rng }
