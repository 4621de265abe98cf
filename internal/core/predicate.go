package core

import (
	"repro/internal/crypto"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// runPredicateTest executes one keyed predicate test (Section VI, protocol
// of Yu [29]): the base station broadcasts the test descriptor with the
// commitment H(MAC_K(N)); every sensor holding K whose state satisfies the
// predicate replies MAC_K(N); all sensors relay the first message matching
// the commitment and ignore everything else, so choking the reply is
// impossible (Theorem 3). It returns whether the base station received the
// valid reply.
//
// Malicious holders of K answer through Adversary.AnswerPredicate and may
// lie in either direction; sensors that do not hold K cannot mint the
// reply.
func (e *Engine) runPredicateTest(key KeyRef, pred Predicate) bool {
	e.predicateTests++
	k, testedPool := e.resolveKey(key)
	nonce := e.freshNonce("pred")
	reply := ReplyMAC(&k, nonce)
	test := TestAnnounce{
		Key:        key,
		Pred:       pred,
		Nonce:      nonce,
		Commitment: crypto.HashMAC(reply),
	}
	e.announce(test)

	holders := e.holdersOf(key)
	n := e.cfg.Graph.NumNodes()
	relayed := make([]bool, n) // per-node; each node's step touches only its own
	success := false
	start := e.net.Slot()
	defer func() { e.phaseSlots.Pinpoint += e.net.Slot() - start }()

	// Every honest relay forwards the same reply, boxed once here. A reply
	// is checked against the commitment by hashing its MAC, and the last
	// MAC seen keeps its verdict, so the wave costs one hash per distinct
	// value: none for the genuine reply, whose hash is the commitment, and
	// a fresh one for any other value, forged replies included.
	var relay simnet.Payload = PredicateReply{MAC: reply}
	lastMAC, lastOK := reply, true
	matches := func(mac crypto.MAC) bool {
		if mac != lastMAC {
			lastMAC, lastOK = mac, crypto.HashMAC(mac) == test.Commitment
		}
		return lastOK
	}

	step := func(ctx *simnet.Context) {
		id := ctx.Node()
		if relayed[id] {
			return
		}
		emit := false
		if ctx.Slot() == start && holders[id] {
			truthful := e.sensors[id].satisfies(pred, testedPool)
			if e.isMalicious(id) {
				emit = e.cfg.Adversary.AnswerPredicate(id, test, truthful)
			} else {
				emit = truthful
			}
		}
		if !emit {
			for _, m := range ctx.Inbox {
				r, ok := m.Payload.(PredicateReply)
				if !ok || !matches(r.MAC) {
					continue
				}
				emit = true
				break
			}
		}
		if !emit {
			return
		}
		relayed[id] = true
		// A relay ignores the rest of the wave: the copies its
		// neighbours relay back are charged and acked, never read.
		ctx.StopListening()
		if id == topology.BaseStation {
			success = true
			return
		}
		ctx.Broadcast(relay)
	}
	// Only the key holders act on a schedule (their slot-`start` answer
	// window); the relay wave is driven entirely by the reply itself.
	for id := range holders {
		e.net.WakeAt(start, id)
	}
	e.net.RunUntilQuiescentActive(2*e.l+4, step)
	label := "pool-key"
	keyIdx := key.PoolIndex
	node := NoNode
	if key.IsSensorKey() {
		label = "sensor-key"
		keyIdx = NoKey
		node = key.Sensor
	}
	e.emit(Event{Kind: EventPredicateTest, Label: label, Node: node, KeyIndex: keyIdx, OK: success})
	return success
}

// resolveKey returns the actual key, prepared for HMAC, and, for pool
// keys, the pool index honest predicate evaluation checks reception keys
// against (NoKey for sensor-key tests, which do not constrain the
// in-edge key — the Figure 6 step-6 re-confirmation).
func (e *Engine) resolveKey(key KeyRef) (crypto.MACKey, int) {
	if key.IsSensorKey() {
		return e.sensorKey(key.Sensor), NoKey
	}
	return e.poolKey(key.PoolIndex), key.PoolIndex
}

// holdersOf returns the node set able to mint the test's reply.
func (e *Engine) holdersOf(key KeyRef) map[topology.NodeID]bool {
	out := make(map[topology.NodeID]bool)
	if key.IsSensorKey() {
		if int(key.Sensor) >= 0 && int(key.Sensor) < e.cfg.Graph.NumNodes() {
			out[key.Sensor] = true
		}
		return out
	}
	for _, h := range e.cfg.Deployment.Holders(key.PoolIndex) {
		out[h] = true
	}
	return out
}
