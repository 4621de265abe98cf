package core

import (
	"math"

	"repro/internal/simnet"
	"repro/internal/topology"
)

// runTreeFormation executes the timestamp-based tree formation of Section
// IV-A. A sensor's level is the local slot in which the tree-formation
// flood first reaches it; it re-forwards in the next slot (delivery takes
// one slot, which is exactly the paper's hold-one-interval rule). Messages
// arriving after interval L are ignored, so honest levels always land in
// [1, L] — the wormhole level-inflation attack of Figure 2(c) is
// structurally impossible.
func (e *Engine) runTreeFormation() {
	e.phaseStart = e.net.Slot()
	e.sensors[topology.BaseStation].level = 0

	honest := func(s *sensorState, ctx *simnet.Context) {
		local := ctx.Slot() - e.phaseStart
		if s.id == topology.BaseStation {
			if local == 0 {
				for _, nb := range ctx.Neighbors() {
					e.sendSealed(ctx, nb, TreeFormMsg{})
				}
			}
			return
		}
		if s.level != -1 || local > e.l {
			return
		}
		var parents []topology.NodeID
		for _, m := range ctx.Inbox {
			payload, _, ok := e.acceptEnvelope(m, s.id)
			if !ok {
				continue
			}
			if _, isTree := payload.(TreeFormMsg); !isTree {
				continue
			}
			parents = append(parents, m.From)
		}
		if len(parents) == 0 {
			return
		}
		s.level = local
		if e.cfg.Multipath {
			s.parents = dedupe(parents)
		} else {
			s.parents = parents[:1]
		}
		for _, nb := range ctx.Neighbors() {
			e.sendSealed(ctx, nb, TreeFormMsg{})
		}
	}
	// Sparse sweep: only the base station acts on a schedule (the slot-0
	// flood start); every other sensor joins the moment the flood reaches
	// it.
	e.net.WakeAt(e.phaseStart, topology.BaseStation)
	e.net.RunSlotsActive(e.l+1, e.phaseStep(PhaseTree, honest))
}

func dedupe(ids []topology.NodeID) []topology.NodeID {
	seen := make(map[topology.NodeID]bool, len(ids))
	out := ids[:0]
	for _, id := range ids {
		if !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// runAggregation executes the slotted MIN aggregation of Section IV-B over
// all instances at once and returns the per-instance winning records at
// the base station. A level-i sensor collects child messages through local
// slot L-i and transmits its minima to its parent(s) during that slot;
// every sensor stores the send- and receive-side audit tuples the
// pinpointing protocols later query.
func (e *Engine) runAggregation() []Record {
	e.phaseStart = e.net.Slot()

	// Every participant starts from its own authenticated records. Each
	// level-i sensor has exactly one scheduled obligation — transmit its
	// minima in local slot L-i — so that is its wake slot; collection in
	// earlier slots is driven by the arriving child messages themselves.
	for i := range e.sensors {
		s := &e.sensors[i]
		if s.id != topology.BaseStation && s.level == -1 {
			continue // never reached by tree formation
		}
		for inst := 0; inst < e.instances; inst++ {
			s.best[inst] = e.ownRecord(s.id, inst)
			s.bestInKey[inst] = NoKey
		}
		if s.level >= 1 && s.level <= e.l {
			e.net.WakeAt(e.phaseStart+e.l-s.level, s.id)
		}
	}

	bs := &e.sensors[topology.BaseStation]
	honest := func(s *sensorState, ctx *simnet.Context) {
		local := ctx.Slot() - e.phaseStart
		if s.id == topology.BaseStation {
			e.collectAtBase(s, ctx, local)
			return
		}
		if s.level < 1 {
			return
		}
		sendSlot := e.l - s.level
		if local > sendSlot {
			return // this sensor's window is over
		}
		for _, m := range ctx.Inbox {
			payload, inKey, ok := e.acceptEnvelope(m, s.id)
			if !ok {
				continue
			}
			agg, isAgg := payload.(AggMsg)
			if !isAgg {
				continue
			}
			childLevel := e.l - (local - 1)
			for _, r := range agg.Records {
				if math.IsInf(r.Value, 1) || math.IsNaN(r.Value) {
					continue
				}
				s.noteReceivedRecord(r, childLevel, inKey, m.From)
			}
		}
		if local == sendSlot {
			msg := AggMsg{Records: finiteRecords(s.best)}
			for _, parent := range s.parents {
				outKey, sent := e.sendSealed(ctx, parent, msg)
				if sent {
					s.noteSent(parent, outKey)
				}
			}
		}
	}
	e.net.RunSlotsActive(e.l+1, e.phaseStep(PhaseAggregation, honest))
	return bs.best
}

// collectAtBase merges records arriving at the base station and remembers
// which edge key delivered each current winner (the junk-pinpointing
// starting point).
func (e *Engine) collectAtBase(s *sensorState, ctx *simnet.Context, local int) {
	for _, m := range ctx.Inbox {
		payload, inKey, ok := e.acceptEnvelope(m, s.id)
		if !ok {
			continue
		}
		agg, isAgg := payload.(AggMsg)
		if !isAgg {
			continue
		}
		childLevel := e.l - (local - 1)
		for _, r := range agg.Records {
			if math.IsInf(r.Value, 1) || math.IsNaN(r.Value) {
				continue
			}
			s.noteReceivedRecord(r, childLevel, inKey, m.From)
			if s.best[r.Instance].ID() == r.ID() && s.bestInKey[r.Instance] == inKey {
				e.bsDelivery[r.Instance] = deliveryInfo{inKey: inKey, slot: local}
			}
		}
	}
}

func finiteRecords(records []Record) []Record {
	out := make([]Record, 0, len(records))
	for _, r := range records {
		if !math.IsInf(r.Value, 1) && !math.IsNaN(r.Value) {
			out = append(out, r)
		}
	}
	return out
}

// receivedVeto is one veto as it arrived at the base station.
type receivedVeto struct {
	veto  VetoMsg
	inKey int
	slot  int // local confirmation slot of arrival
}

// runConfirmation executes the SOF protocol of Section IV-C: vetoers
// flood their veto in interval 1; every other sensor forwards only the
// first veto it receives, in the next interval, and records the SOF audit
// tuple. It returns the vetoes the base station received, in arrival
// order.
func (e *Engine) runConfirmation() []receivedVeto {
	e.phaseStart = e.net.Slot()
	var arrived []receivedVeto

	honest := func(s *sensorState, ctx *simnet.Context) {
		local := ctx.Slot() - e.phaseStart
		if s.id == topology.BaseStation {
			for _, m := range ctx.Inbox {
				payload, inKey, ok := e.acceptEnvelope(m, s.id)
				if !ok {
					continue
				}
				if v, isVeto := payload.(VetoMsg); isVeto {
					arrived = append(arrived, receivedVeto{veto: v, inKey: inKey, slot: local})
				}
			}
			return
		}
		if s.level < 1 || s.forwardedVeto {
			return
		}
		if local == 0 {
			if v, isVetoer := e.ownVeto(s); isVetoer {
				s.forwardedVeto = true
				s.vetoSent = &sofTuple{veto: v, interval: 1, inKey: NoKey}
				for _, nb := range ctx.Neighbors() {
					if outKey, sent := e.sendSealed(ctx, nb, v); sent {
						s.vetoSent.outKeys = append(s.vetoSent.outKeys, outKey)
					}
				}
			}
			return
		}
		for _, m := range ctx.Inbox {
			payload, inKey, ok := e.acceptEnvelope(m, s.id)
			if !ok {
				continue
			}
			v, isVeto := payload.(VetoMsg)
			if !isVeto {
				continue
			}
			// Forward the first veto received, in this interval (= local
			// slot + 1); ignore everything afterwards.
			s.forwardedVeto = true
			s.vetoSent = &sofTuple{veto: v, interval: local + 1, inKey: inKey}
			for _, nb := range ctx.Neighbors() {
				if outKey, sent := e.sendSealed(ctx, nb, v); sent {
					s.vetoSent.outKeys = append(s.vetoSent.outKeys, outKey)
				}
			}
			return
		}
	}
	// Every sensor must compare its own reading against the announced
	// minimum in local slot 0, so the first confirmation slot is a full
	// sweep; afterwards only veto traffic keeps nodes active.
	e.net.WakeAllAt(e.phaseStart)
	e.net.RunSlotsActive(e.l+1, e.phaseStep(PhaseConfirmation, honest))
	return arrived
}

// ownVeto builds the sensor's veto if its own reading beats the announced
// minimum on any instance.
func (e *Engine) ownVeto(s *sensorState) (VetoMsg, bool) {
	if e.cfg.Readings == nil {
		return VetoMsg{}, false
	}
	for inst := 0; inst < e.instances; inst++ {
		v := e.cfg.Readings(s.id, inst)
		if math.IsNaN(v) || math.IsInf(v, 1) {
			continue
		}
		if v < e.announcedMins[inst] {
			key := e.sensorKey(s.id)
			return NewVeto(s.id, inst, v, s.level, &key, e.confirmNonce), true
		}
	}
	return VetoMsg{}, false
}
