// Package baseline implements the comparison systems the paper measures
// VMAT against or explicitly improves upon:
//
//   - the traditional hop-count tree formation of TAG [15], which the
//     wormhole attack of Figure 2(c) breaks (sensors end up with levels
//     beyond L and cannot pick a transmission interval),
//   - the naive no-aggregation baseline that ships every individual
//     MAC-carrying reading to the base station (Section IX's 80 KB-per-
//     query comparison point), and
//   - a sampling-based aggregation model in the style of Yu [29], which
//     tolerates malicious sensors without revocation but pays
//     Omega(log n) sequential flooding rounds per query (Section I).
package baseline

import (
	"repro/internal/simnet"
	"repro/internal/topology"
)

// hopMsg is the TAG-style tree formation message carrying a hop count.
type hopMsg struct {
	Hops int
}

// WireSize is the hop counter plus a type tag.
func (hopMsg) WireSize() int { return 6 }

// HopCountTreeResult reports one hop-count tree formation run.
type HopCountTreeResult struct {
	// Levels holds each node's level (hop count + 1 of the first message
	// received); -1 when the flood never arrived.
	Levels []int
	// Invalid counts honest sensors whose level exceeds L and who
	// therefore cannot determine a valid transmission interval for the
	// aggregation phase — the paper's Figure 2(c) failure mode.
	Invalid int
	// Slots is the number of network slots consumed.
	Slots int
}

// WormholeConfig plants the Figure 2(c) attack into a hop-count tree
// formation. Each malicious entry sensor tunnels the tree message it
// hears to its exit partner out of band; the exit re-floods it with an
// inflated hop count, concatenating two legitimate paths. Honest sensors
// that hear the tunneled copy first adopt a level that can exceed L —
// and, unlike a timestamp, a hop count gives them no way to tell.
type WormholeConfig struct {
	// Pairs lists wormhole endpoints as (entry, exit).
	Pairs [][2]topology.NodeID
	// InflatedHops is the hop count the exit claims when re-flooding.
	InflatedHops int
}

func isRadioNeighbor(ctx *simnet.Context, id topology.NodeID) bool {
	for _, nb := range ctx.Neighbors() {
		if nb == id {
			return true
		}
	}
	return false
}

func (w *WormholeConfig) members() map[topology.NodeID]bool {
	m := map[topology.NodeID]bool{}
	if w == nil {
		return m
	}
	for _, p := range w.Pairs {
		m[p[0]] = true
		m[p[1]] = true
	}
	return m
}

// RunHopCountTree runs the traditional tree formation over g with an
// optional wormhole adversary and returns the resulting levels, counting
// honest sensors whose level exceeds l. The adversary's transmissions
// beat honest ones within a slot (worst-case timing). Malicious sensors
// otherwise keep their cover and participate normally.
func RunHopCountTree(g *topology.Graph, l int, wormhole *WormholeConfig, maxSlots int) HopCountTreeResult {
	malicious := wormhole.members()
	exitOf := map[topology.NodeID]topology.NodeID{}
	if wormhole != nil {
		for _, p := range wormhole.Pairs {
			exitOf[p[0]] = p[1]
		}
	}
	net := simnet.New(g, simnet.Config{
		FirstFrom: malicious,
		ExtraLink: func(from, to topology.NodeID) bool {
			return malicious[from] && malicious[to]
		},
	})

	n := g.NumNodes()
	levels := make([]int, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[topology.BaseStation] = 0
	tunneled := make([]bool, n) // entry already fired its tunnel

	slots := net.RunUntilQuiescent(maxSlots, func(ctx *simnet.Context) {
		id := ctx.Node()
		if id == topology.BaseStation {
			if ctx.Slot() == 0 {
				ctx.Broadcast(hopMsg{Hops: 0})
			}
			return
		}
		for _, m := range ctx.Inbox {
			h, ok := m.Payload.(hopMsg)
			if !ok {
				continue
			}
			// A wormhole exit hearing its entry's tunneled (out-of-band)
			// copy re-floods it verbatim, whatever its own level
			// situation.
			if malicious[id] && malicious[m.From] && !isRadioNeighbor(ctx, m.From) {
				ctx.Broadcast(hopMsg{Hops: h.Hops})
				continue
			}
			if levels[id] == -1 {
				levels[id] = h.Hops + 1
				ctx.Broadcast(hopMsg{Hops: h.Hops + 1})
				if exit, isEntry := exitOf[id]; isEntry && !tunneled[id] {
					tunneled[id] = true
					ctx.Send(exit, hopMsg{Hops: wormhole.InflatedHops})
				}
			}
		}
	})

	res := HopCountTreeResult{Levels: levels, Slots: slots}
	for id, lvl := range levels {
		if malicious[topology.NodeID(id)] || id == 0 {
			continue
		}
		if lvl > l {
			res.Invalid++
		}
	}
	return res
}
