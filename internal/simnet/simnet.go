// Package simnet is a slot-synchronous message-passing simulator for
// multi-hop sensor networks. It is the substrate every VMAT phase runs on.
//
// The paper's protocols are interval-slotted by construction: tree
// formation, aggregation, and the SOF confirmation flood all divide time
// into L intervals and prescribe, per interval, what each sensor sends
// (Sections IV-A through IV-C). A slot-faithful simulator therefore
// preserves every property the paper proves — flooding-round counts,
// audit-trail lengths, per-sensor communication complexity — without
// modelling radio-level detail. Clock skew is absorbed exactly as in the
// paper: the bounded-error guard band reduces to "transmit mid-interval",
// an additive constant the evaluation never depends on.
//
// # Execution model and determinism
//
// One execution is a deterministic single-threaded event loop: sensors
// are indexed slots in flat arrays, a slot executes as a sweep over the
// node set in ascending node-ID order, and message delivery is a queue
// append. Every run of the same configuration replays the identical
// event sequence because each ordering decision is structural, not
// scheduled: steps run in node order, each send is stamped with a global
// send sequence and appended to the pending queue as it is made, so the
// queue is in (From, seq) order and every inbox fills in that order
// (with the ARQ enabled, retransmissions are queued ahead of a slot's
// fresh sends, so inboxes are sorted by (From, seq) instead). The
// configurable Orderer then rearranges each inbox, and every random coin
// (loss, faults) is drawn from a seeded stream at a fixed point in the
// delivery pipeline, in pending order. There are no goroutines,
// channels, or atomics in the loop — parallelism belongs one level up,
// across independent trials (see internal/experiments.RunTrials), where
// it scales without touching the per-execution event order.
//
// Protocol drivers with slot-triggered behavior can register wake-ups
// (WakeAt, WakeAllAt, SetAlwaysActive) and run sparse sweeps
// (RunSlotsActive, RunUntilQuiescentActive) that step only nodes with a
// reason to act: a non-empty inbox, a scheduled wake, or standing
// always-active status. Because a skipped step is one that could only
// have been a no-op, sparse sweeps are bit-identical to dense ones while
// making slot cost proportional to activity instead of network size —
// the property that lets million-node topologies run in memory and time
// proportional to traffic.
//
// Message delivery takes one slot. Messages are delivered only over edges
// of the supplied graph or over explicitly configured out-of-band links
// (used for wormhole collusion between malicious sensors). A node's sends
// per slot are not capped: choking is modelled by delivering the
// adversary's messages first (MaliciousFirstOrder), not by a capacity
// limit.
package simnet

import (
	"cmp"
	"slices"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// Payload is any message body. WireSize returns the payload's size in
// bytes as transmitted over the radio, used for the paper's
// communication-complexity accounting (total bits sent and received per
// sensor, Section VII).
type Payload interface {
	WireSize() int
}

// Message is a payload in flight or delivered.
type Message struct {
	// From is the transmitting node. Receivers may use it only as "which
	// radio link delivered this" — trust derives from MACs, not From.
	From topology.NodeID
	// To is the receiving node.
	To topology.NodeID
	// Slot is the slot in which the message is delivered.
	Slot int
	// Payload is the message body.
	Payload Payload

	size int       // Payload.WireSize(), taken once when the message is sent
	seq  uint64    // global send order, for deterministic default sorting
	arq  *arqEntry // link-layer tracking entry; nil when ARQ is disabled
}

// FaultModel is the per-slot fault-injection hook (implemented by
// faults.Schedule). The network calls BeginSlot exactly once per slot
// before any delivery; NodeDown and LinkDown must then be pure reads
// until the next BeginSlot (they are consulted during delivery and step
// setup, and a sparse sweep may consult them for fewer nodes than a
// dense one). DeliveryLost is drawn once per delivery attempt, in
// deterministic message order, so fault sequences reproduce exactly from
// a seed.
type FaultModel interface {
	BeginSlot(slot int)
	NodeDown(id topology.NodeID) bool
	LinkDown(from, to topology.NodeID) bool
	DeliveryLost() bool
}

// Orderer rearranges a node's inbox for one slot, in place. The default
// order is (From, send sequence). Experiments may install an order that
// places adversary-originated messages first to model worst-case arrival
// timing.
type Orderer func(inbox []Message)

// Config configures a Network.
type Config struct {
	// Order, if non-nil, rearranges each node's inbox every slot.
	Order Orderer

	// ExtraLink, if non-nil, allows delivery between nodes with no graph
	// edge. VMAT's attack model lets colluding malicious sensors
	// communicate out of band (e.g. the wormhole of Figure 2(c)).
	ExtraLink func(from, to topology.NodeID) bool

	// DropRate, with DropRNG, drops each delivered message independently
	// with the given probability. The paper assumes reliable links after
	// retransmission; this models the residual loss that motivates the
	// multi-path aggregation of Section IV-D. Zero disables losses.
	DropRate float64
	// DropRNG drives the loss coin flips; required when DropRate > 0.
	DropRNG *crypto.Stream

	// Faults, when non-nil, injects deterministic correlated failures
	// (node crashes, link churn, bursty loss, partitions): crashed nodes
	// neither step nor receive, messages over downed links and bursty-
	// loss casualties are dropped and counted in Stats.DroppedFault. Nil
	// keeps the exact pre-fault behavior, byte for byte.
	Faults FaultModel
	// ARQ, when non-nil, enables the link-layer stop-and-wait ARQ that
	// substantiates the paper's "reliable delivery through
	// retransmission" assumption: every unicast is acked by the
	// receiver, retransmitted on ack timeout with bounded exponential
	// backoff, and abandoned once the retransmit budget is spent. Ack
	// and retransmission traffic is charged to the byte accounting. Nil
	// disables the ARQ with zero accounting change.
	ARQ *ARQConfig
}

// Stats holds per-node and aggregate accounting for one Network.
type Stats struct {
	BytesSent        []int64
	BytesReceived    []int64
	MessagesSent     []int64
	MessagesReceived []int64
	DroppedNoLink    int64
	DroppedLoss      int64
	// DroppedFault counts deliveries lost to injected faults (crashed
	// endpoints, downed links, bursty loss).
	DroppedFault int64
	// ARQ accounting: link-layer retransmissions performed, frames
	// abandoned after the retransmit budget, duplicate deliveries
	// suppressed by the receiver, and acks sent/lost. All zero when
	// Config.ARQ is nil.
	Retransmits   int64
	ARQFailed     int64
	ARQDuplicates int64
	AcksSent      int64
	AcksLost      int64
	Slots         int
}

// TotalBytes returns the total bytes sent plus received across all nodes
// (the paper's communication complexity summed over sensors).
func (s *Stats) TotalBytes() int64 {
	var total int64
	for i := range s.BytesSent {
		total += s.BytesSent[i] + s.BytesReceived[i]
	}
	return total
}

// NodeBytes returns bytes sent plus received for one node.
func (s *Stats) NodeBytes(id topology.NodeID) int64 {
	return s.BytesSent[id] + s.BytesReceived[id]
}

// MaxNodeBytes returns the maximum per-node communication complexity.
func (s *Stats) MaxNodeBytes() int64 {
	var max int64
	for i := range s.BytesSent {
		if b := s.BytesSent[i] + s.BytesReceived[i]; b > max {
			max = b
		}
	}
	return max
}

// Network is a slot-synchronous simulated network over a fixed node set.
// It is not safe for concurrent use; a single Run drives all nodes.
type Network struct {
	graph   *topology.Graph
	cfg     Config
	pending []Message
	slot    int
	seq     uint64
	stats   Stats

	// The per-slot hot loop reuses these buffers across slots so steady-
	// state execution allocates nothing: per-node inboxes, the Context
	// structs handed to step functions, and the pending buffer all keep
	// their backing arrays between slots. Only inboxes touched by a
	// delivery are truncated (touched tracks them), so idle nodes cost
	// nothing per slot.
	inboxes [][]Message
	ctxs    []Context
	touched []topology.NodeID

	// Sparse-sweep scheduling: wakes maps a slot to the nodes explicitly
	// scheduled to step in it, wakeAll marks slots where every node
	// steps, alwaysActive lists nodes stepped every slot (sorted), and
	// activeStamp/active are the per-slot active-set scratch (a node is
	// in this slot's set when its stamp equals slot+1).
	wakes        map[int][]topology.NodeID
	wakeAll      map[int]bool
	alwaysActive []topology.NodeID
	activeStamp  []int
	active       []topology.NodeID

	// Link-layer ARQ state: unacked frames in send order, and the
	// normalized (defaults-applied) configuration.
	arq    []*arqEntry
	arqCfg ARQConfig
}

// New creates a network over the given graph.
func New(g *topology.Graph, cfg Config) *Network {
	n := g.NumNodes()
	net := &Network{
		graph:   g,
		cfg:     cfg,
		inboxes: make([][]Message, n),
		ctxs:    make([]Context, n),
		stats: Stats{
			BytesSent:        make([]int64, n),
			BytesReceived:    make([]int64, n),
			MessagesSent:     make([]int64, n),
			MessagesReceived: make([]int64, n),
		},
	}
	if cfg.ARQ != nil {
		net.arqCfg = cfg.ARQ.withDefaults()
	}
	return net
}

// Graph returns the underlying physical graph.
func (n *Network) Graph() *topology.Graph { return n.graph }

// Stats returns a snapshot copy of the accounting counters.
func (n *Network) Stats() Stats {
	s := n.stats
	s.BytesSent = append([]int64(nil), n.stats.BytesSent...)
	s.BytesReceived = append([]int64(nil), n.stats.BytesReceived...)
	s.MessagesSent = append([]int64(nil), n.stats.MessagesSent...)
	s.MessagesReceived = append([]int64(nil), n.stats.MessagesReceived...)
	return s
}

// Slot returns the index of the next slot to execute.
func (n *Network) Slot() int { return n.slot }

// Pending returns the number of messages awaiting delivery next slot.
func (n *Network) Pending() int { return len(n.pending) }

// StepFunc is one node's behavior for one slot: it receives the node's
// inbox for the slot and sends messages through the context. Steps run
// sequentially in ascending node order within a slot; a step function
// should still only touch state owned by its node, so behavior cannot
// come to depend on the sweep order. The Context and its Inbox slice are
// only valid for the duration of the call — both are reused by the
// network on the next slot, so a step must copy out any Message values
// it wants to keep.
type StepFunc func(ctx *Context)

// Context is handed to a StepFunc; it carries the node identity and the
// slot inbox, and its sends go straight onto the network's pending queue.
// Contexts are pooled per node and recycled every slot.
type Context struct {
	net   *Network
	node  topology.NodeID
	slot  int
	Inbox []Message
}

// Node returns the node this context belongs to.
func (c *Context) Node() topology.NodeID { return c.node }

// Slot returns the current slot index.
func (c *Context) Slot() int { return c.slot }

// Neighbors returns the node's graph neighbors (shared slice; do not
// modify).
func (c *Context) Neighbors() []topology.NodeID { return c.net.graph.Neighbors(c.node) }

// Send transmits payload to a single node, to be delivered next slot. It
// returns false if there is no usable link; such messages are dropped
// and counted.
func (c *Context) Send(to topology.NodeID, p Payload) bool {
	if !c.admit(to, false) {
		return false
	}
	c.net.enqueue(c.node, to, p, p.WireSize())
	return true
}

// Broadcast transmits payload to every neighbor, as individual sends (the
// paper notes a sensor must send distinct edge MACs to distinct neighbors,
// so a local broadcast is d unicasts). It returns how many sends went out.
// The payload's wire size is taken once, at the first send that goes
// out, and the link check skips the edge search, since every neighbor is
// an edge.
func (c *Context) Broadcast(p Payload) int {
	sent, size := 0, 0
	for _, nb := range c.Neighbors() {
		if !c.admit(nb, true) {
			continue
		}
		if sent == 0 {
			size = p.WireSize()
		}
		c.net.enqueue(c.node, nb, p, size)
		sent++
	}
	return sent
}

// admit applies the link check to one send, counting a refusal. isEdge
// tells the link check that (node, to) is already known to be a graph
// edge.
func (c *Context) admit(to topology.NodeID, isEdge bool) bool {
	if !c.net.linkAllowed(c.node, to, isEdge) {
		c.net.stats.DroppedNoLink++
		return false
	}
	return true
}

// enqueue appends one admitted send to the pending queue: it stamps the
// global send sequence, charges the sender, and with the ARQ enabled
// creates the frame's tracking entry, which the queued copy (and any
// retransmitted copy) points back to.
func (n *Network) enqueue(from, to topology.NodeID, p Payload, size int) {
	m := Message{From: from, To: to, Payload: p, size: size, seq: n.seq}
	n.seq++
	n.stats.BytesSent[from] += int64(size)
	n.stats.MessagesSent[from]++
	if n.cfg.ARQ != nil {
		e := &arqEntry{lastSent: n.slot}
		m.arq = e
		e.msg = m
		n.arq = append(n.arq, e)
	}
	n.pending = append(n.pending, m)
}

func (n *Network) linkAllowed(from, to topology.NodeID, isEdge bool) bool {
	if from == to {
		return false
	}
	if isEdge || n.graph.HasEdge(from, to) {
		return true
	}
	return n.cfg.ExtraLink != nil && n.cfg.ExtraLink(from, to)
}

// WakeAt schedules id to step in the given (absolute) slot of a sparse
// sweep, whether or not it receives anything. Protocol drivers use it
// for slot-triggered behavior: flood origins, per-level aggregation send
// slots, predicate-test reply holders. Wakes for past slots are ignored;
// wakes are consumed when their slot executes. Dense sweeps step every
// node regardless.
func (n *Network) WakeAt(slot int, id topology.NodeID) {
	if slot < n.slot || int(id) < 0 || int(id) >= len(n.ctxs) {
		return
	}
	if n.wakes == nil {
		n.wakes = make(map[int][]topology.NodeID)
	}
	n.wakes[slot] = append(n.wakes[slot], id)
}

// WakeAllAt schedules every node to step in the given slot of a sparse
// sweep (the SOF confirmation phase needs one such slot: every sensor
// checks its own reading against the announced minimum).
func (n *Network) WakeAllAt(slot int) {
	if slot < n.slot {
		return
	}
	if n.wakeAll == nil {
		n.wakeAll = make(map[int]bool)
	}
	n.wakeAll[slot] = true
}

// SetAlwaysActive declares nodes that step in every sparse-swept slot
// regardless of traffic. The engine registers the malicious set here: an
// adversary may act spontaneously (inject, flood, probe) on any slot, so
// its nodes can never be skipped. The slice is copied and sorted.
func (n *Network) SetAlwaysActive(ids []topology.NodeID) {
	n.alwaysActive = append(n.alwaysActive[:0], ids...)
	slices.Sort(n.alwaysActive)
}

// RunSlots executes exactly count slots, invoking step once per node per
// slot (a dense sweep).
func (n *Network) RunSlots(count int, step StepFunc) {
	for i := 0; i < count; i++ {
		n.runOneSlot(step, false)
	}
}

// RunSlotsActive executes exactly count slots as sparse sweeps: step runs
// only for nodes with a non-empty inbox, a matching WakeAt/WakeAllAt
// registration, or always-active status. Skipping a node is bit-identical
// to dense execution whenever its step would have been a no-op — the
// caller's contract is that steps act only on received messages or at
// pre-registered slots.
func (n *Network) RunSlotsActive(count int, step StepFunc) {
	for i := 0; i < count; i++ {
		n.runOneSlot(step, true)
	}
}

// RunUntilQuiescent executes slots until a slot begins with no messages in
// flight (but always runs at least one slot, so initiators can act), or
// until maxSlots have run. It returns the number of slots executed.
// Protocols whose non-initial behavior is purely reactive (such as the
// keyed predicate test's reply relay) terminate as soon as the network
// drains, which keeps long binary-search pinpointing runs cheap.
func (n *Network) RunUntilQuiescent(maxSlots int, step StepFunc) int {
	return n.runUntilQuiescent(maxSlots, step, false)
}

// RunUntilQuiescentActive is RunUntilQuiescent with sparse sweeps. The
// drain condition is unchanged — pending wakes in later slots do not keep
// the run alive, exactly as a dense run would stop stepping reactive
// nodes once nothing is in flight.
func (n *Network) RunUntilQuiescentActive(maxSlots int, step StepFunc) int {
	return n.runUntilQuiescent(maxSlots, step, true)
}

func (n *Network) runUntilQuiescent(maxSlots int, step StepFunc, sparse bool) int {
	ran := 0
	for ran < maxSlots {
		if ran > 0 && len(n.pending) == 0 {
			break
		}
		n.runOneSlot(step, sparse)
		ran++
	}
	return ran
}

// runOneSlot advances the network one slot: fault-state tick, delivery of
// last slot's sends into inboxes, ARQ tick, inbox ordering, and the node
// sweep, whose sends go straight onto the pending queue. Everything runs
// on the calling goroutine; the check order in the delivery loop is
// load-bearing for reproducibility (fault coins only when Faults is set,
// then DropRNG, then bursty loss, in pending order).
func (n *Network) runOneSlot(step StepFunc, sparse bool) {
	faults := n.cfg.Faults
	if faults != nil {
		faults.BeginSlot(n.slot)
	}

	// Truncate only the inboxes the previous slot touched (backing arrays
	// kept), then deliver pending messages. A steady-state slot allocates
	// nothing here, and an idle node costs nothing.
	inboxes := n.inboxes
	for _, id := range n.touched {
		inboxes[id] = inboxes[id][:0]
	}
	n.touched = n.touched[:0]
	for i := range n.pending {
		m := &n.pending[i]
		if faults != nil && (faults.NodeDown(m.From) || faults.NodeDown(m.To) || faults.LinkDown(m.From, m.To)) {
			n.stats.DroppedFault++
			continue
		}
		if n.cfg.DropRate > 0 && n.cfg.DropRNG != nil && n.cfg.DropRNG.Float64() < n.cfg.DropRate {
			n.stats.DroppedLoss++
			continue
		}
		if faults != nil && faults.DeliveryLost() {
			n.stats.DroppedFault++
			continue
		}
		if m.arq != nil && !n.deliverARQ(m.arq) {
			continue // duplicate suppressed by the receiver
		}
		m.Slot = n.slot
		if len(inboxes[m.To]) == 0 {
			n.touched = append(n.touched, m.To)
		}
		inboxes[m.To] = append(inboxes[m.To], *m)
		n.stats.BytesReceived[m.To] += int64(m.size)
		n.stats.MessagesReceived[m.To]++
	}
	n.pending = n.pending[:0]

	// The last sweep queued its sends in node order, each node's in send
	// order, so every inbox already reads in (From, seq) order. The ARQ
	// queues its retransmissions ahead of this slot's fresh sends, so only
	// then does an inbox need sorting.
	if n.cfg.ARQ != nil {
		n.arqTick()
		for _, id := range n.touched {
			slices.SortFunc(inboxes[id], func(a, b Message) int {
				if a.From != b.From {
					return cmp.Compare(a.From, b.From)
				}
				return cmp.Compare(a.seq, b.seq)
			})
		}
	}
	if n.cfg.Order != nil {
		for _, id := range n.touched {
			n.cfg.Order(inboxes[id])
		}
	}

	// Sweep the slot's node set in ascending node order. Each send is
	// queued the moment it is made, so the pending order and the sequence
	// stamps match the dense order restricted to the nodes that act.
	if sparse {
		n.sweepNodes(step, faults, n.activeSet())
	} else {
		n.sweepAll(step, faults)
	}
	n.slot++
	n.stats.Slots++
}

// activeSet collects this slot's sparse active set in ascending node
// order: explicitly woken nodes, nodes with a non-empty inbox, and the
// always-active set. A WakeAllAt registration short-circuits to nil with
// all=true semantics handled by the caller via the second return.
func (n *Network) activeSet() []topology.NodeID {
	if n.wakeAll[n.slot] {
		delete(n.wakeAll, n.slot)
		delete(n.wakes, n.slot)
		if cap(n.active) < len(n.ctxs) {
			n.active = make([]topology.NodeID, 0, len(n.ctxs))
		}
		n.active = n.active[:0]
		for id := range n.ctxs {
			n.active = append(n.active, topology.NodeID(id))
		}
		return n.active
	}
	if n.activeStamp == nil {
		n.activeStamp = make([]int, len(n.ctxs))
	}
	stamp := n.slot + 1 // nonzero, unique per slot
	n.active = n.active[:0]
	mark := func(id topology.NodeID) {
		if n.activeStamp[id] != stamp {
			n.activeStamp[id] = stamp
			n.active = append(n.active, id)
		}
	}
	for _, id := range n.touched {
		mark(id)
	}
	if ids, ok := n.wakes[n.slot]; ok {
		for _, id := range ids {
			mark(id)
		}
		delete(n.wakes, n.slot)
	}
	for _, id := range n.alwaysActive {
		mark(id)
	}
	slices.Sort(n.active)
	return n.active
}

// sweepAll steps every node in node order (the dense sweep).
func (n *Network) sweepAll(step StepFunc, faults FaultModel) {
	for id := range n.ctxs {
		n.stepNode(step, faults, topology.NodeID(id))
	}
}

// sweepNodes steps the given (ascending) node set.
func (n *Network) sweepNodes(step StepFunc, faults FaultModel, ids []topology.NodeID) {
	for _, id := range ids {
		n.stepNode(step, faults, id)
	}
}

// stepNode resets one node's context and runs its step unless the fault
// model has the node crashed this slot.
func (n *Network) stepNode(step StepFunc, faults FaultModel, id topology.NodeID) {
	if faults != nil && faults.NodeDown(id) {
		return
	}
	c := &n.ctxs[id]
	c.net = n
	c.node = id
	c.slot = n.slot
	c.Inbox = n.inboxes[id]
	step(c)
}

// MaliciousFirstOrder returns an Orderer that moves messages originated by
// malicious nodes to the front of each inbox, keeping the relative order
// within each group, modelling the worst case where the adversary's
// transmissions always beat honest ones within a slot (the "first veto
// wins" races of the SOF protocol). The set is read once, here: later
// changes to the map do not reach the Orderer.
func MaliciousFirstOrder(malicious map[topology.NodeID]bool) Orderer {
	var bad nodeFlags
	for id, m := range malicious {
		if m && id >= 0 {
			for int(id) >= len(bad) {
				bad = append(bad, false)
			}
			bad[id] = true
		}
	}
	maliciousFirst := func(a, b Message) int {
		am, bm := bad.has(a.From), bad.has(b.From)
		switch {
		case am == bm:
			return 0
		case am:
			return -1
		default:
			return 1
		}
	}
	// An inbox with no malicious sender costs one pass of slice reads.
	return func(inbox []Message) {
		for i := range inbox {
			if bad.has(inbox[i].From) {
				slices.SortStableFunc(inbox, maliciousFirst)
				return
			}
		}
	}
}

// nodeFlags is a dense per-node flag; IDs past its end read false.
type nodeFlags []bool

func (f nodeFlags) has(id topology.NodeID) bool { return uint(id) < uint(len(f)) && f[id] }
