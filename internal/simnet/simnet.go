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
// scheduled: steps run in node order, and each send is appended to the
// pending queue as it is made. A unicast is one queue entry; a broadcast
// is one entry too, which delivery fans out over the sender's neighbours
// in neighbour order, each copy stamped with its own send sequence and
// handled exactly like a unicast to that neighbour. So the copies come
// out in (From, seq) order and every inbox fills in that order (with the
// ARQ enabled, retransmissions are queued ahead of a slot's fresh sends,
// so inboxes are sorted by (From, seq) instead). Inboxes that a copy from
// the adversary-first sender set reached (Config.FirstFrom) are then
// stably reordered to put those copies first, and every random coin
// (loss, faults) is drawn from a seeded stream at a fixed point in the
// delivery pipeline, in pending order, then neighbour order. There are
// no goroutines, channels, or atomics in the loop — parallelism belongs
// one level up, across independent trials (see
// internal/experiments.RunTrials), where it scales without touching the
// per-execution event order.
//
// Protocol drivers with slot-triggered behavior can register wake-ups
// (WakeAt, WakeAllAt, SetAlwaysActive) and run sparse sweeps
// (RunSlotsActive, RunUntilQuiescentActive) that step only nodes with a
// reason to act: a non-empty inbox, a scheduled wake, or standing
// always-active status. Because a skipped step is one that could only
// have been a no-op, sparse sweeps are bit-identical to dense ones while
// making slot cost proportional to activity instead of network size —
// the property that lets million-node topologies run in memory and time
// proportional to traffic. A step may also declare that its node ignores
// the rest of the current run (Context.StopListening): a flood relay
// that has relayed does, so the copies its neighbours send back are
// charged and acked but never fill its inbox or make it step.
//
// Message delivery takes one slot. Messages are delivered only over edges
// of the supplied graph or over explicitly configured out-of-band links
// (used for wormhole collusion between malicious sensors). A node's sends
// per slot are not capped: choking is modelled by delivering the
// adversary's messages first (Config.FirstFrom), not by a capacity limit.
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

// Message is a delivered payload, or one queued send. A queued broadcast
// is a single Message whose To is broadcastTo and whose seq is its first
// copy's; delivery fans it out into one Message per neighbour.
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

// broadcastTo marks a queued Message as a broadcast to every neighbour
// of its sender.
const broadcastTo topology.NodeID = -1

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

// Config configures a Network.
type Config struct {
	// FirstFrom is the adversary-first sender set: in every inbox that a
	// message from one of its nodes reaches, those messages come first,
	// each group keeping its (From, seq) order. It models the worst case
	// where the adversary's transmissions always beat honest ones within
	// a slot (the "first veto wins" races of the SOF protocol). New reads
	// the map once; later changes to it do not reach the network. Nil or
	// empty keeps the (From, seq) order.
	FirstFrom map[topology.NodeID]bool

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
	// retransmission" assumption: every frame (a unicast, or one
	// neighbour's copy of a broadcast) is acked by the receiver,
	// retransmitted on ack timeout with bounded exponential
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
	pending []Message // one entry per unicast, retransmission or broadcast
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

	// Adversary-first delivery: first flags the Config.FirstFrom senders
	// (nil when there are none). Delivery lists in reorder each inbox a
	// flagged sender's copy reached this slot, once (marked), and only
	// those are sorted.
	first   []bool
	marked  []bool
	reorder []topology.NodeID

	// Listening: run numbers each Run* call, and a node whose deaf stamp
	// equals it has stopped listening for the rest of that run. deaf is
	// allocated at the first StopListening.
	run  int
	deaf []int

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
	for id, first := range cfg.FirstFrom {
		if first && id >= 0 && int(id) < n {
			if net.first == nil {
				net.first = make([]bool, n)
				net.marked = make([]bool, n)
			}
			net.first[id] = true
		}
	}
	return net
}

// firstCmp orders a message from a FirstFrom sender ahead of one from
// any other sender.
func (n *Network) firstCmp(a, b Message) int {
	af, bf := n.first[a.From], n.first[b.From]
	switch {
	case af == bf:
		return 0
	case af:
		return -1
	default:
		return 1
	}
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
	if !c.net.linkAllowed(c.node, to) {
		c.net.stats.DroppedNoLink++
		return false
	}
	c.net.enqueue(c.node, to, p, p.WireSize(), 1)
	return true
}

// Broadcast transmits payload to every neighbor and returns how many
// copies went out. It is one pending-queue entry, which delivery fans
// out into one copy per neighbor, in neighbor order; each copy is
// charged, stamped, checked and (under the ARQ) framed and acked exactly
// like a Send to that neighbor (the paper notes a sensor must send
// distinct edge MACs to distinct neighbors, so a local broadcast is d
// unicasts). The payload's wire size is taken once, and only if the node
// has a neighbor.
func (c *Context) Broadcast(p Payload) int {
	d := len(c.Neighbors())
	if d > 0 {
		c.net.enqueue(c.node, broadcastTo, p, p.WireSize(), d)
	}
	return d
}

// StopListening declares that this node ignores everything delivered to
// it for the rest of the current Run* call. Later deliveries to it are
// still charged to both ends, draw their loss and fault coins and are
// acked under the ARQ, but skip its inbox and do not make it step in a
// sparse sweep; if it steps anyway (woken, always-active or in a dense
// sweep), its inbox is empty. The next Run* call listens to every node
// again.
func (c *Context) StopListening() {
	n := c.net
	if n.deaf == nil {
		n.deaf = make([]int, len(n.ctxs))
	}
	n.deaf[c.node] = n.run
}

// enqueue appends one admitted send of copies frames to the pending
// queue: it stamps the first copy's global send sequence, reserves the
// rest, and charges the sender for every copy. The ARQ's tracking
// entries are made at delivery, one per copy.
func (n *Network) enqueue(from, to topology.NodeID, p Payload, size, copies int) {
	n.pending = append(n.pending, Message{From: from, To: to, Payload: p, size: size, seq: n.seq})
	n.seq += uint64(copies)
	n.stats.BytesSent[from] += int64(size) * int64(copies)
	n.stats.MessagesSent[from] += int64(copies)
}

func (n *Network) linkAllowed(from, to topology.NodeID) bool {
	if from == to {
		return false
	}
	if n.graph.HasEdge(from, to) {
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
	n.run++
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
	n.run++
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
	n.run++
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
// last slot's queue into inboxes (a broadcast entry fanned out over its
// sender's neighbours), ARQ tick, inbox ordering, and the node sweep,
// whose sends go straight onto the pending queue. Everything runs on the
// calling goroutine.
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
		q := &n.pending[i]
		if q.To != broadcastTo {
			n.deliver(q, q.To, q.seq, faults)
			continue
		}
		for k, nb := range n.graph.Neighbors(q.From) {
			n.deliver(q, nb, q.seq+uint64(k), faults)
		}
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
	for _, id := range n.reorder {
		slices.SortStableFunc(inboxes[id], n.firstCmp)
		n.marked[id] = false
	}
	n.reorder = n.reorder[:0]

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

// deliver runs one frame through delivery: the queued message q itself,
// or its copy to one neighbour (to, seq) if q is a broadcast. The check
// order is load-bearing for reproducibility: under the ARQ the frame's
// tracking entry first (a fresh frame gets one, stamped with its send
// slot, the previous one), then the fault checks, the DropRNG coin, the
// bursty-loss coin and the receiver's ack. A delivered frame is charged
// to the receiver, and it reaches the inbox unless the receiver has
// stopped listening.
func (n *Network) deliver(q *Message, to topology.NodeID, seq uint64, faults FaultModel) {
	from, e := q.From, q.arq
	if n.cfg.ARQ != nil && e == nil {
		e = &arqEntry{lastSent: n.slot - 1}
		e.msg = Message{From: from, To: to, Payload: q.Payload, size: q.size, seq: seq, arq: e}
		n.arq = append(n.arq, e)
	}
	if faults != nil && (faults.NodeDown(from) || faults.NodeDown(to) || faults.LinkDown(from, to)) {
		n.stats.DroppedFault++
		return
	}
	if n.cfg.DropRate > 0 && n.cfg.DropRNG != nil && n.cfg.DropRNG.Float64() < n.cfg.DropRate {
		n.stats.DroppedLoss++
		return
	}
	if faults != nil && faults.DeliveryLost() {
		n.stats.DroppedFault++
		return
	}
	if e != nil && !n.deliverARQ(e) {
		return // duplicate suppressed by the receiver
	}
	n.stats.BytesReceived[to] += int64(q.size)
	n.stats.MessagesReceived[to]++
	if n.deaf != nil && n.deaf[to] == n.run {
		return
	}
	if len(n.inboxes[to]) == 0 {
		n.touched = append(n.touched, to)
	}
	n.inboxes[to] = append(n.inboxes[to], Message{From: from, To: to, Slot: n.slot, Payload: q.Payload, size: q.size, seq: seq, arq: e})
	if n.first != nil && n.first[from] && !n.marked[to] {
		n.marked[to] = true
		n.reorder = append(n.reorder, to)
	}
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
