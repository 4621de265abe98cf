package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/audit"
	"repro/internal/authbcast"
	"repro/internal/crypto"
	"repro/internal/faults"
	"repro/internal/keydist"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/topology"
)

// ReadingFunc supplies the value a sensor contributes to one MIN instance.
// Inf() means "no contribution" (e.g. a COUNT predicate that is false).
type ReadingFunc func(id topology.NodeID, instance int) float64

// Config describes one VMAT execution.
type Config struct {
	// Graph is the physical radio topology; node 0 is the base station.
	Graph *topology.Graph
	// Deployment is the key pre-distribution (must cover Graph's nodes).
	Deployment *keydist.Deployment
	// Registry tracks revocation state. It is shared across executions of
	// a campaign; nil creates a fresh registry with DefaultTheta.
	Registry *keydist.Registry
	// Malicious marks the compromised sensors.
	Malicious map[topology.NodeID]bool
	// Adversary drives the malicious sensors; nil behaves honestly.
	Adversary Adversary
	// L is the depth bound; 0 computes the honest-component depth.
	L int
	// Instances is the number of parallel MIN instances (default 1).
	Instances int
	// Readings supplies sensor values; nil contributes Inf everywhere.
	Readings ReadingFunc
	// QueryNonce overrides the engine-generated aggregation nonce. The
	// synopsis query layer uses this so sensors can derive their
	// deterministic synopses from the same nonce the base station
	// verifies against (Section VIII).
	QueryNonce []byte
	// VerifyRecord, if non-nil, is the base station's plausibility check
	// on winning records (used to validate synopses, Section VIII). A
	// record failing it is treated as spurious.
	VerifyRecord func(r Record) bool
	// Multipath enables ring-based multi-path aggregation (Section IV-D).
	Multipath bool
	// LossRate drops each delivered message independently with this
	// probability, modelling residual radio loss. The paper assumes
	// reliable links after retransmission and expects multi-path
	// aggregation (Section IV-D) to absorb what remains; the loss
	// ablation quantifies that.
	LossRate float64
	// AlarmOnly disables pinpointing/revocation: detected corruption
	// ends the execution with OutcomeAlarm, modelling detection-only
	// protocols (SHIA [3], SECOA [19]) for the availability comparison
	// of the paper's introduction.
	AlarmOnly bool
	// Trace, when non-nil, receives execution events (phase starts,
	// minima, vetoes, predicate tests, walk steps, revocations, the
	// outcome). It is called from the engine's driver goroutine only.
	Trace func(Event)
	// Metrics, when non-nil, receives per-execution counters: executions
	// by outcome, predicate tests, revocations, and the simnet
	// byte/slot/drop totals. Counters are flushed once when the execution
	// finishes, so the per-slot hot loop is untouched; nil keeps the
	// zero-overhead path.
	Metrics *metrics.Registry
	// Faults, when non-nil and enabled, injects a deterministic fault
	// schedule (node crashes, link churn, bursty loss, partitions) into
	// the execution's network. The engine then reports degraded
	// executions explicitly: Outcome.Partial is set when sensors were
	// unreachable at answer time or the slot deadline expired. Nil (or a
	// zero spec) keeps the exact fault-free behavior.
	Faults *faults.Spec
	// ARQ, when non-nil, enables the simnet link-layer ARQ (per-hop acks,
	// timeout with bounded exponential backoff, retransmit budget), the
	// concrete form of the paper's "reliable delivery through
	// retransmission" assumption. Its byte cost is charged honestly.
	ARQ *simnet.ARQConfig
	// MaxSlots is the execution's slot deadline: once the network has
	// consumed this many slots, the engine stops starting new work and
	// returns a best-effort outcome marked Partial/DeadlineExceeded
	// instead of grinding on (pinpointing walks abort to an alarm). Zero
	// means 1000*(L+4) when faults or the ARQ are configured, unlimited
	// otherwise — so fault-free executions are byte-identical to before.
	MaxSlots int
	// AdversaryFavored delivers malicious-originated messages ahead of
	// honest ones within a slot (worst-case timing).
	AdversaryFavored bool
	// Seed makes the execution deterministic.
	Seed uint64
}

// DefaultTheta is the sensor-revocation threshold used when the caller
// does not supply a registry. The paper's Section IX finds theta = 27
// sufficient for near-zero mis-revocation with up to 20 malicious sensors.
const DefaultTheta = 27

// Metric names flushed into Config.Metrics when an execution finishes.
// MetricExecutions additionally gets a per-outcome labeled variant,
// e.g. `core_executions_total{outcome="result"}`.
const (
	MetricExecutions       = "core_executions_total"
	MetricPredicateTests   = "core_predicate_tests_total"
	MetricRevokedKeys      = "core_revoked_keys_total"
	MetricRevokedNodes     = "core_revoked_nodes_total"
	MetricPartialResults   = "core_partial_results_total"
	MetricDeadlineExceeded = "core_deadline_exceeded_total"
	MetricUnreachable      = "core_unreachable_sensors_total"
)

// OutcomeKind classifies how an execution ended.
type OutcomeKind int

const (
	// OutcomeResult means the minima were returned and are correct.
	OutcomeResult OutcomeKind = iota + 1
	// OutcomeVetoRevocation means a legitimate veto triggered pinpointing
	// and at least one adversary-held key was revoked.
	OutcomeVetoRevocation
	// OutcomeJunkAggRevocation means a spurious aggregation minimum
	// triggered pinpointing and revocation.
	OutcomeJunkAggRevocation
	// OutcomeJunkConfRevocation means a spurious veto triggered
	// pinpointing and revocation.
	OutcomeJunkConfRevocation
	// OutcomeAlarm means corruption was detected but pinpointing is
	// disabled (Config.AlarmOnly): the execution ends with an alarm and
	// the adversary keeps its keys. This is the behavior of
	// detection-only secure aggregation (SHIA [3], SECOA [19]) that the
	// paper's introduction argues against: "even a single malicious
	// sensor can keep failing the final result verification without
	// exposing itself".
	OutcomeAlarm
)

// String names the outcome kind.
func (k OutcomeKind) String() string {
	switch k {
	case OutcomeResult:
		return "result"
	case OutcomeVetoRevocation:
		return "veto-revocation"
	case OutcomeJunkAggRevocation:
		return "junk-agg-revocation"
	case OutcomeJunkConfRevocation:
		return "junk-conf-revocation"
	case OutcomeAlarm:
		return "alarm"
	default:
		return fmt.Sprintf("OutcomeKind(%d)", int(k))
	}
}

// Outcome reports one execution.
type Outcome struct {
	Kind OutcomeKind
	// Mins holds the per-instance minima when Kind is OutcomeResult.
	Mins []float64
	// RevokedKeys lists pool key indices revoked this execution
	// (individually announced ones only).
	RevokedKeys []int
	// RevokedNodes lists sensors wholly revoked this execution (via the
	// theta threshold or directly).
	RevokedNodes []topology.NodeID
	// PredicateTests counts keyed predicate tests run during pinpointing.
	PredicateTests int
	// Slots is the total network slots consumed.
	Slots int
	// FloodingRounds is Slots normalized by L.
	FloodingRounds float64
	// Stats is the network accounting for the whole execution.
	Stats simnet.Stats
	// AggMaxNodeBytes and AggMedianNodeBytes isolate the aggregation
	// phase's per-sensor traffic (the paper's 2.4KB-per-query metric):
	// the maximum and the median sensor's bytes sent plus received during
	// the aggregation slots only.
	AggMaxNodeBytes    int64
	AggMedianNodeBytes int64
	// PhaseSlots breaks the execution's slots down by phase; Broadcast
	// covers all authenticated-broadcast floods (announcements,
	// predicate-test descriptors, revocations) and Pinpoint the
	// predicate-test reply waves.
	PhaseSlots PhaseSlotBreakdown
	// TrailKind reports which audit-trail kind pinpointing walked (0 when
	// the execution returned a result).
	TrailKind audit.Kind
	// Veto is the veto that triggered pinpointing, if any.
	Veto *VetoMsg
	// Partial marks a degraded execution: when faults are injected, the
	// outcome is best-effort because sensors were unreachable from the
	// base station at the moment the answer was fixed, or because the
	// slot deadline expired. A Partial result's minima cover only the
	// reachable component.
	Partial bool
	// Unreachable counts sensors that had no live path to the base
	// station when the aggregation phase ended (crashed sensors and
	// sensors cut off behind crashed nodes, downed links, or a
	// partition). Zero when no faults are configured.
	Unreachable int
	// DeadlineExceeded reports that the execution hit Config.MaxSlots and
	// returned early instead of completing its remaining phases.
	DeadlineExceeded bool
	// Faults counts the injected fault events (crashes, recoveries, link
	// churn, burst/partition slots) this execution experienced.
	Faults faults.Counters
}

// Engine executes one VMAT query over a simulated sensor network.
type Engine struct {
	cfg       Config
	l         int
	instances int
	net       *simnet.Network
	sensors   []sensorState // flat per-node state, indexed by NodeID
	rng       *crypto.Stream
	channel   *authbcast.Channel
	verifier  authbcast.Verifier

	queryNonce    []byte
	confirmNonce  []byte
	announcedMins []float64
	phaseStart    int

	// bsDelivery remembers, per instance, which edge key and slot
	// delivered the current winning record to the base station — the
	// starting point of junk-triggered pinpointing.
	bsDelivery []deliveryInfo

	predicateTests int
	revokedKeys    []int
	revokedNodes   []topology.NodeID

	aggMaxNodeBytes    int64
	aggMedianNodeBytes int64
	phaseSlots         PhaseSlotBreakdown
	ran                bool

	// Fault-injection state: the deterministic schedule driving the
	// network's fault hook (nil when no faults are configured), the slot
	// deadline, the unreachable-sensor count sampled when the aggregation
	// phase fixed the answer, and whether the deadline fired.
	sched       *faults.Schedule
	maxSlots    int
	unreachable int
	deadlineHit bool

	// poolKeys and sensorKeys memoise the keys this execution has
	// derived, prepared for HMAC, so each is derived and has its pads
	// compressed at most once however many seals, opens and MAC checks
	// use it. They hold only the keys the execution touches, and need no
	// lock: the engine runs on one goroutine.
	poolKeys   map[int]crypto.MACKey
	sensorKeys map[topology.NodeID]crypto.MACKey
}

// PhaseSlotBreakdown partitions an execution's slots by protocol phase.
type PhaseSlotBreakdown struct {
	Tree         int
	Aggregation  int
	Confirmation int
	Broadcast    int
	Pinpoint     int
}

// Total sums the breakdown.
func (p PhaseSlotBreakdown) Total() int {
	return p.Tree + p.Aggregation + p.Confirmation + p.Broadcast + p.Pinpoint
}

type deliveryInfo struct {
	inKey int
	slot  int // local aggregation slot of delivery
}

// NewEngine validates the configuration and prepares an execution.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Graph == nil || cfg.Deployment == nil {
		return nil, errors.New("core: Graph and Deployment are required")
	}
	if cfg.Graph.NumNodes() != cfg.Deployment.NumNodes() {
		return nil, fmt.Errorf("core: graph has %d nodes but deployment has %d",
			cfg.Graph.NumNodes(), cfg.Deployment.NumNodes())
	}
	if cfg.Instances == 0 {
		cfg.Instances = 1
	}
	if cfg.Instances < 0 {
		return nil, fmt.Errorf("core: negative instance count %d", cfg.Instances)
	}
	if cfg.Registry == nil {
		cfg.Registry = keydist.NewRegistry(cfg.Deployment, DefaultTheta)
	}
	if cfg.Malicious == nil {
		cfg.Malicious = map[topology.NodeID]bool{}
	}
	if cfg.Adversary == nil {
		cfg.Adversary = HonestAdversary{}
	}
	if err := cfg.Faults.Validate(cfg.Graph.NumNodes()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if err := cfg.ARQ.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	l := cfg.L
	if l == 0 {
		l = cfg.Graph.HonestDepth(topology.BaseStation, cfg.Malicious)
	}
	if l <= 0 {
		l = 1
	}

	e := &Engine{
		cfg:       cfg,
		l:         l,
		instances: cfg.Instances,
		rng:       crypto.NewStreamFromSeed(cfg.Seed ^ 0x56a1a7),

		poolKeys:   make(map[int]crypto.MACKey),
		sensorKeys: make(map[topology.NodeID]crypto.MACKey),
	}
	e.channel = authbcast.NewChannel(crypto.DeriveKey(crypto.KeyFromUint64(cfg.Seed), "authbcast", 0))
	e.verifier = e.channel.Verifier()

	netCfg := simnet.Config{ARQ: cfg.ARQ}
	if cfg.LossRate > 0 {
		netCfg.DropRate = cfg.LossRate
		netCfg.DropRNG = crypto.NewStreamFromSeed(cfg.Seed ^ 0x10552a7e)
	}
	if cfg.Faults.Enabled() {
		e.sched = faults.NewSchedule(*cfg.Faults, cfg.Graph, cfg.Seed^0xfa0175)
		netCfg.Faults = e.sched
	}
	e.maxSlots = cfg.MaxSlots
	if e.maxSlots == 0 && (e.sched != nil || cfg.ARQ != nil) {
		e.maxSlots = 1000 * (l + 4)
	}
	if cfg.AdversaryFavored {
		netCfg.Order = simnet.MaliciousFirstOrder(cfg.Malicious)
	}
	if len(cfg.Malicious) > 0 {
		mal := cfg.Malicious
		netCfg.ExtraLink = func(from, to topology.NodeID) bool { return mal[from] && mal[to] }
	}
	e.net = simnet.New(cfg.Graph, netCfg)
	if len(cfg.Malicious) > 0 {
		// Malicious sensors may act spontaneously on any slot, so sparse
		// phase sweeps must never skip them.
		active := make([]topology.NodeID, 0, len(cfg.Malicious))
		for id := range cfg.Malicious {
			active = append(active, id)
		}
		e.net.SetAlwaysActive(active)
	}

	// Per-node protocol state lives in one flat array: at million-node
	// scale this is a single allocation with linear access, not n heap
	// objects chased through pointers.
	n := cfg.Graph.NumNodes()
	e.sensors = make([]sensorState, n)
	for id := 0; id < n; id++ {
		e.sensors[id].init(topology.NodeID(id), e.instances,
			e.rng.Fork([]byte("sensor"), crypto.Uint64(uint64(id))))
	}
	e.bsDelivery = make([]deliveryInfo, e.instances)
	for i := range e.bsDelivery {
		e.bsDelivery[i] = deliveryInfo{inKey: NoKey}
	}
	return e, nil
}

// L returns the depth bound in use.
func (e *Engine) L() int { return e.l }

// Registry returns the revocation registry the engine updates.
func (e *Engine) Registry() *keydist.Registry { return e.cfg.Registry }

// Run executes the protocol of Figure 1: tree formation, aggregation,
// confirmation, and — when interference is detected — pinpointing and
// revocation. It returns the execution outcome.
func (e *Engine) Run() (*Outcome, error) {
	if e.ran {
		return nil, errors.New("core: an Engine executes one query; construct a new Engine per execution")
	}
	e.ran = true
	e.queryNonce = e.cfg.QueryNonce
	if e.queryNonce == nil {
		e.queryNonce = e.freshNonce("query")
	}

	// Step 0-1: announce the execution, then form the aggregation tree.
	e.emit(Event{Kind: EventPhase, Label: "announce"})
	e.announce(StartAnnounce{Nonce: e.queryNonce, Instances: e.instances, L: e.l})
	e.emit(Event{Kind: EventPhase, Label: "tree-formation"})
	beforeTree := e.net.Slot()
	e.runTreeFormation()
	e.phaseSlots.Tree += e.net.Slot() - beforeTree
	e.emit(Event{Kind: EventPhase, Label: "aggregation"})

	// Step 2-4: aggregate; a spurious winning minimum triggers
	// junk-triggered pinpointing (Figure 1 step 4).
	beforeAgg := e.net.Stats()
	beforeAggSlot := e.net.Slot()
	mins := e.runAggregation()
	e.noteAggregationBytes(beforeAgg, e.net.Stats())
	e.phaseSlots.Aggregation += e.net.Slot() - beforeAggSlot
	if e.sched != nil {
		// Sample coverage the moment the answer is fixed: any sensor with
		// no live path to the base station right now could not have
		// contributed, so the result is at best partial.
		e.unreachable = e.sched.Unreachable(topology.BaseStation)
	}
	for inst, r := range mins {
		if math.IsInf(r.Value, 1) {
			continue // no minimum received: treated as infinity (step 3)
		}
		valid := e.recordValid(r)
		e.emit(Event{Kind: EventMinReceived, Instance: inst, Value: r.Value, Node: r.Origin, OK: valid, KeyIndex: NoKey})
		if !valid {
			if e.cfg.AlarmOnly {
				return e.outcomeEvent(e.finish(&Outcome{Kind: OutcomeAlarm})), nil
			}
			return e.outcomeEventErr(e.pinpointJunkAgg(inst, r))
		}
	}

	// Step 5: broadcast the minimum and wait for vetoes.
	e.confirmNonce = e.freshNonce("confirm")
	values := make([]float64, e.instances)
	for i, r := range mins {
		values[i] = r.Value
	}
	e.announcedMins = values
	if e.deadlineExceeded() {
		// The slot budget is spent; skip confirmation and return what we
		// have as an explicitly partial best-effort result.
		return e.outcomeEvent(e.finish(&Outcome{Kind: OutcomeResult, Mins: values})), nil
	}
	e.emit(Event{Kind: EventPhase, Label: "confirmation"})
	e.announce(MinAnnounce{Nonce: e.confirmNonce, Mins: values})
	beforeConfirm := e.net.Slot()
	vetoes := e.runConfirmation()
	e.phaseSlots.Confirmation += e.net.Slot() - beforeConfirm

	// Step 6: no veto means the minima are correct.
	if len(vetoes) == 0 {
		return e.outcomeEvent(e.finish(&Outcome{Kind: OutcomeResult, Mins: values})), nil
	}

	// Steps 7-8: classify the first veto received and pinpoint.
	first := vetoes[0]
	valid := e.vetoValid(first.veto)
	e.emit(Event{Kind: EventVetoReceived, Node: first.veto.Vetoer,
		Instance: first.veto.Instance, Value: first.veto.Value, OK: valid, KeyIndex: first.inKey})
	if e.cfg.AlarmOnly {
		return e.outcomeEvent(e.finish(&Outcome{Kind: OutcomeAlarm, Veto: &first.veto})), nil
	}
	if valid {
		return e.outcomeEventErr(e.pinpointVeto(first.veto))
	}
	return e.outcomeEventErr(e.pinpointJunkConf(first))
}

// TreeLevels runs only the opening announcement and the timestamp-based
// tree formation, returning every node's resulting level (-1 when the
// flood never reached it, 0 for the base station). It exists for
// tree-formation experiments (the Figure 2(c) wormhole comparison); a
// full execution uses Run.
func (e *Engine) TreeLevels() ([]int, error) {
	if e.ran {
		return nil, errors.New("core: an Engine executes one query; construct a new Engine per execution")
	}
	e.ran = true
	e.queryNonce = e.cfg.QueryNonce
	if e.queryNonce == nil {
		e.queryNonce = e.freshNonce("query")
	}
	e.announce(StartAnnounce{Nonce: e.queryNonce, Instances: e.instances, L: e.l})
	e.runTreeFormation()
	levels := make([]int, len(e.sensors))
	for id := range e.sensors {
		levels[id] = e.sensors[id].level
	}
	return levels, nil
}

// recordValid applies the base station's checks to a winning record: the
// origin must be a known, unrevoked sensor, the MAC must verify under its
// sensor key, and the optional plausibility check must pass.
func (e *Engine) recordValid(r Record) bool {
	if int(r.Origin) < 0 || int(r.Origin) >= e.cfg.Graph.NumNodes() {
		return false
	}
	if e.cfg.Registry.NodeRevoked(r.Origin) {
		return false
	}
	if key := e.sensorKey(r.Origin); !r.VerifyWith(&key, e.queryNonce) {
		return false
	}
	if e.cfg.VerifyRecord != nil && !e.cfg.VerifyRecord(r) {
		return false
	}
	return true
}

// vetoValid applies the base station's checks to a veto: known unrevoked
// vetoer, valid MAC, plausible level, and a value strictly below the
// announced minimum of its instance.
func (e *Engine) vetoValid(v VetoMsg) bool {
	if int(v.Vetoer) <= 0 || int(v.Vetoer) >= e.cfg.Graph.NumNodes() {
		return false
	}
	if e.cfg.Registry.NodeRevoked(v.Vetoer) {
		return false
	}
	if v.Level < 1 || v.Level > e.l {
		return false
	}
	if v.Instance < 0 || v.Instance >= e.instances {
		return false
	}
	if !(v.Value < e.announcedMins[v.Instance]) {
		return false
	}
	key := e.sensorKey(v.Vetoer)
	return v.VerifyWith(&key, e.confirmNonce)
}

// finish stamps the cost counters into an outcome.
func (e *Engine) finish(o *Outcome) *Outcome {
	o.PredicateTests = e.predicateTests
	o.RevokedKeys = append([]int(nil), e.revokedKeys...)
	o.RevokedNodes = append([]topology.NodeID(nil), e.revokedNodes...)
	o.Stats = e.net.Stats()
	o.Slots = o.Stats.Slots
	o.FloodingRounds = float64(o.Slots) / float64(e.l)
	o.AggMaxNodeBytes = e.aggMaxNodeBytes
	o.AggMedianNodeBytes = e.aggMedianNodeBytes
	o.PhaseSlots = e.phaseSlots
	o.DeadlineExceeded = e.deadlineHit
	o.Unreachable = e.unreachable
	if e.sched != nil {
		o.Faults = e.sched.Counters()
	}
	o.Partial = o.Unreachable > 0 || o.DeadlineExceeded
	if reg := e.cfg.Metrics; reg != nil {
		o.Stats.ReportTo(reg)
		reg.Counter(MetricExecutions).Inc()
		reg.Counter(MetricExecutions + `{outcome="` + o.Kind.String() + `"}`).Inc()
		reg.Counter(MetricPredicateTests).Add(int64(o.PredicateTests))
		reg.Counter(MetricRevokedKeys).Add(int64(len(o.RevokedKeys)))
		reg.Counter(MetricRevokedNodes).Add(int64(len(o.RevokedNodes)))
		if o.Partial {
			reg.Counter(MetricPartialResults).Inc()
		}
		if o.DeadlineExceeded {
			reg.Counter(MetricDeadlineExceeded).Inc()
		}
		reg.Counter(MetricUnreachable).Add(int64(o.Unreachable))
	}
	return o
}

// deadlineExceeded reports (and records) that the execution's slot budget
// is spent. Phase boundaries and pinpointing walk steps consult it so a
// faulty network degrades into a timely partial answer or alarm instead
// of an unbounded grind; with no deadline configured it is always false.
func (e *Engine) deadlineExceeded() bool {
	if e.maxSlots > 0 && e.net.Slot() >= e.maxSlots {
		e.deadlineHit = true
		return true
	}
	return false
}

// outcomeEvent emits the final outcome event and passes the outcome
// through.
func (e *Engine) outcomeEvent(o *Outcome) *Outcome {
	e.emit(Event{Kind: EventOutcome, Label: o.Kind.String()})
	return o
}

// outcomeEventErr is outcomeEvent for (outcome, error) pairs.
func (e *Engine) outcomeEventErr(o *Outcome, err error) (*Outcome, error) {
	if err != nil {
		return o, err
	}
	return e.outcomeEvent(o), nil
}

// noteAggregationBytes isolates per-node traffic of the aggregation phase
// from two whole-network snapshots.
func (e *Engine) noteAggregationBytes(before, after simnet.Stats) {
	diffs := make([]int64, len(after.BytesSent))
	for i := range diffs {
		diffs[i] = (after.BytesSent[i] - before.BytesSent[i]) +
			(after.BytesReceived[i] - before.BytesReceived[i])
		if diffs[i] > e.aggMaxNodeBytes {
			e.aggMaxNodeBytes = diffs[i]
		}
	}
	sort.Slice(diffs, func(i, j int) bool { return diffs[i] < diffs[j] })
	e.aggMedianNodeBytes = diffs[len(diffs)/2]
}

// announce floods an authenticated broadcast to all sensors, charging its
// cost to the shared network and the Broadcast slot bucket.
func (e *Engine) announce(payload authbcast.Encodable) {
	ann := e.channel.Announce(payload)
	adv := e.cfg.Adversary
	mal := e.cfg.Malicious
	before := e.net.Slot()
	authbcast.Flood(e.net, e.verifier, topology.BaseStation, ann,
		func(id topology.NodeID) bool {
			if mal[id] {
				return adv.ForwardAuthBroadcast(id)
			}
			return true
		}, 2*e.l+4)
	e.phaseSlots.Broadcast += e.net.Slot() - before
}

func (e *Engine) freshNonce(label string) []byte {
	return append([]byte(label), crypto.Uint64(e.rng.Uint64())...)
}

// isMalicious reports whether a node is compromised (and not yet wholly
// revoked — a revoked sensor is cut off by every honest receiver anyway,
// but it may still transmit).
func (e *Engine) isMalicious(id topology.NodeID) bool { return e.cfg.Malicious[id] }

// coalitionHolds reports whether any malicious node's ring contains the
// pool key.
func (e *Engine) coalitionHolds(index int) bool {
	for id := range e.cfg.Malicious {
		if e.cfg.Deployment.Holds(id, index) {
			return true
		}
	}
	return false
}

// edgeKey returns the canonical edge key between two nodes: the lowest
// shared pool index that is not revoked.
func (e *Engine) edgeKey(a, b topology.NodeID) (int, bool) {
	reg := e.cfg.Registry
	return e.cfg.Deployment.EdgeKeyIndex(a, b, reg.KeyRevoked)
}

// poolKey returns the pool key with this index, deriving and preparing
// it on first use.
func (e *Engine) poolKey(index int) crypto.MACKey {
	k, ok := e.poolKeys[index]
	if !ok {
		k = crypto.NewMACKey(e.cfg.Deployment.PoolKey(index))
		e.poolKeys[index] = k
	}
	return k
}

// sensorKey returns id's sensor key, deriving and preparing it on first
// use.
func (e *Engine) sensorKey(id topology.NodeID) crypto.MACKey {
	k, ok := e.sensorKeys[id]
	if !ok {
		k = crypto.NewMACKey(e.cfg.Deployment.SensorKey(id))
		e.sensorKeys[id] = k
	}
	return k
}

// ownRecord builds the honest record of a sensor for one instance.
func (e *Engine) ownRecord(id topology.NodeID, instance int) Record {
	value := Inf()
	if e.cfg.Readings != nil {
		value = e.cfg.Readings(id, instance)
	}
	if math.IsInf(value, 1) {
		return Record{Origin: id, Instance: instance, Value: Inf()}
	}
	key := e.sensorKey(id)
	return NewRecord(id, instance, value, &key, e.queryNonce)
}

// sendSealed is the honest send path: seal with the canonical edge key
// shared with the peer and transmit. It fails silently when no unrevoked
// shared key exists (the secure graph lost this edge).
func (e *Engine) sendSealed(ctx *simnet.Context, to topology.NodeID, payload inner) (int, bool) {
	idx, ok := e.edgeKey(ctx.Node(), to)
	if !ok {
		return NoKey, false
	}
	key := e.poolKey(idx)
	env := Seal(idx, &key, ctx.Node(), to, payload)
	if !ctx.Send(to, env) {
		return NoKey, false
	}
	return idx, true
}

// acceptEnvelope is the honest receive path: the receiver must hold the
// envelope's key, the key and the physical sender must not be revoked,
// and the edge MAC must verify for this link.
func (e *Engine) acceptEnvelope(m simnet.Message, self topology.NodeID) (inner, int, bool) {
	env, ok := m.Payload.(Envelope)
	if !ok {
		return nil, NoKey, false
	}
	reg := e.cfg.Registry
	if reg.KeyRevoked(env.KeyIndex) || reg.NodeRevoked(m.From) {
		return nil, NoKey, false
	}
	if !e.cfg.Deployment.Holds(self, env.KeyIndex) {
		return nil, NoKey, false
	}
	key := e.poolKey(env.KeyIndex)
	payload, ok := env.Open(&key, m.From, self)
	if !ok {
		return nil, NoKey, false
	}
	return payload, env.KeyIndex, true
}

// phaseStep builds a StepFunc that runs honest logic for honest nodes and
// defers to the adversary for malicious ones.
func (e *Engine) phaseStep(phase Phase, honest func(*sensorState, *simnet.Context)) simnet.StepFunc {
	return func(ctx *simnet.Context) {
		s := &e.sensors[ctx.Node()]
		if e.isMalicious(s.id) {
			e.cfg.Adversary.Step(phase, &AdvContext{
				engine: e, state: s, ctx: ctx, phase: phase, honest: honest,
			})
			return
		}
		honest(s, ctx)
	}
}

// revokeKey performs and announces one edge-key revocation, applying the
// theta-threshold cascade.
func (e *Engine) revokeKey(index int) {
	crossed := e.cfg.Registry.RevokeKey(index)
	e.revokedKeys = append(e.revokedKeys, index)
	e.emit(Event{Kind: EventRevocation, KeyIndex: index, Node: NoNode})
	e.announce(RevocationAnnounce{KeyIndex: index, Node: NoNode})
	for _, id := range crossed {
		e.revokedNodes = append(e.revokedNodes, id)
		e.emit(Event{Kind: EventRevocation, Node: id, KeyIndex: NoKey})
		e.announce(RevocationAnnounce{Node: id, RingSeed: e.cfg.Deployment.RingSeed(id)})
	}
}

// revokeNode performs and announces a whole-sensor revocation.
func (e *Engine) revokeNode(id topology.NodeID) {
	newly := e.cfg.Registry.RevokeNode(id)
	for _, n := range newly {
		e.revokedNodes = append(e.revokedNodes, n)
		e.emit(Event{Kind: EventRevocation, Node: n, KeyIndex: NoKey})
		e.announce(RevocationAnnounce{Node: n, RingSeed: e.cfg.Deployment.RingSeed(n)})
	}
}
