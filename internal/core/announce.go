package core

import (
	"math"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// StartAnnounce is the authenticated broadcast that opens an execution: it
// announces the query nonce, the number of MIN instances, and the depth
// bound L, and implicitly schedules tree formation and aggregation
// (Section IV-A/B: "the base station first uses authenticated broadcast to
// announce the query, the aggregation starting time, and a fresh nonce").
type StartAnnounce struct {
	Nonce     []byte
	Instances int
	L         int
}

// WireSize charges the nonce plus the two schedule fields.
func (a StartAnnounce) WireSize() int { return len(a.Nonce) + 8 }

// Encode returns a stable byte encoding.
func (a StartAnnounce) Encode() []byte {
	out := []byte("start")
	out = append(out, crypto.Uint64(uint64(a.Instances))...)
	out = append(out, crypto.Uint64(uint64(a.L))...)
	out = append(out, a.Nonce...)
	return out
}

// MinAnnounce opens the confirmation phase: the base station broadcasts
// the minima it received and a fresh nonce; sensors with smaller readings
// veto (Section IV-C).
type MinAnnounce struct {
	Nonce []byte
	Mins  []float64
}

// WireSize charges 8 bytes per instance minimum plus the nonce.
func (a MinAnnounce) WireSize() int { return len(a.Nonce) + 8*len(a.Mins) }

// Encode returns a stable byte encoding.
func (a MinAnnounce) Encode() []byte {
	out := []byte("min")
	for _, v := range a.Mins {
		out = append(out, crypto.Float64(v)...)
	}
	out = append(out, a.Nonce...)
	return out
}

// RevocationAnnounce tells every sensor to stop accepting a key or a whole
// sensor. Revoking a node announces its ring seed (Section VI-A), from
// which every sensor derives — and drops — the node's entire ring.
type RevocationAnnounce struct {
	// KeyIndex is the revoked pool key index; valid when Node is NoNode.
	KeyIndex int
	// Node is the wholly revoked sensor, or NoNode.
	Node topology.NodeID
	// RingSeed is the announced ring seed when Node is set.
	RingSeed crypto.Key
}

// NoNode marks a key-only revocation announcement.
const NoNode topology.NodeID = -1

// WireSize charges the key index or the seed.
func (a RevocationAnnounce) WireSize() int {
	if a.Node == NoNode {
		return 4
	}
	return 4 + crypto.KeySize
}

// Encode returns a stable byte encoding.
func (a RevocationAnnounce) Encode() []byte {
	out := []byte("revoke")
	out = append(out, crypto.Int64(int64(a.KeyIndex))...)
	out = append(out, crypto.Int64(int64(a.Node))...)
	out = append(out, a.RingSeed[:]...)
	return out
}

// PredKind selects the question a keyed predicate test asks. The paper
// phrases all of them as "received a message ... from a child at the given
// level" variants; this implementation names the walk direction
// explicitly.
type PredKind int

const (
	// PredSentAgg asks: did you, at the given level, forward (or send as
	// your own) a record of the given instance with value <= VMax to your
	// parent, using an out-edge key with pool index in [KeyLo, KeyHi]?
	// This is the Figure 5 predicate of the veto walk.
	PredSentAgg PredKind = iota + 1
	// PredReceivedAgg asks: did you receive, from a child at the given
	// level, a record of the given instance with value <= VMax, via the
	// tested edge key, and is your ID in [IDLo, IDHi]? This is the Figure
	// 6 predicate of the veto walk.
	PredReceivedAgg
	// PredSentJunkAgg asks: did you forward the exact aggregation message
	// MsgID to your parent at the given level via the tested edge key,
	// with your ID in [IDLo, IDHi]? (Junk walk, holder search.)
	PredSentJunkAgg
	// PredReceivedJunkAgg asks: did you receive the exact aggregation
	// message MsgID from a child at level Pos+1 via an in-edge key with
	// pool index in [KeyLo, KeyHi]? (Junk walk, ring search.)
	PredReceivedJunkAgg
	// PredSentJunkVeto asks: did you send/forward the exact veto MsgID in
	// SOF interval Pos via the tested edge key, with your ID in
	// [IDLo, IDHi]? (Confirmation junk walk, holder search.)
	PredSentJunkVeto
	// PredReceivedJunkVeto asks: did you receive the exact veto MsgID in
	// SOF interval Pos via an in-edge key with pool index in
	// [KeyLo, KeyHi]? (Confirmation junk walk, ring search.)
	PredReceivedJunkVeto
)

// Predicate is the predicate part of a keyed predicate test. Field
// meaning depends on Kind; unused fields are zero.
type Predicate struct {
	Kind     PredKind
	Instance int
	VMax     float64
	MsgID    crypto.Hash
	Pos      int // level or SOF interval
	KeyLo    int // pool-index range for ring searches
	KeyHi    int
	IDLo     topology.NodeID // holder-ID range for holder searches
	IDHi     topology.NodeID
}

// Encode returns a stable byte encoding of the predicate.
func (p Predicate) Encode() []byte {
	out := []byte("pred")
	out = append(out, crypto.Int64(int64(p.Kind))...)
	out = append(out, crypto.Int64(int64(p.Instance))...)
	out = append(out, crypto.Float64(p.VMax)...)
	out = append(out, p.MsgID[:]...)
	out = append(out, crypto.Int64(int64(p.Pos))...)
	out = append(out, crypto.Int64(int64(p.KeyLo))...)
	out = append(out, crypto.Int64(int64(p.KeyHi))...)
	out = append(out, crypto.Int64(int64(p.IDLo))...)
	out = append(out, crypto.Int64(int64(p.IDHi))...)
	return out
}

// KeyRef names the key a predicate test is keyed on: either the sensor
// key of a specific node or a pool (edge) key by index.
type KeyRef struct {
	// Sensor is the node whose sensor key is tested, or NoNode.
	Sensor topology.NodeID
	// PoolIndex is the tested pool key index; valid when Sensor is NoNode.
	PoolIndex int
}

// SensorKeyRef refers to the sensor key of id.
func SensorKeyRef(id topology.NodeID) KeyRef { return KeyRef{Sensor: id} }

// PoolKeyRef refers to the pool key with the given index.
func PoolKeyRef(index int) KeyRef { return KeyRef{Sensor: NoNode, PoolIndex: index} }

// IsSensorKey reports whether the reference names a sensor key.
func (k KeyRef) IsSensorKey() bool { return k.Sensor != NoNode }

// Encode returns a stable byte encoding.
func (k KeyRef) Encode() []byte {
	out := []byte("keyref")
	out = append(out, crypto.Int64(int64(k.Sensor))...)
	out = append(out, crypto.Int64(int64(k.PoolIndex))...)
	return out
}

// TestAnnounce is the authenticated broadcast that opens one keyed
// predicate test: <index of K, the predicate, nonce N, H(MAC_K(N))>
// (Section VI). The commitment lets every sensor recognize the unique
// valid "yes" reply without holding K, which is what makes the reply
// relay chokeproof.
type TestAnnounce struct {
	Key        KeyRef
	Pred       Predicate
	Nonce      []byte
	Commitment crypto.Hash
}

// WireSize charges the predicate descriptor, nonce, and commitment.
func (t TestAnnounce) WireSize() int {
	return 8 + 40 + len(t.Nonce) + crypto.HashSize
}

// Encode returns a stable byte encoding.
func (t TestAnnounce) Encode() []byte {
	out := []byte("test")
	out = append(out, t.Key.Encode()...)
	out = append(out, t.Pred.Encode()...)
	out = append(out, t.Nonce...)
	out = append(out, t.Commitment[:]...)
	return out
}

// ReplyMAC computes the "yes" reply MAC_K(N) for a test nonce.
func ReplyMAC(key *crypto.MACKey, nonce []byte) crypto.MAC {
	var buf [shortBufSize]byte
	b := macInput(buf[:], 2*8+len("pred-reply")+len(nonce))
	b = crypto.AppendPart(b, []byte("pred-reply"))
	return key.Sum(crypto.AppendPart(b, nonce))
}

// Inf is the identity value of MIN aggregation.
func Inf() float64 { return math.Inf(1) }
