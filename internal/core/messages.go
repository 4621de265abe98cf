// Package core implements VMAT — verifiable minimum with audit trail — the
// secure in-network aggregation protocol with malicious-node revocation of
// Chen and Yu (ICDCS 2011).
//
// An Engine executes one query: timestamp-based tree formation (Section
// IV-A), slotted MIN aggregation with audit trails (IV-B), confirmation
// with SOF veto flooding (IV-C), and — when the execution detects
// interference — veto- or junk-triggered pinpointing built from keyed
// predicate tests (Section VI), ending with the revocation of at least one
// key held by a malicious sensor (Theorems 6 and 7).
//
// The package aggregates a vector of independent MIN instances in one
// pass; a plain MIN query is a vector of length one, and COUNT/SUM/AVERAGE
// queries become vectors of exponential synopses (Section VIII, package
// synopsis), which is how the paper reaches its 2.4 KB-per-query
// communication figure.
package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// Wire sizes, in bytes. A record is 24 bytes including its MAC, matching
// the per-synopsis size the paper assumes in Section IX; envelopes add an
// edge-key index and an 8-byte edge MAC.
const (
	recordWireSize   = 24
	envelopeOverhead = 4 + crypto.MACSize
	treeFormWireSize = 4
	vetoWireSize     = 24
	replyWireSize    = crypto.MACSize
)

// Encoded sizes, in bytes, of the MAC and message-identity inputs: a
// record is origin, instance, value and MAC, and a veto adds its level.
// envelopeMACLen is an envelope's MAC input less its payload encoding:
// four fixed parts ("envelope", key index, from, to) and the length
// prefix of the payload part.
const (
	recordEncSize  = 4 * 8
	vetoEncSize    = 5 * 8
	envelopeMACLen = 8 + len("envelope") + 3*16 + 8
)

// MAC inputs are built on the stack, with one heap buffer beyond these
// sizes. An envelope's buffer holds the input of an envelope carrying
// the paper's 100-synopsis aggregate (Section IX), 3,275 bytes; a
// record's or veto's holds its input under nonces of up to 44 bytes
// (the engine's are at most 22).
const (
	envelopeBufSize = envelopeMACLen + len("agg") + 100*recordEncSize
	shortBufSize    = 128
)

// macInput returns an empty buffer for an n-byte MAC input: buf when
// the input fits, one heap buffer otherwise.
func macInput(buf []byte, n int) []byte {
	if n > len(buf) {
		return make([]byte, 0, n)
	}
	return buf[:0]
}

// Record is one sensor's contribution to one MIN instance: the paper's
// <id, v, MAC_id(v||nonce)> message of Section IV-B. Origin's MAC is
// generated with its sensor key and is verifiable only by the base
// station.
type Record struct {
	Origin   topology.NodeID
	Instance int
	Value    float64
	MAC      crypto.MAC
}

// NewRecord builds and authenticates origin's record for one instance.
func NewRecord(origin topology.NodeID, instance int, value float64, sensorKey *crypto.MACKey, nonce []byte) Record {
	return Record{
		Origin:   origin,
		Instance: instance,
		Value:    value,
		MAC:      recordMAC(sensorKey, origin, instance, value, nonce),
	}
}

func recordMAC(key *crypto.MACKey, origin topology.NodeID, instance int, value float64, nonce []byte) crypto.MAC {
	var buf [shortBufSize]byte
	b := macInput(buf[:], 5*8+len("agg-record")+3*8+len(nonce))
	b = crypto.AppendPart(b, []byte("agg-record"))
	b = crypto.AppendUint64Part(b, uint64(origin))
	b = crypto.AppendUint64Part(b, uint64(instance))
	b = crypto.AppendUint64Part(b, math.Float64bits(value))
	return key.Sum(crypto.AppendPart(b, nonce))
}

// VerifyWith reports whether the record's MAC is valid under the given
// sensor key and query nonce. Only the base station can perform this
// check.
func (r Record) VerifyWith(sensorKey *crypto.MACKey, nonce []byte) bool {
	return r.MAC == recordMAC(sensorKey, r.Origin, r.Instance, r.Value, nonce)
}

// appendTo appends the record's stable encoding, recordEncSize bytes.
func (r Record) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(r.Origin))
	b = binary.BigEndian.AppendUint64(b, uint64(r.Instance))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Value))
	return append(b, r.MAC[:]...)
}

// ID returns the record's message identity, used by junk audit trails:
// the hash of the parts "record-id" and the record's encoding.
func (r Record) ID() crypto.Hash {
	var buf [8 + len("record-id") + 8 + recordEncSize]byte
	b := crypto.AppendPart(buf[:0], []byte("record-id"))
	b = crypto.AppendPartLen(b, recordEncSize)
	return crypto.HashMsg(r.appendTo(b))
}

// String renders the record for traces.
func (r Record) String() string {
	return fmt.Sprintf("record{origin=%d inst=%d v=%g}", r.Origin, r.Instance, r.Value)
}

// AggMsg is the partial aggregation message a sensor forwards to its
// parent: for each instance, the minimum record seen so far. Absent
// instances (value +Inf with no contributor) are carried as zero-origin
// infinite records.
type AggMsg struct {
	Records []Record
}

// WireSize charges 24 bytes per carried instance record.
func (m AggMsg) WireSize() int { return recordWireSize * len(m.Records) }

// AggMsgWireSize returns the wire size of an aggregate carrying the given
// number of instance records: 24 bytes each, so the paper's 100-synopsis
// query moves 2.4 KB per aggregation message (Section IX).
func AggMsgWireSize(instances int) int { return recordWireSize * instances }

// TreeFormMsg is the tree-formation flood message. In VMAT it carries no
// hop count — a sensor's level is the interval in which the message first
// arrives (Section IV-A).
type TreeFormMsg struct{}

// WireSize is a small constant: the message carries only its type.
func (TreeFormMsg) WireSize() int { return treeFormWireSize }

// VetoMsg is the confirmation-phase veto <id, v, level,
// MAC_id(v||level||nonce)> of Section IV-C, extended with the instance
// index the veto refers to.
type VetoMsg struct {
	Vetoer   topology.NodeID
	Instance int
	Value    float64
	Level    int
	MAC      crypto.MAC
}

// NewVeto builds and authenticates a veto.
func NewVeto(vetoer topology.NodeID, instance int, value float64, level int, sensorKey *crypto.MACKey, nonce []byte) VetoMsg {
	return VetoMsg{
		Vetoer:   vetoer,
		Instance: instance,
		Value:    value,
		Level:    level,
		MAC:      vetoMAC(sensorKey, vetoer, instance, value, level, nonce),
	}
}

func vetoMAC(key *crypto.MACKey, vetoer topology.NodeID, instance int, value float64, level int, nonce []byte) crypto.MAC {
	var buf [shortBufSize]byte
	b := macInput(buf[:], 6*8+len("veto")+4*8+len(nonce))
	b = crypto.AppendPart(b, []byte("veto"))
	b = crypto.AppendUint64Part(b, uint64(vetoer))
	b = crypto.AppendUint64Part(b, uint64(instance))
	b = crypto.AppendUint64Part(b, math.Float64bits(value))
	b = crypto.AppendUint64Part(b, uint64(level))
	return key.Sum(crypto.AppendPart(b, nonce))
}

// VerifyWith reports whether the veto's MAC is valid under the given
// sensor key and confirmation nonce.
func (v VetoMsg) VerifyWith(sensorKey *crypto.MACKey, nonce []byte) bool {
	return v.MAC == vetoMAC(sensorKey, v.Vetoer, v.Instance, v.Value, v.Level, nonce)
}

// appendTo appends the veto's stable encoding, vetoEncSize bytes.
func (v VetoMsg) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(v.Vetoer))
	b = binary.BigEndian.AppendUint64(b, uint64(v.Instance))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(v.Value))
	b = binary.BigEndian.AppendUint64(b, uint64(v.Level))
	return append(b, v.MAC[:]...)
}

// ID returns the veto's message identity, used by junk audit trails:
// the hash of the parts "veto-id" and the veto's encoding.
func (v VetoMsg) ID() crypto.Hash {
	var buf [8 + len("veto-id") + 8 + vetoEncSize]byte
	b := crypto.AppendPart(buf[:0], []byte("veto-id"))
	b = crypto.AppendPartLen(b, vetoEncSize)
	return crypto.HashMsg(v.appendTo(b))
}

// WireSize charges the paper's 24-byte figure for a compact record.
func (VetoMsg) WireSize() int { return vetoWireSize }

// PredicateReply is the "yes" answer of a keyed predicate test:
// MAC_K(N), recognizable by every sensor via the pre-broadcast commitment
// H(MAC_K(N)).
type PredicateReply struct {
	MAC crypto.MAC
}

// WireSize is the MAC size.
func (PredicateReply) WireSize() int { return replyWireSize }

// inner is the union of payloads that travel inside edge-authenticated
// envelopes. innerLen is the length of the payload's encoding, the last
// part of its envelope's MAC input, which appendInner appends.
type inner interface {
	WireSize() int
	innerLen() int
}

func (m AggMsg) innerLen() int       { return len("agg") + recordEncSize*len(m.Records) }
func (TreeFormMsg) innerLen() int    { return len("tree-form") }
func (VetoMsg) innerLen() int        { return len("veto") + vetoEncSize }
func (PredicateReply) innerLen() int { return len("reply") + crypto.MACSize }

// appendInner appends payload's encoding. It switches on the concrete
// type rather than calling a method of the interface: a buffer passed
// through an interface method escapes, which would move every
// envelope's MAC input to the heap.
func appendInner(b []byte, payload inner) []byte {
	switch p := payload.(type) {
	case AggMsg:
		b = append(b, "agg"...)
		for _, r := range p.Records {
			b = r.appendTo(b)
		}
		return b
	case TreeFormMsg:
		return append(b, "tree-form"...)
	case VetoMsg:
		return p.appendTo(append(b, "veto"...))
	case PredicateReply:
		return append(append(b, "reply"...), p.MAC[:]...)
	}
	panic(fmt.Sprintf("core: no envelope encoding for %T", payload))
}

// Envelope is an edge-authenticated wrapper: every VMAT message between
// neighbors carries an edge MAC under a pool key both endpoints hold
// (Section III). The key index is in the clear so the receiver knows which
// key to verify with; the MAC binds the payload to the (from, to) pair so
// a captured envelope cannot be replayed verbatim on another link.
type Envelope struct {
	KeyIndex int
	MAC      crypto.MAC
	Inner    inner
}

// WireSize charges the inner payload plus the envelope overhead.
func (e Envelope) WireSize() int { return e.Inner.WireSize() + envelopeOverhead }

// Seal wraps payload for the link from -> to under the given pool key.
func Seal(keyIndex int, key *crypto.MACKey, from, to topology.NodeID, payload inner) Envelope {
	return Envelope{
		KeyIndex: keyIndex,
		MAC:      envelopeMAC(key, keyIndex, from, to, payload),
		Inner:    payload,
	}
}

func envelopeMAC(key *crypto.MACKey, keyIndex int, from, to topology.NodeID, payload inner) crypto.MAC {
	var buf [envelopeBufSize]byte
	n := payload.innerLen()
	b := crypto.AppendPart(macInput(buf[:], envelopeMACLen+n), []byte("envelope"))
	b = crypto.AppendUint64Part(b, uint64(keyIndex))
	b = crypto.AppendUint64Part(b, uint64(from))
	b = crypto.AppendUint64Part(b, uint64(to))
	b = crypto.AppendPartLen(b, n)
	return key.Sum(appendInner(b, payload))
}

// Open verifies the envelope as received on the link from -> to and
// returns the payload. It returns false when the MAC does not verify.
func (e Envelope) Open(key *crypto.MACKey, from, to topology.NodeID) (inner, bool) {
	if e.Inner == nil {
		return nil, false
	}
	if e.MAC != envelopeMAC(key, e.KeyIndex, from, to, e.Inner) {
		return nil, false
	}
	return e.Inner, true
}
