// Package crypto provides the symmetric-key primitives VMAT relies on:
// keys, truncated HMAC message authentication codes, a one-way hash, key
// derivation, and deterministic pseudo-random streams.
//
// The paper's system model (Section III) restricts sensors to symmetric-key
// cryptography. Every sensor shares a unique sensor key with the base
// station, and pairs of neighboring sensors authenticate each other with
// edge keys drawn from an Eschenauer-Gligor key pool (package keydist).
// MACs are modelled as 8-byte truncated HMAC-SHA256, matching the 8-byte
// MAC size the paper assumes in its communication-cost analysis
// (Section IX).
//
// Two hot paths run SHA-256 compressions themselves, on one kernel,
// sha256blocks: the synopsis seed hash (SeedHash2Block, two blocks per
// synopsis) and HMAC under a MACKey, whose two key-dependent pad blocks
// are compressed once when the key is prepared, not on every MAC. The
// kernel uses the SHA extensions of amd64 CPUs. Without them, or built
// with the purego tag, both paths hash their full padded messages with
// crypto/sha256 instead and produce the same bytes.
package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// KeySize is the byte length of every symmetric key in the system.
const KeySize = 16

// MACSize is the byte length of a truncated MAC. The paper assumes 8-byte
// MACs when accounting for message sizes (Section IX).
const MACSize = 8

// HashSize is the byte length of the one-way hash H() used by the keyed
// predicate test to pre-publish H(MAC_K(N)).
const HashSize = 32

// Key is a symmetric key. Keys are comparable so they can be used as map
// keys when tracking key rings and revocation sets.
type Key [KeySize]byte

// MAC is a truncated message authentication code.
type MAC [MACSize]byte

// Hash is a SHA-256 digest, used as the one-way hash H() of the keyed
// predicate test protocol.
type Hash [HashSize]byte

// String renders a short hex prefix of the key for logs and debugging.
func (k Key) String() string { return fmt.Sprintf("key:%x", k[:4]) }

// String renders the MAC in hex.
func (m MAC) String() string { return fmt.Sprintf("mac:%x", m[:]) }

// blockSize is the SHA-256 block size, the padding width of HMAC.
const blockSize = 64

// stackLimit is the largest message ComputeMAC and HashOf assemble on
// the stack. Their callers' messages (broadcast announcements, stream
// seeds, reply commitments) fit comfortably; a longer one takes one
// heap buffer.
const stackLimit = 512

// assemble appends each part to buf[:0] with AppendPart: the
// domain-separating encoding of ComputeMAC and HashOf, in which
// distinct part boundaries can never collide. It writes into buf when
// the message fits and into one heap buffer otherwise. The parts never
// escape, so the callers' encoded parts (Uint64 and friends) stay on
// the stack.
func assemble(buf []byte, parts [][]byte) []byte {
	n := 0
	for _, p := range parts {
		n += 8 + len(p)
	}
	b := buf[:0]
	if n > len(buf) {
		b = make([]byte, 0, n)
	}
	for _, p := range parts {
		b = AppendPart(b, p)
	}
	return b
}

// ComputeMAC computes the truncated HMAC-SHA256 of the concatenation of
// parts under key k. Parts are length-prefixed before concatenation so
// that distinct part boundaries can never collide (MAC(a||b) differs from
// MAC(ab) when split differently). It prepares k afresh on every call;
// a caller that MACs many messages under one key keeps a MACKey.
func ComputeMAC(k Key, parts ...[]byte) MAC {
	var buf [stackLimit]byte
	mk := NewMACKey(k)
	return mk.Sum(assemble(buf[:], parts))
}

// VerifyMAC reports whether mac is the MAC of parts under key k, in
// constant time with respect to the MAC bytes.
func VerifyMAC(k Key, mac MAC, parts ...[]byte) bool {
	want := ComputeMAC(k, parts...)
	return hmac.Equal(want[:], mac[:])
}

// HashOf computes the publicly known one-way hash H() over the
// concatenation of parts, with the same length-prefixing as ComputeMAC.
func HashOf(parts ...[]byte) Hash {
	var buf [stackLimit]byte
	return HashMsg(assemble(buf[:], parts))
}

// HashMsg computes H() over a message already assembled with
// AppendPart: HashMsg over the appended parts of a HashOf call equals
// that call's hash.
func HashMsg(msg []byte) Hash { return Hash(sha256.Sum256(msg)) }

// HashMAC returns H(mac), the pre-image commitment the base station
// broadcasts in a keyed predicate test so that every sensor can recognize
// the unique valid "yes" reply without holding the key.
func HashMAC(mac MAC) Hash { return HashOf(mac[:]) }

// DeriveKey derives a subkey from a master key, a domain-separation label,
// and a numeric index. It is used to expand a key-pool seed into the pool's
// keys and a ring seed into ring membership, mirroring the paper's remark
// that a sensor's ring can be revoked wholesale by announcing "the
// associated random seed used for the selection" (Section VI-A). The
// subkey is the first KeySize bytes of HMAC-SHA256(master, label ||
// BE64(index)).
func DeriveKey(master Key, label string, index uint64) Key {
	var buf [blockSize]byte
	msg := binary.BigEndian.AppendUint64(append(buf[:0], label...), index)
	mk := NewMACKey(master)
	d := mk.digest(msg)
	var k Key
	copy(k[:], d[:])
	return k
}

// KeyFromUint64 builds a key whose first eight bytes encode v. It is a
// convenience for tests and deterministic fixtures.
func KeyFromUint64(v uint64) Key {
	var k Key
	binary.BigEndian.PutUint64(k[:8], v)
	return k
}

// Uint64 encodes v in big-endian order, a helper for building MAC inputs.
func Uint64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// Int64 encodes v in big-endian two's-complement order.
func Int64(v int64) []byte { return Uint64(uint64(v)) }

// Float64 encodes the IEEE-754 bits of v in big-endian order, a helper for
// MACing sensor readings and synopses.
func Float64(v float64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], floatBits(v))
	return b[:]
}
