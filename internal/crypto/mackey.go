package crypto

import (
	"crypto/sha256"
	"encoding/binary"
)

// MACKey is a Key prepared for HMAC-SHA256. HMAC hashes a full block
// derived from the key before each message (the key XOR 0x36, zero
// filled) and another before the inner digest (XOR 0x5c). Those two
// blocks depend only on the key, so NewMACKey compresses each once,
// into two SHA-256 states, and Sum starts from them: a MAC over a
// message under 56 bytes costs two compressions instead of four, and
// one under 120 bytes three instead of five. The engine keeps one per
// pool and sensor key it uses. Without the kernel (see haveKernel) the
// states stay unset and Sum hashes both pad blocks with crypto/sha256
// on every call, giving the same bytes.
type MACKey struct {
	key          Key
	inner, outer [8]uint32
}

// iv is the SHA-256 initial state (FIPS 180-4, section 5.3.3).
var iv = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// fallbackStack covers the MAC input of an envelope carrying the
// paper's 100-synopsis aggregate (3,275 bytes, see internal/core), so
// the crypto/sha256 fallback copies every protocol message to the
// stack; a longer one takes one heap buffer.
const fallbackStack = 4096

// NewMACKey compresses k's two HMAC pad blocks.
func NewMACKey(k Key) MACKey {
	m := MACKey{key: k}
	if haveKernel {
		m.inner, m.outer = iv, iv
		ipad := padBlock(k, 0x36)
		sha256blocks(&m.inner, ipad[:])
		opad := padBlock(k, 0x5c)
		sha256blocks(&m.outer, opad[:])
	}
	return m
}

// padBlock returns one HMAC pad block: k zero-filled to a block, each
// byte XORed with x.
func padBlock(k Key, x byte) [blockSize]byte {
	var b [blockSize]byte
	for i := range b {
		b[i] = x
	}
	for i, kb := range k {
		b[i] ^= kb
	}
	return b
}

// Sum returns the truncated HMAC-SHA256 of msg under the key. msg is a
// MAC input already assembled by AppendPart and friends, so Sum over
// the parts of a ComputeMAC call, each appended with AppendPart, equals
// that call's MAC.
func (m *MACKey) Sum(msg []byte) MAC {
	d := m.digest(msg)
	var mac MAC
	copy(mac[:], d[:])
	return mac
}

// digest returns the full HMAC-SHA256 of msg.
func (m *MACKey) digest(msg []byte) [sha256.Size]byte {
	if !haveKernel {
		return m.digestFallback(msg)
	}
	// Inner hash: the whole blocks of msg straight from the caller's
	// buffer, then the last partial block with the FIPS 180-4 padding
	// (0x80, zeros, the bit length of pad block plus msg), which spills
	// into a second block when fewer than nine bytes are left.
	h := m.inner
	full := len(msg) &^ (blockSize - 1)
	if full > 0 {
		sha256blocks(&h, msg[:full])
	}
	var tail [2 * blockSize]byte
	n := copy(tail[:], msg[full:])
	tail[n] = 0x80
	end := blockSize
	if n >= blockSize-8 {
		end = 2 * blockSize
	}
	binary.BigEndian.PutUint64(tail[end-8:], uint64(blockSize+len(msg))*8)
	sha256blocks(&h, tail[:end])

	// Outer hash: one block holding the inner digest and its padding.
	var block [blockSize]byte
	putState(block[:], &h)
	block[sha256.Size] = 0x80
	binary.BigEndian.PutUint64(block[blockSize-8:], (blockSize+sha256.Size)*8)
	h = m.outer
	sha256blocks(&h, block[:])
	var d [sha256.Size]byte
	putState(d[:], &h)
	return d
}

// digestFallback computes HMAC-SHA256 the textbook way with
// crypto/sha256: the inner pad block and msg, then the outer pad block
// and the inner digest.
func (m *MACKey) digestFallback(msg []byte) [sha256.Size]byte {
	var buf [blockSize + fallbackStack]byte
	var b []byte
	if n := blockSize + len(msg); n <= len(buf) {
		b = buf[:n]
	} else {
		b = make([]byte, n)
	}
	ipad := padBlock(m.key, 0x36)
	copy(b, ipad[:])
	copy(b[blockSize:], msg)
	inner := sha256.Sum256(b)
	var outer [blockSize + sha256.Size]byte
	opad := padBlock(m.key, 0x5c)
	copy(outer[:], opad[:])
	copy(outer[blockSize:], inner[:])
	return sha256.Sum256(outer[:])
}

// putState writes the state words big-endian: the digest bytes.
func putState(b []byte, h *[8]uint32) {
	for i, w := range h {
		binary.BigEndian.PutUint32(b[4*i:], w)
	}
}

// AppendPart appends one part of a MAC or hash input to b: the part's
// 64-bit big-endian length, then its bytes. ComputeMAC and HashOf
// encode their parts this way, which keeps distinct part boundaries
// from colliding. Callers that build a MACKey.Sum input in their own
// buffer append each part with it.
func AppendPart(b, p []byte) []byte {
	return append(AppendPartLen(b, len(p)), p...)
}

// AppendPartLen appends the length prefix of an n-byte part whose bytes
// the caller appends next.
func AppendPartLen(b []byte, n int) []byte {
	return binary.BigEndian.AppendUint64(b, uint64(n))
}

// AppendUint64Part appends the part Uint64(v).
func AppendUint64Part(b []byte, v uint64) []byte {
	return binary.BigEndian.AppendUint64(AppendPartLen(b, 8), v)
}
