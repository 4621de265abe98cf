package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// SeedMinMsg and SeedMaxMsg bound the messages SeedHash2Block accepts:
// FIPS 180-4 padding (0x80 terminator, zero fill, 8-byte bit length)
// lands a message in exactly two SHA-256 blocks iff its length is in
// [56, 119] — shorter messages pad into a single block, and
// SeedHash2Block always compresses two.
const (
	SeedMinMsg = 56
	SeedMaxMsg = 119
)

// Pad2Block writes msg into buf with FIPS 180-4 padding so that the
// whole buffer is exactly two SHA-256 blocks: the 0x80 terminator, a
// zero fill, and the 64-bit message bit length. Callers that hash many
// near-identical messages pad once and then overwrite only the message
// bytes that change between calls — the padding tail stays valid as long
// as the length does. It panics unless len(msg) is within
// [SeedMinMsg, SeedMaxMsg].
func Pad2Block(buf *[128]byte, msg []byte) {
	if len(msg) < SeedMinMsg || len(msg) > SeedMaxMsg {
		panic(fmt.Sprintf("crypto: Pad2Block message of %d bytes is outside [%d, %d]",
			len(msg), SeedMinMsg, SeedMaxMsg))
	}
	n := copy(buf[:], msg)
	buf[n] = 0x80
	for i := n + 1; i < 120; i++ {
		buf[i] = 0
	}
	binary.BigEndian.PutUint64(buf[120:], uint64(n)*8)
}

// SeedHash2Block returns the big-endian first eight digest bytes of
// SHA-256 over the msgLen-byte message padded into buf (see Pad2Block) —
// the value NewStream uses as a stream seed. With the kernel it
// compresses the two blocks from the initial state and reads the seed
// from the first two state words, skipping the generic digest plumbing;
// elsewhere it computes the same value via crypto/sha256. Synopsis
// generation (internal/synopsis) is the hot caller: one seed hash per
// (sensor, instance) pair, millions per experiment.
func SeedHash2Block(buf *[128]byte, msgLen int) uint64 {
	if haveKernel {
		h := iv
		sha256blocks(&h, buf[:])
		return uint64(h[0])<<32 | uint64(h[1])
	}
	d := sha256.Sum256(buf[:msgLen])
	return binary.BigEndian.Uint64(d[:8])
}
