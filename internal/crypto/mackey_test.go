package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"testing"
)

// testMsg returns n pseudo-random bytes, a fresh draw for each n.
func testMsg(rng *Stream, n int) []byte {
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(rng.Uint64())
	}
	return msg
}

// macLengths are the assembled message lengths the MACKey tests cover:
// every length up to 1200, which crosses each SHA-256 padding edge of
// the inner hash (55/56, 63/64, 119/120 bytes and on) and ComputeMAC's
// stack buffer, plus the edges of the fallback's stack buffer.
func macLengths() []int {
	var ns []int
	for n := 0; n <= 1200; n++ {
		ns = append(ns, n)
	}
	return append(ns, fallbackStack-1, fallbackStack, fallbackStack+1, 2*fallbackStack+13)
}

// TestMACKeyMatchesHMACReference checks the full HMAC-SHA256 digest and
// the truncated MAC of a prepared key against crypto/hmac, on the kernel
// when the CPU has one and on the fallback otherwise.
func TestMACKeyMatchesHMACReference(t *testing.T) {
	rng := NewStreamFromSeed(24)
	for _, n := range macLengths() {
		k := KeyFromUint64(rng.Uint64())
		k[15] = byte(n)
		msg := testMsg(rng, n)
		h := hmac.New(sha256.New, k[:])
		h.Write(msg)
		want := h.Sum(nil)
		mk := NewMACKey(k)
		if got := mk.digest(msg); string(got[:]) != string(want) {
			t.Fatalf("len %d: digest %x, hmac %x", n, got, want)
		}
		if got := mk.Sum(msg); string(got[:]) != string(want[:MACSize]) {
			t.Fatalf("len %d: Sum %v, hmac %x", n, got, want[:MACSize])
		}
	}
}

// TestMACKeyKernelVsFallback runs both paths on the same keys and
// messages when the kernel is available, so a kernel regression cannot
// hide behind the fallback being the one CI exercises, and the
// fallback is checked on this CPU too.
func TestMACKeyKernelVsFallback(t *testing.T) {
	if !haveKernel {
		t.Skip("no kernel: a purego build or a CPU without SHA extensions")
	}
	rng := NewStreamFromSeed(25)
	for _, n := range macLengths() {
		mk := NewMACKey(KeyFromUint64(rng.Uint64()))
		msg := testMsg(rng, n)
		if got, want := mk.digest(msg), mk.digestFallback(msg); got != want {
			t.Fatalf("len %d: kernel %x, fallback %x", n, got, want)
		}
	}
}

// TestAppendPartMatchesComputeMAC pins the encoding contract MACKey.Sum
// callers rely on: parts appended with AppendPart, AppendPartLen and
// AppendUint64Part MAC exactly as ComputeMAC's parts do.
func TestAppendPartMatchesComputeMAC(t *testing.T) {
	k := KeyFromUint64(11)
	mk := NewMACKey(k)
	nonce := []byte("query-nonce")
	b := AppendPart(nil, []byte("record"))
	b = AppendUint64Part(b, 42)
	b = AppendPartLen(b, len(nonce))
	b = append(b, nonce...)
	if got, want := mk.Sum(b), ComputeMAC(k, []byte("record"), Uint64(42), nonce); got != want {
		t.Fatalf("appended parts MAC %v, ComputeMAC %v", got, want)
	}
	if got, want := HashMsg(b), HashOf([]byte("record"), Uint64(42), nonce); got != want {
		t.Fatalf("appended parts hash %v, HashOf %v", got, want)
	}
}

func BenchmarkMACKeySum(b *testing.B) {
	mk := NewMACKey(KeyFromUint64(1))
	for _, n := range []int{48, 100, 1000} {
		msg := make([]byte, n)
		b.Run(fmt.Sprintf("%dB", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mk.Sum(msg)
			}
		})
	}
}
