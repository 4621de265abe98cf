package crypto

import (
	"crypto/sha256"
	"encoding/binary"
	"testing"
)

// TestSeedHash2BlockMatchesSHA256 checks the seed fast path against
// crypto/sha256 for every admissible message length, including both
// boundaries. On CPUs with the SHA extensions this exercises the
// assembly kernel; elsewhere it degenerates to checking the fallback
// against itself, which still pins the padding layout.
func TestSeedHash2BlockMatchesSHA256(t *testing.T) {
	rng := NewStreamFromSeed(99)
	for msgLen := SeedMinMsg; msgLen <= SeedMaxMsg; msgLen++ {
		msg := make([]byte, msgLen)
		for i := range msg {
			msg[i] = byte(rng.Uint64())
		}
		var buf [128]byte
		Pad2Block(&buf, msg)
		got := SeedHash2Block(&buf, msgLen)
		d := sha256.Sum256(msg)
		want := binary.BigEndian.Uint64(d[:8])
		if got != want {
			t.Fatalf("len %d: SeedHash2Block = %#x, sha256 = %#x", msgLen, got, want)
		}
	}
}

// TestSeedHash2BlockKernelVsFallback forces both paths on the same
// buffer when the kernel is available, so a kernel regression cannot
// hide behind the fallback being used in CI.
func TestSeedHash2BlockKernelVsFallback(t *testing.T) {
	if !haveKernel {
		t.Skip("no kernel: a purego build or a CPU without SHA extensions")
	}
	rng := NewStreamFromSeed(7)
	for trial := 0; trial < 200; trial++ {
		msgLen := SeedMinMsg + int(rng.Uint64()%(SeedMaxMsg-SeedMinMsg+1))
		msg := make([]byte, msgLen)
		for i := range msg {
			msg[i] = byte(rng.Uint64())
		}
		var buf [128]byte
		Pad2Block(&buf, msg)
		d := sha256.Sum256(msg)
		h := iv
		sha256blocks(&h, buf[:])
		if got, want := uint64(h[0])<<32|uint64(h[1]), binary.BigEndian.Uint64(d[:8]); got != want {
			t.Fatalf("trial %d len %d: kernel = %#x, sha256 = %#x", trial, msgLen, got, want)
		}
	}
}

func TestPad2BlockRepadding(t *testing.T) {
	// Patching message bytes in place after one Pad2Block must be
	// equivalent to re-padding from scratch — the contract the synopsis
	// generator relies on.
	var a, b [128]byte
	msg := make([]byte, 80)
	Pad2Block(&a, msg)
	for i := 56; i < 64; i++ {
		msg[i] = 0xab
		a[i] = 0xab
	}
	Pad2Block(&b, msg)
	if a != b {
		t.Fatal("patched buffer differs from freshly padded buffer")
	}
	if SeedHash2Block(&a, 80) != SeedHash2Block(&b, 80) {
		t.Fatal("patched and re-padded buffers hash differently")
	}
}

func BenchmarkSeedHash2Block(b *testing.B) {
	var buf [128]byte
	Pad2Block(&buf, make([]byte, 80))
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += SeedHash2Block(&buf, 80)
	}
	_ = sink
}
