//go:build amd64 && !purego

package crypto

// sha256blocks is the SHA-NI kernel in sha256block_amd64.s: it
// compresses each whole 64-byte block of p, in order, into the SHA-256
// state h (the eight words a..h). A trailing partial block is ignored.
//
//go:noescape
func sha256blocks(h *[8]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// haveKernel reports whether the CPU has the SHA extensions (plus the
// SSSE3/SSE4.1 the kernel's shuffles need). Checked once at init;
// without it SeedHash2Block and MACKey hash with crypto/sha256, which
// computes the identical values.
var haveKernel = detectKernel()

func detectKernel() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const ssse3Bit, sse41Bit = 1 << 9, 1 << 19
	if c1&ssse3Bit == 0 || c1&sse41Bit == 0 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	const shaBit = 1 << 29
	return b7&shaBit != 0
}
