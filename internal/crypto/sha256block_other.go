//go:build !amd64 || purego

package crypto

const haveKernel = false

func sha256blocks(h *[8]uint32, p []byte) {
	panic("crypto: sha256blocks kernel unavailable on this platform")
}
