package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestComputeMACDeterministic(t *testing.T) {
	k := KeyFromUint64(42)
	m1 := ComputeMAC(k, []byte("hello"), []byte("world"))
	m2 := ComputeMAC(k, []byte("hello"), []byte("world"))
	if m1 != m2 {
		t.Fatalf("same inputs produced different MACs: %v vs %v", m1, m2)
	}
}

func TestComputeMACKeySeparation(t *testing.T) {
	m1 := ComputeMAC(KeyFromUint64(1), []byte("msg"))
	m2 := ComputeMAC(KeyFromUint64(2), []byte("msg"))
	if m1 == m2 {
		t.Fatal("different keys produced the same MAC")
	}
}

func TestComputeMACPartBoundaries(t *testing.T) {
	// MAC("ab", "c") must differ from MAC("a", "bc"): the length-prefixed
	// encoding makes part boundaries significant.
	k := KeyFromUint64(7)
	m1 := ComputeMAC(k, []byte("ab"), []byte("c"))
	m2 := ComputeMAC(k, []byte("a"), []byte("bc"))
	if m1 == m2 {
		t.Fatal("part boundary collision: MAC(ab|c) == MAC(a|bc)")
	}
}

func TestVerifyMAC(t *testing.T) {
	k := KeyFromUint64(9)
	mac := ComputeMAC(k, []byte("payload"))
	if !VerifyMAC(k, mac, []byte("payload")) {
		t.Fatal("valid MAC rejected")
	}
	if VerifyMAC(k, mac, []byte("tampered")) {
		t.Fatal("MAC accepted for tampered message")
	}
	if VerifyMAC(KeyFromUint64(10), mac, []byte("payload")) {
		t.Fatal("MAC accepted under wrong key")
	}
}

func TestVerifyMACPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64, msg []byte) bool {
		k := KeyFromUint64(seed)
		return VerifyMAC(k, ComputeMAC(k, msg), msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyMACPropertyForgeryFails(t *testing.T) {
	f := func(seed uint64, msg, other []byte) bool {
		if string(msg) == string(other) {
			return true
		}
		k := KeyFromUint64(seed)
		return !VerifyMAC(k, ComputeMAC(k, msg), other)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashOfBoundaries(t *testing.T) {
	h1 := HashOf([]byte("ab"), []byte("c"))
	h2 := HashOf([]byte("a"), []byte("bc"))
	if h1 == h2 {
		t.Fatal("hash part boundary collision")
	}
}

func TestHashMACCommitment(t *testing.T) {
	k := KeyFromUint64(3)
	mac := ComputeMAC(k, []byte("nonce"))
	h := HashMAC(mac)
	// Anyone holding the commitment can recognize the true reply.
	if HashMAC(mac) != h {
		t.Fatal("commitment not reproducible")
	}
	// A different MAC does not match the commitment.
	other := ComputeMAC(k, []byte("other"))
	if HashMAC(other) == h {
		t.Fatal("distinct MACs mapped to same commitment")
	}
}

func TestDeriveKeyIndependence(t *testing.T) {
	master := KeyFromUint64(99)
	seen := make(map[Key]bool)
	for i := uint64(0); i < 100; i++ {
		k := DeriveKey(master, "pool", i)
		if seen[k] {
			t.Fatalf("duplicate derived key at index %d", i)
		}
		seen[k] = true
	}
	if DeriveKey(master, "pool", 0) == DeriveKey(master, "ring", 0) {
		t.Fatal("label does not separate derivation domains")
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream([]byte("seed"))
	b := NewStream([]byte("seed"))
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestStreamSeparation(t *testing.T) {
	a := NewStream([]byte("seed-a"))
	b := NewStream([]byte("seed-b"))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("independent streams collided %d times in 64 draws", same)
	}
}

func TestStreamIntnBounds(t *testing.T) {
	s := NewStreamFromSeed(1)
	for i := 0; i < 10000; i++ {
		v := s.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
}

func TestStreamIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewStreamFromSeed(1).Intn(0)
}

func TestStreamFloat64Range(t *testing.T) {
	s := NewStreamFromSeed(2)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %g", v)
		}
	}
}

func TestStreamExpFloat64MeanAndPositivity(t *testing.T) {
	s := NewStreamFromSeed(3)
	const n = 200000
	const mean = 2.5
	sum := 0.0
	for i := 0; i < n; i++ {
		v := s.ExpFloat64(mean)
		if v < 0 {
			t.Fatalf("negative exponential sample: %g", v)
		}
		sum += v
	}
	got := sum / n
	if got < mean*0.97 || got > mean*1.03 {
		t.Fatalf("empirical mean %g too far from %g", got, mean)
	}
}

func TestStreamPermIsPermutation(t *testing.T) {
	s := NewStreamFromSeed(4)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestStreamForkDistinct(t *testing.T) {
	s := NewStreamFromSeed(5)
	a := s.Fork([]byte("x"))
	b := s.Fork([]byte("x"))
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("successive forks with same label produced identical streams")
	}
}

func TestStreamForkLabelled(t *testing.T) {
	mk := func() *Stream { return NewStreamFromSeed(6) }
	a := mk().Fork([]byte("a"))
	b := mk().Fork([]byte("b"))
	if a.Uint64() == b.Uint64() {
		t.Fatal("forks with different labels produced identical first draw")
	}
	// Same parent state and same label must reproduce the same child.
	c := mk().Fork([]byte("a"))
	d := mk().Fork([]byte("a"))
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("fork not deterministic")
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := NewStreamFromSeed(7)
	vals := make([]int, 20)
	for i := range vals {
		vals[i] = i
	}
	s.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	seen := make([]bool, 20)
	for _, v := range vals {
		if seen[v] {
			t.Fatalf("shuffle corrupted values: %v", vals)
		}
		seen[v] = true
	}
}

func TestEncodingHelpers(t *testing.T) {
	if len(Uint64(1)) != 8 || len(Int64(-1)) != 8 || len(Float64(1.5)) != 8 {
		t.Fatal("encoding helpers must produce 8-byte outputs")
	}
	if string(Uint64(1)) == string(Uint64(2)) {
		t.Fatal("Uint64 encodings collide")
	}
	if string(Float64(1.0)) == string(Float64(1.5)) {
		t.Fatal("Float64 encodings collide")
	}
}

// refMAC is the straightforward crypto/hmac implementation ComputeMAC's
// stack fast path must match bit for bit, across the stack/streaming
// boundary.
func refMAC(k Key, parts ...[]byte) MAC {
	h := hmac.New(sha256.New, k[:])
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var m MAC
	copy(m[:], h.Sum(nil))
	return m
}

func TestComputeMACMatchesHMACReference(t *testing.T) {
	k := KeyFromUint64(42)
	sizes := []int{0, 1, 8, 63, 64, 65, 200, stackLimit - 8, stackLimit - 7, 1000, 4096}
	for _, size := range sizes {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i * 7)
		}
		if got, want := ComputeMAC(k, msg), refMAC(k, msg); got != want {
			t.Fatalf("size %d: ComputeMAC %v != reference %v", size, got, want)
		}
		if got, want := ComputeMAC(k, msg, msg), refMAC(k, msg, msg); got != want {
			t.Fatalf("size %d (two parts): ComputeMAC %v != reference %v", size, got, want)
		}
	}
	if got, want := ComputeMAC(k), refMAC(k); got != want {
		t.Fatalf("no parts: ComputeMAC %v != reference %v", got, want)
	}
}

func TestHashOfMatchesStreamingReference(t *testing.T) {
	for _, size := range []int{0, 13, stackLimit - 8, stackLimit, 2048} {
		msg := make([]byte, size)
		for i := range msg {
			msg[i] = byte(i)
		}
		h := sha256.New()
		var lenBuf [8]byte
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(msg)))
		h.Write(lenBuf[:])
		h.Write(msg)
		var want Hash
		copy(want[:], h.Sum(nil))
		if got := HashOf(msg); got != want {
			t.Fatalf("size %d: HashOf %v != reference %v", size, got, want)
		}
	}
}

func TestDeriveKeyMatchesHMACReference(t *testing.T) {
	master := KeyFromUint64(9)
	for _, label := range []string{"", "pool-key", "a-much-longer-derivation-label-for-boundary-checks"} {
		for _, idx := range []uint64{0, 1, 1 << 40} {
			h := hmac.New(sha256.New, master[:])
			h.Write([]byte(label))
			var ib [8]byte
			binary.BigEndian.PutUint64(ib[:], idx)
			h.Write(ib[:])
			var want Key
			copy(want[:], h.Sum(nil))
			if got := DeriveKey(master, label, idx); got != want {
				t.Fatalf("label %q idx %d: DeriveKey %v != reference %v", label, idx, got, want)
			}
		}
	}
}

func TestHotPrimitivesAllocationFree(t *testing.T) {
	k := KeyFromUint64(3)
	msg := make([]byte, 64)
	if n := testing.AllocsPerRun(200, func() { ComputeMAC(k, msg) }); n != 0 {
		t.Fatalf("ComputeMAC fast path allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { HashOf(msg) }); n != 0 {
		t.Fatalf("HashOf fast path allocates %.1f times per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { DeriveKey(k, "pool-key", 5) }); n != 0 {
		t.Fatalf("DeriveKey allocates %.1f times per op", n)
	}
	// The engine's record MACs: the encoded parts must not escape.
	if n := testing.AllocsPerRun(200, func() { ComputeMAC(k, []byte("record"), Uint64(42), Float64(3.5), Int64(-3)) }); n != 0 {
		t.Fatalf("ComputeMAC over encoded parts allocates %.1f times per op", n)
	}
	// A prepared key's sums, across the padding edges and up to an
	// envelope carrying a 100-synopsis aggregate, built on the stack.
	mk := NewMACKey(k)
	if n := testing.AllocsPerRun(200, func() { mk = NewMACKey(k) }); n != 0 {
		t.Fatalf("NewMACKey allocates %.1f times per op", n)
	}
	for _, size := range []int{0, 55, 56, 64, 119, 120, 1200, 3275} {
		msg := make([]byte, size)
		if n := testing.AllocsPerRun(200, func() { mk.Sum(msg) }); n != 0 {
			t.Fatalf("MACKey.Sum of %d bytes allocates %.1f times per op", size, n)
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		var buf [64]byte
		b := AppendPart(buf[:0], []byte("record"))
		b = AppendUint64Part(b, 42)
		mk.Sum(AppendUint64Part(b, 7))
	}); n != 0 {
		t.Fatalf("MACKey.Sum over a stack-built input allocates %.1f times per op", n)
	}
}
