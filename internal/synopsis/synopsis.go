// Package synopsis implements the COUNT/SUM/AVERAGE-to-MIN conversion VMAT
// uses for robust aggregate queries (paper Section VIII), following the
// exponential-synopsis scheme of Mosk-Aoyama and Shah [17].
//
// A sensor x with reading v > 0 generates m independent synopses
// a_{1,x} .. a_{m,x}, each exponentially distributed with mean 1/v. The
// minimum of instance i across sensors, a_i^min, is Exp-distributed with
// rate equal to the true sum S, so 1/avg(a_i^min) estimates S. With
// m = Theta(eps^-2 log delta^-1) instances the estimate is an
// (eps, delta)-approximation.
//
// For security, synopses are not free random draws: they are derived
// deterministically from a PRG seeded by (query nonce || sensor ID ||
// instance || claimed reading). A malicious sensor therefore cannot report
// an arbitrarily small synopsis — any valid synopsis corresponds to some
// possible reading, which has precisely the same effect as lying about its
// own reading (allowed by the secure-aggregation problem definition). The
// base station verifies a reported synopsis by re-deriving it over the
// reading domain.
package synopsis

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/crypto"
	"repro/internal/topology"
)

// None is the synopsis value contributed by a sensor whose reading is zero
// (or whose predicate is false for COUNT queries): it never wins a MIN.
func None() float64 { return math.Inf(1) }

// Generate returns the deterministic synopsis of the given instance for a
// sensor with the given reading. It panics if reading <= 0; zero-reading
// sensors contribute None().
func Generate(nonce []byte, id topology.NodeID, reading int64, instance int) float64 {
	var g Generator
	g.init(nonce, reading)
	return g.Generate(id, instance)
}

// Vector returns the sensor's synopses for all m instances at once.
func Vector(nonce []byte, id topology.NodeID, reading int64, m int) []float64 {
	out := make([]float64, m)
	if reading <= 0 {
		for i := range out {
			out[i] = None()
		}
		return out
	}
	var g Generator
	g.init(nonce, reading)
	for i := range out {
		out[i] = g.Generate(id, i)
	}
	return out
}

// Generator derives synopses for a fixed (nonce, reading) across many
// (sensor, instance) pairs. It produces bit-identical values to Generate
// but amortizes the per-call setup: the PRG seed-hash input — the
// length-prefixed ("synopsis", nonce, id, instance, reading) encoding —
// is laid out and SHA-padded once, and each call patches only the eight
// id bytes and eight instance bytes before one two-block seed hash
// (hardware SHA when available). Estimator sweeps that touch millions of
// (sensor, instance) pairs (the Figure 8 accuracy experiment, COUNT
// verification at the base station) are the intended users.
type Generator struct {
	buf     [128]byte
	msgLen  int
	idOff   int
	instOff int
	mean    float64

	// Long nonces push the encoding past the two-block seed-hash limit;
	// those fall back to the general stream path per call (nonce and
	// reading retained for it). Protocol nonces are far below the limit.
	fallback bool
	nonce    []byte
	reading  int64
}

// NewGenerator returns a Generator for the given query nonce and claimed
// reading. It panics if reading <= 0 (zero-reading sensors contribute
// None() and derive nothing).
func NewGenerator(nonce []byte, reading int64) *Generator {
	g := new(Generator)
	g.init(nonce, reading)
	return g
}

func (g *Generator) init(nonce []byte, reading int64) {
	if reading <= 0 {
		panic(fmt.Sprintf("synopsis: reading must be positive, got %d", reading))
	}
	g.mean = 1 / float64(reading)
	g.reading = reading
	g.nonce = nonce
	// Length-prefixed layout, as crypto.HashOf encodes parts, written
	// straight into the seed-hash buffer. The id and instance fields sit
	// at fixed offsets once the nonce length is known.
	msgLen := 5*8 + len("synopsis") + len(nonce) + 3*8
	if msgLen > crypto.SeedMaxMsg {
		g.fallback = true
		return
	}
	msg := crypto.AppendPart(g.buf[:0], []byte("synopsis"))
	msg = crypto.AppendPart(msg, nonce)
	g.idOff = len(msg) + 8
	msg = crypto.AppendUint64Part(msg, 0)
	g.instOff = len(msg) + 8
	msg = crypto.AppendUint64Part(msg, 0)
	msg = crypto.AppendUint64Part(msg, uint64(reading))
	g.msgLen = len(msg)
	crypto.Pad2Block(&g.buf, msg)
}

// U53 returns the raw 53-bit uniform draw behind the (id, instance)
// synopsis: the value u with synopsis = -ln(1 - u/2^53) / reading.
// Because that map is monotone in u, minima can be tracked on raw draws
// and converted once at the end (see ValueFromU53), skipping a logarithm
// per pair.
func (g *Generator) U53(id topology.NodeID, instance int) uint64 {
	if g.fallback {
		stream := crypto.NewStream(
			[]byte("synopsis"),
			g.nonce,
			crypto.Uint64(uint64(id)),
			crypto.Uint64(uint64(instance)),
			crypto.Int64(g.reading),
		)
		return stream.Uint64() >> 11
	}
	binary.BigEndian.PutUint64(g.buf[g.idOff:], uint64(id))
	binary.BigEndian.PutUint64(g.buf[g.instOff:], uint64(instance))
	return crypto.FirstUint64(crypto.SeedHash2Block(&g.buf, g.msgLen)) >> 11
}

// Generate returns the (id, instance) synopsis, identically to the
// package-level Generate for the Generator's nonce and reading.
func (g *Generator) Generate(id topology.NodeID, instance int) float64 {
	return g.valueFromU53(g.U53(id, instance))
}

func (g *Generator) valueFromU53(u uint64) float64 {
	return -math.Log(1-float64(u)/(1<<53)) * g.mean
}

// ValueFromU53 converts a raw draw from U53 back to the synopsis value.
func (g *Generator) ValueFromU53(u uint64) float64 { return g.valueFromU53(u) }

// VerifyReading checks a reported synopsis value against the reading
// domain: it returns the reading in domain whose deterministic synopsis
// equals value, if any. The base station uses this to reject fabricated
// synopses that correspond to no possible reading. For a COUNT query the
// domain is just {1}.
func VerifyReading(nonce []byte, id topology.NodeID, value float64, instance int, domain []int64) (int64, bool) {
	return NewGenerators(nonce).VerifyReading(id, value, instance, domain)
}

// Generators derives synopses for one query nonce and any reading,
// keeping one Generator per reading, built on first use. A query's
// execution draws and verifies every (sensor, instance) synopsis
// through one, so each (nonce, reading) seed-hash input is laid out
// and padded once. It is not safe for concurrent use.
type Generators struct {
	nonce     []byte
	byReading map[int64]*Generator
}

// NewGenerators returns an empty Generators for the query nonce.
func NewGenerators(nonce []byte) *Generators {
	return &Generators{nonce: nonce, byReading: make(map[int64]*Generator)}
}

// Generate returns Generate(nonce, id, reading, instance). It panics
// if reading <= 0.
func (s *Generators) Generate(id topology.NodeID, reading int64, instance int) float64 {
	g, ok := s.byReading[reading]
	if !ok {
		g = NewGenerator(s.nonce, reading)
		s.byReading[reading] = g
	}
	return g.Generate(id, instance)
}

// VerifyReading is the package-level VerifyReading for the nonce.
func (s *Generators) VerifyReading(id topology.NodeID, value float64, instance int, domain []int64) (int64, bool) {
	for _, v := range domain {
		if v > 0 && s.Generate(id, v, instance) == value {
			return v, true
		}
	}
	return 0, false
}

// EstimateSum applies the paper's estimator to the per-instance minima:
// with a^min = sum(mins)/m, the sum is estimated as 1/a^min. If every
// instance minimum is infinite (no sensor had a positive reading) the
// estimate is 0.
func EstimateSum(mins []float64) float64 {
	if len(mins) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range mins {
		if math.IsInf(v, 1) {
			return 0
		}
		total += v
	}
	if total == 0 {
		return math.Inf(1)
	}
	return float64(len(mins)) / total
}

// EstimateSumUnbiased applies the (m-1)/sum variant, which is the unbiased
// estimator for the rate of an exponential given m minima. The paper's
// text uses the m/sum form; this variant backs the estimator ablation
// bench.
func EstimateSumUnbiased(mins []float64) float64 {
	if len(mins) <= 1 {
		return EstimateSum(mins)
	}
	total := 0.0
	for _, v := range mins {
		if math.IsInf(v, 1) {
			return 0
		}
		total += v
	}
	if total == 0 {
		return math.Inf(1)
	}
	return float64(len(mins)-1) / total
}

// NumInstances returns an m = Theta(eps^-2 log delta^-1) instance count
// sufficient for an (eps, delta)-approximation. The constant follows the
// standard Chernoff-style analysis of exponential minima sketches.
func NumInstances(eps, delta float64) int {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("synopsis: eps and delta must be in (0,1), got %g, %g", eps, delta))
	}
	m := int(math.Ceil(8 / (eps * eps) * math.Log(2/delta)))
	if m < 1 {
		m = 1
	}
	return m
}

// RelativeError returns |est-truth|/truth; truth must be nonzero.
func RelativeError(est, truth float64) float64 {
	return math.Abs(est-truth) / math.Abs(truth)
}

// MergeMins folds a second vector of per-instance values into acc,
// keeping the element-wise minimum. It is the in-network aggregation
// operator for synopsis vectors.
func MergeMins(acc, other []float64) {
	for i := range acc {
		if i < len(other) && other[i] < acc[i] {
			acc[i] = other[i]
		}
	}
}
