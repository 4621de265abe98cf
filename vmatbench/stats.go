package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// errTooFewSamples is returned for a percentile with fewer than ten
// samples beyond it.
var errTooFewSamples = errors.New("too few samples")

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks. It refuses a percentile that
// fewer than ten samples lie beyond: p90 needs at least 100 samples.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %g out of range (0, 100)", p)
	}
	if beyond := float64(len(xs)) * (100 - p) / 100; len(xs) == 0 || beyond < 10-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples: %w (need %d)", p, len(xs), errTooFewSamples,
			int(math.Ceil(1000/(100-p)-1e-9)))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// median returns the middle of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spread printed here is the one the benchmark contract checks.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", n=4.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
