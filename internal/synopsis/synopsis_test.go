package synopsis

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestGenerateDeterministic(t *testing.T) {
	nonce := []byte("query-7")
	a := Generate(nonce, 3, 5, 0)
	b := Generate(nonce, 3, 5, 0)
	if a != b {
		t.Fatalf("same inputs gave %g and %g", a, b)
	}
}

func TestGenerateSeparatesInputs(t *testing.T) {
	nonce := []byte("n")
	base := Generate(nonce, 1, 1, 0)
	if Generate(nonce, 2, 1, 0) == base {
		t.Fatal("different sensor IDs gave identical synopses")
	}
	if Generate(nonce, 1, 2, 0) == base {
		t.Fatal("different readings gave identical synopses")
	}
	if Generate(nonce, 1, 1, 1) == base {
		t.Fatal("different instances gave identical synopses")
	}
	if Generate([]byte("other"), 1, 1, 0) == base {
		t.Fatal("different nonces gave identical synopses")
	}
}

func TestGeneratePanicsOnNonPositiveReading(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Generate with reading 0 did not panic")
		}
	}()
	Generate([]byte("n"), 1, 0, 0)
}

func TestGeneratePositive(t *testing.T) {
	f := func(seed uint64, inst uint8) bool {
		v := Generate([]byte{byte(seed)}, topology.NodeID(seed%97), int64(seed%50+1), int(inst))
		return v >= 0 && !math.IsInf(v, 1) && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorZeroReadingIsNone(t *testing.T) {
	v := Vector([]byte("n"), 4, 0, 5)
	for i, x := range v {
		if !math.IsInf(x, 1) {
			t.Fatalf("instance %d of zero reading = %g, want +Inf", i, x)
		}
	}
}

func TestVectorMatchesGenerate(t *testing.T) {
	nonce := []byte("q")
	v := Vector(nonce, 9, 3, 4)
	for i := range v {
		if v[i] != Generate(nonce, 9, 3, i) {
			t.Fatalf("Vector[%d] disagrees with Generate", i)
		}
	}
}

func TestVerifyReadingAcceptsHonest(t *testing.T) {
	nonce := []byte("count-query")
	val := Generate(nonce, 12, 1, 7)
	got, ok := VerifyReading(nonce, 12, val, 7, []int64{1})
	if !ok || got != 1 {
		t.Fatalf("VerifyReading rejected honest count synopsis: %v %v", got, ok)
	}
}

func TestVerifyReadingRejectsFabricated(t *testing.T) {
	nonce := []byte("count-query")
	// An adversary reporting an arbitrary tiny value is caught.
	if _, ok := VerifyReading(nonce, 12, 1e-12, 0, []int64{1}); ok {
		t.Fatal("fabricated synopsis accepted")
	}
}

func TestVerifyReadingSumDomain(t *testing.T) {
	nonce := []byte("sum-query")
	domain := []int64{1, 2, 3, 4, 5}
	val := Generate(nonce, 3, 4, 2)
	got, ok := VerifyReading(nonce, 3, val, 2, domain)
	if !ok || got != 4 {
		t.Fatalf("VerifyReading = %d, %v; want 4, true", got, ok)
	}
	// Wrong instance does not verify.
	if _, ok := VerifyReading(nonce, 3, val, 3, domain); ok {
		t.Fatal("synopsis verified under wrong instance")
	}
	// Non-positive domain entries are skipped, not panicked on.
	if _, ok := VerifyReading(nonce, 3, val, 2, []int64{0, -1, 4}); !ok {
		t.Fatal("domain with non-positive entries broke verification")
	}
}

func TestEstimateSumEmptyAndInf(t *testing.T) {
	if got := EstimateSum(nil); got != 0 {
		t.Fatalf("EstimateSum(nil) = %g, want 0", got)
	}
	if got := EstimateSum([]float64{math.Inf(1), math.Inf(1)}); got != 0 {
		t.Fatalf("EstimateSum(all inf) = %g, want 0 (empty network)", got)
	}
}

func TestEstimateSumAccuracyCount(t *testing.T) {
	// Simulate a COUNT of c sensors with m=100 synopses and check the
	// average relative error over trials is below ~10% (the Figure 8
	// headline).
	const m = 100
	const c = 500
	const trials = 50
	totalErr := 0.0
	for trial := 0; trial < trials; trial++ {
		nonce := []byte{byte(trial), byte(trial >> 8), 0xAA}
		mins := make([]float64, m)
		for i := range mins {
			mins[i] = math.Inf(1)
		}
		for id := topology.NodeID(1); id <= c; id++ {
			MergeMins(mins, Vector(nonce, id, 1, m))
		}
		totalErr += RelativeError(EstimateSum(mins), c)
	}
	avg := totalErr / trials
	if avg > 0.15 {
		t.Fatalf("average relative error %.3f too high for m=%d", avg, m)
	}
}

func TestEstimateSumAccuracySum(t *testing.T) {
	// SUM of heterogeneous readings.
	const m = 200
	nonce := []byte("sum-trial")
	readings := []int64{5, 17, 42, 1, 99, 3, 8}
	var truth int64
	mins := make([]float64, m)
	for i := range mins {
		mins[i] = math.Inf(1)
	}
	for idx, r := range readings {
		truth += r
		MergeMins(mins, Vector(nonce, topology.NodeID(idx+1), r, m))
	}
	if err := RelativeError(EstimateSum(mins), float64(truth)); err > 0.35 {
		t.Fatalf("single-trial sum error %.3f implausibly high", err)
	}
}

func TestUnbiasedEstimatorLowerBias(t *testing.T) {
	// Over many trials the unbiased estimator's mean should sit closer to
	// the truth than the paper's m/sum form (which overestimates by
	// ~m/(m-1)).
	const m = 50
	const c = 200
	const trials = 400
	sumPlain, sumUnbiased := 0.0, 0.0
	for trial := 0; trial < trials; trial++ {
		nonce := []byte{byte(trial), byte(trial >> 8), 0xBB}
		mins := make([]float64, m)
		for i := range mins {
			mins[i] = math.Inf(1)
		}
		for id := topology.NodeID(1); id <= c; id++ {
			MergeMins(mins, Vector(nonce, id, 1, m))
		}
		sumPlain += EstimateSum(mins)
		sumUnbiased += EstimateSumUnbiased(mins)
	}
	biasPlain := math.Abs(sumPlain/trials - c)
	biasUnbiased := math.Abs(sumUnbiased/trials - c)
	if biasUnbiased > biasPlain {
		t.Fatalf("unbiased estimator bias %.2f exceeds plain %.2f", biasUnbiased, biasPlain)
	}
}

func TestNumInstancesMonotone(t *testing.T) {
	if NumInstances(0.1, 0.05) <= NumInstances(0.2, 0.05) {
		t.Fatal("tighter eps must need more instances")
	}
	if NumInstances(0.1, 0.01) <= NumInstances(0.1, 0.1) {
		t.Fatal("tighter delta must need more instances")
	}
}

func TestNumInstancesPanicsOnBadInput(t *testing.T) {
	for _, c := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.1, 0}, {0.1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NumInstances(%g,%g) did not panic", c[0], c[1])
				}
			}()
			NumInstances(c[0], c[1])
		}()
	}
}

func TestMergeMins(t *testing.T) {
	acc := []float64{1, 5, math.Inf(1)}
	MergeMins(acc, []float64{2, 3, 7})
	want := []float64{1, 3, 7}
	for i := range want {
		if acc[i] != want[i] {
			t.Fatalf("MergeMins = %v, want %v", acc, want)
		}
	}
	// Shorter other vector leaves the tail untouched.
	MergeMins(acc, []float64{0})
	if acc[0] != 0 || acc[1] != 3 {
		t.Fatalf("MergeMins with short vector = %v", acc)
	}
}

func TestEstimatorScaleInvariance(t *testing.T) {
	// Property: doubling every reading roughly doubles the estimate.
	const m = 300
	nonce := []byte("scale")
	mins1 := make([]float64, m)
	mins2 := make([]float64, m)
	for i := range mins1 {
		mins1[i], mins2[i] = math.Inf(1), math.Inf(1)
	}
	for id := topology.NodeID(1); id <= 50; id++ {
		MergeMins(mins1, Vector(nonce, id, 10, m))
		MergeMins(mins2, Vector(nonce, id, 20, m))
	}
	ratio := EstimateSum(mins2) / EstimateSum(mins1)
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("scale ratio %.2f, want ~2", ratio)
	}
}

// TestHotPrimitivesAllocationFree pins synopsis generation to the
// stack: Generate lays its seed-hash input out in a local Generator.
func TestHotPrimitivesAllocationFree(t *testing.T) {
	nonce := []byte("synopsis-query-nonce")
	if n := testing.AllocsPerRun(200, func() { Generate(nonce, 17, 3, 5) }); n != 0 {
		t.Fatalf("Generate allocates %.1f times per op", n)
	}
	g := NewGenerator(nonce, 3)
	if n := testing.AllocsPerRun(200, func() { g.Generate(17, 5) }); n != 0 {
		t.Fatalf("Generator.Generate allocates %.1f times per op", n)
	}
}
