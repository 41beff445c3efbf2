package obsv

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// maxRelErr is the guaranteed worst-case relative error of a quantile
// estimate: one √2 bucket spans a ×1.415 range, so even without the
// in-bucket interpolation an estimate is within ~42% of the true value;
// we assert the tighter interpolated bound on known distributions.
const maxRelErr = 0.25

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / want
}

func TestQuantileUniform(t *testing.T) {
	h := newHistogram(1)
	// Uniform 1ms..1000ms: true quantile q is ~q·999+1 ms.
	const n = 100000
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		h.Observe((1 + 999*rng.Float64()) / 1000)
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 0.5005},
		{0.95, 0.9501},
		{0.99, 0.9900},
	} {
		got := h.Quantile(tc.q)
		if e := relErr(got, tc.want); e > maxRelErr {
			t.Errorf("p%.0f = %.4fs, want ≈%.4fs (rel err %.1f%% > %.0f%%)",
				tc.q*100, got, tc.want, e*100, maxRelErr*100)
		}
	}
}

func TestQuantilePointMass(t *testing.T) {
	h := newHistogram(1)
	for i := 0; i < 1000; i++ {
		h.Observe(0.010) // 10ms point mass
	}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := h.Quantile(q)
		if e := relErr(got, 0.010); e > maxRelErr {
			t.Errorf("q=%v: got %.5fs, want ≈0.010s (rel err %.1f%%)", q, got, e*100)
		}
	}
}

func TestQuantileBimodal(t *testing.T) {
	h := newHistogram(1)
	// 90% fast (100µs), 10% slow (1s): p50 near 100µs, p99 near 1s.
	for i := 0; i < 900; i++ {
		h.Observe(100e-6)
	}
	for i := 0; i < 100; i++ {
		h.Observe(1.0)
	}
	if got := h.Quantile(0.50); relErr(got, 100e-6) > maxRelErr {
		t.Errorf("p50 = %v, want ≈100µs", got)
	}
	if got := h.Quantile(0.99); relErr(got, 1.0) > maxRelErr {
		t.Errorf("p99 = %v, want ≈1s", got)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	h := newHistogram(1)
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", got)
	}
	h.Observe(-5)         // clamped to 0
	h.Observe(math.NaN()) // clamped to 0
	h.Observe(1e9)        // overflow bucket
	if n, _ := h.CountSum(); n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
	if got := h.Quantile(1.0); got < bucketLower(numBuckets) {
		t.Errorf("overflow quantile %v below last bound %v", got, bucketLower(numBuckets))
	}
}

func TestBucketIndexMonotonic(t *testing.T) {
	prev := -1
	for v := 1e-7; v < 100; v *= 1.1 {
		i := bucketIndex(v)
		if i < prev {
			t.Fatalf("bucketIndex not monotonic at %v: %d < %d", v, i, prev)
		}
		if v > bucketUpper(i)+1e-18 || (i > 0 && v <= bucketLower(i)*(1-1e-12)) {
			t.Fatalf("value %v outside bucket %d bounds (%v, %v]", v, i, bucketLower(i), bucketUpper(i))
		}
		prev = i
	}
}

func TestCountSum(t *testing.T) {
	h := newHistogram(1)
	h.Observe(0.1)
	h.Observe(0.3)
	n, sum := h.CountSum()
	if n != 2 || math.Abs(sum-0.4) > 1e-12 {
		t.Fatalf("count=%d sum=%v, want 2 and 0.4", n, sum)
	}
}

// TestByteHistogram checks that a size histogram resolves values far
// beyond the latency range (a 5 MB body) and renders byte-valued bounds.
func TestByteHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.ByteHistogram("resp_bytes", "sizes")
	for i := 0; i < 100; i++ {
		h.Observe(300)
		h.Observe(5e6)
	}
	if got := h.Quantile(0.25); relErr(got, 300) > maxRelErr {
		t.Errorf("p25 = %v, want ≈300 B", got)
	}
	if got := h.Quantile(0.99); relErr(got, 5e6) > maxRelErr {
		t.Errorf("p99 = %v, want ≈5e6 B", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `resp_bytes_bucket{le="+Inf"} 200`) ||
		strings.Contains(sb.String(), `e-0`) {
		t.Errorf("exposition not in bytes:\n%s", sb.String())
	}
}
