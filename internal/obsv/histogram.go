package obsv

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// Histogram bucketing. Latencies span six orders of magnitude (a warm
// cache hit is microseconds, a cold SSB scan is seconds), so buckets
// grow geometrically: factor √2 from 1 µs to ~64 s, giving ≈ 18%
// worst-case relative error on quantile estimates before the in-bucket
// interpolation tightens it further. Observations are recorded in
// seconds (the Prometheus base unit).
const (
	histMin    = 1e-6          // lower bound of bucket 0 (1 µs)
	histGrowth = math.Sqrt2    // geometric bucket growth
	numBuckets = 52            // √2^52 · 1 µs ≈ 67 s
	logGrowth  = 0.34657359028 // ln(√2), precomputed for the hot path
)

// byteScale stretches the bucket bounds for histograms of sizes in
// bytes: bucket 0 ends at 64 B and the last bound is ~4 GiB.
const byteScale = 64 / histMin

// Histogram is a fixed-size log-bucketed histogram with atomic buckets:
// Observe is lock-free and allocation-free. scale multiplies every
// bucket bound: 1 for latencies in seconds, byteScale for sizes.
type Histogram struct {
	buckets [numBuckets + 1]atomic.Int64 // +1 overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	scale   float64
}

func newHistogram(scale float64) *Histogram { return &Histogram{scale: scale} }

// bucketIndex maps an observation (seconds) to its bucket: bucket i
// covers (histMin·g^(i-1), histMin·g^i], with everything ≤ histMin in
// bucket 0 and everything beyond the last bound in the overflow bucket.
func bucketIndex(v float64) int {
	if v <= histMin {
		return 0
	}
	i := int(math.Ceil(math.Log(v/histMin) / logGrowth))
	if i >= numBuckets {
		return numBuckets
	}
	return i
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i >= numBuckets {
		return math.Inf(1)
	}
	return histMin * math.Pow(histGrowth, float64(i))
}

// bucketLower is the exclusive lower bound of bucket i.
func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return histMin * math.Pow(histGrowth, float64(i-1))
}

// Observe records one value (seconds, or bytes for a ByteHistogram;
// negatives count as zero).
func (h *Histogram) Observe(v float64) {
	if v < 0 || math.IsNaN(v) {
		v = 0
	}
	h.buckets[bucketIndex(v/h.scale)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// CountSum reads the observation count and value sum.
func (h *Histogram) CountSum() (int64, float64) {
	return h.count.Load(), math.Float64frombits(h.sumBits.Load())
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by walking the buckets
// and interpolating linearly inside the target bucket. Returns 0 when
// the histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i <= numBuckets; i++ {
		n := float64(h.buckets[i].Load())
		if n == 0 {
			continue
		}
		if cum+n >= rank {
			lo, hi := bucketLower(i)*h.scale, bucketUpper(i)*h.scale
			if math.IsInf(hi, 1) {
				return lo // overflow bucket: report its lower bound
			}
			frac := (rank - cum) / n
			return lo + frac*(hi-lo)
		}
		cum += n
	}
	return bucketUpper(numBuckets-1) * h.scale
}

// write renders the histogram in Prometheus exposition format:
// cumulative <name>_bucket{le="..."} series plus _sum and _count. Empty
// buckets are skipped (except the mandatory +Inf) to keep scrapes small.
func (h *Histogram) write(w io.Writer, name, labels string) {
	var cum int64
	for i := 0; i < numBuckets; i++ { // overflow lands in the +Inf line
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", formatFloat(bucketUpper(i)*h.scale)), cum)
	}
	count, sum := h.CountSum()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, mergeLabels(labels, "le", "+Inf"), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, count)
}

// mergeLabels appends one more label pair to a rendered label suffix.
func mergeLabels(labels, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}
