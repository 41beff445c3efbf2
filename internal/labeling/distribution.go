package labeling

import (
	"fmt"
	"math"
	"sort"
)

// Quantiles is an equi-depth labeler: it ranks the comparison values and
// splits the ordered set of cells into K groups labeled 'top-1' … 'top-K'
// (Section 3.3.2). Custom group names can be supplied; 'quartiles' is
// Quantiles with K=4.
type Quantiles struct {
	name  string
	k     int
	names []string // NullLabel, then group g at code g+1
}

// NewQuantiles builds a K-quantile labeler. When labels is nil the groups
// are named top-1 … top-K (top-1 holds the largest values).
func NewQuantiles(name string, k int, labels []string) (*Quantiles, error) {
	if k < 2 {
		return nil, fmt.Errorf("labeling: quantile labeler needs k >= 2, got %d", k)
	}
	if labels == nil {
		labels = make([]string, k)
		for i := range labels {
			labels[i] = fmt.Sprintf("top-%d", i+1)
		}
	}
	if len(labels) != k {
		return nil, fmt.Errorf("labeling: %d labels for %d quantiles", len(labels), k)
	}
	names, err := labelSet(labels)
	if err != nil {
		return nil, err
	}
	return &Quantiles{name: name, k: k, names: names}, nil
}

// Name implements Labeler.
func (q *Quantiles) Name() string { return q.name }

// Apply ranks the values descending and assigns group g = position·k/n, so
// equal-size groups; ties keep input order (stable).
func (q *Quantiles) Apply(values []float64) Column {
	out := make([]uint8, len(values))
	order := make([]int, 0, len(values))
	for i, v := range values {
		if !math.IsNaN(v) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] > values[order[b]] })
	n := len(order)
	for pos, idx := range order {
		g := pos * q.k / n
		if g >= q.k {
			g = q.k - 1
		}
		out[idx] = uint8(g + 1)
	}
	return Column{Codes: out, Names: q.names}
}

// EquiWidth is an equi-width histogram labeler: the [min, max] span of the
// comparison values is split into K equal-width bins (Section 3.3.2).
type EquiWidth struct {
	name  string
	k     int
	names []string // NullLabel, then bin b at code b+1
}

// NewEquiWidth builds a K-bin equi-width labeler. When labels is nil the
// bins are named bin-1 … bin-K (bin-1 holds the smallest values).
func NewEquiWidth(name string, k int, labels []string) (*EquiWidth, error) {
	if k < 2 {
		return nil, fmt.Errorf("labeling: equi-width labeler needs k >= 2, got %d", k)
	}
	if labels == nil {
		labels = make([]string, k)
		for i := range labels {
			labels[i] = fmt.Sprintf("bin-%d", i+1)
		}
	}
	if len(labels) != k {
		return nil, fmt.Errorf("labeling: %d labels for %d bins", len(labels), k)
	}
	names, err := labelSet(labels)
	if err != nil {
		return nil, err
	}
	return &EquiWidth{name: name, k: k, names: names}, nil
}

// Name implements Labeler.
func (e *EquiWidth) Name() string { return e.name }

// Apply implements Labeler.
func (e *EquiWidth) Apply(values []float64) Column {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	out := make([]uint8, len(values))
	span := hi - lo
	for i, v := range values {
		switch {
		case math.IsNaN(v):
		case span == 0:
			out[i] = 1
		default:
			b := int(float64(e.k) * (v - lo) / span)
			if b >= e.k {
				b = e.k - 1
			}
			out[i] = uint8(b + 1)
		}
	}
	return Column{Codes: out, Names: e.names}
}

// ZScoreRound is the "more simplistic scheme" of Section 3.3.2: each cell
// is labeled with its comparison value's z-score rounded to the nearest
// integer, clamped to [-3, +3] (e.g. "+2σ", "0σ", "-1σ").
type ZScoreRound struct{ name string }

// zscoreNames is ZScoreRound's label set: a rounded z-score r at code r+4.
var zscoreNames = []string{NullLabel, "-3σ", "-2σ", "-1σ", "0σ", "+1σ", "+2σ", "+3σ"}

// NewZScoreRound builds the rounded z-score labeler.
func NewZScoreRound(name string) *ZScoreRound { return &ZScoreRound{name: name} }

// Name implements Labeler.
func (z *ZScoreRound) Name() string { return z.name }

// Apply implements Labeler.
func (z *ZScoreRound) Apply(values []float64) Column {
	var n, sum float64
	for _, v := range values {
		if !math.IsNaN(v) {
			n++
			sum += v
		}
	}
	out := Column{Codes: make([]uint8, len(values)), Names: zscoreNames}
	if n == 0 {
		return out
	}
	mean := sum / n
	var ss float64
	for _, v := range values {
		if !math.IsNaN(v) {
			d := v - mean
			ss += d * d
		}
	}
	sd := math.Sqrt(ss / n)
	for i, v := range values {
		if math.IsNaN(v) {
			continue
		}
		var zt float64
		if sd > 0 {
			zt = (v - mean) / sd
		}
		r := int(math.Round(zt))
		if r > 3 {
			r = 3
		}
		if r < -3 {
			r = -3
		}
		out.Codes[i] = uint8(r + 4)
	}
	return out
}

// KMeans1D lets "the system come up with the optimal number of clusters
// and assign cells accordingly" (Section 3.3.2): exact 1-D k-means by
// dynamic programming for each k in [2, MaxK], picking the k with the
// best mean silhouette coefficient. Clusters are labeled cluster-1
// (largest centroid) … cluster-k.
type KMeans1D struct {
	name  string
	maxK  int
	names []string // NullLabel, then cluster-j at code j
}

// NewKMeans1D builds the clustering labeler; maxK bounds the search.
func NewKMeans1D(name string, maxK int) (*KMeans1D, error) {
	if maxK < 2 {
		return nil, fmt.Errorf("labeling: kmeans labeler needs maxK >= 2, got %d", maxK)
	}
	labels := make([]string, maxK)
	for j := range labels {
		labels[j] = fmt.Sprintf("cluster-%d", j+1)
	}
	names, err := labelSet(labels)
	if err != nil {
		return nil, err
	}
	return &KMeans1D{name: name, maxK: maxK, names: names}, nil
}

// Name implements Labeler.
func (k *KMeans1D) Name() string { return k.name }

// Apply implements Labeler.
func (k *KMeans1D) Apply(values []float64) Column {
	idx := make([]int, 0, len(values))
	out := Column{Codes: make([]uint8, len(values)), Names: k.names}
	for i, v := range values {
		if !math.IsNaN(v) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return out
	}
	sort.SliceStable(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	xs := make([]float64, len(idx))
	for p, i := range idx {
		xs[p] = values[i]
	}
	maxK := k.maxK
	if maxK > len(xs) {
		maxK = len(xs)
	}
	bestAssign := make([]int, len(xs)) // all zeros: one cluster
	bestScore := math.Inf(-1)
	bestK := 1
	for kk := 2; kk <= maxK; kk++ {
		assign, _ := kmeansDP(xs, kk)
		score := silhouette(xs, assign, kk)
		if score > bestScore {
			bestScore, bestAssign, bestK = score, assign, kk
		}
	}
	// Label clusters from the largest centroid down: the sorted order means
	// cluster ids increase with value, so cluster-1 = highest id.
	for p, i := range idx {
		out.Codes[i] = uint8(bestK - bestAssign[p])
	}
	return out
}

// kmeansDP computes the optimal k-means clustering of the sorted xs into
// kk contiguous clusters by dynamic programming (O(k·n²) with prefix
// sums), returning per-point cluster ids (0 = smallest values) and the
// total within-cluster sum of squares.
func kmeansDP(xs []float64, kk int) ([]int, float64) {
	n := len(xs)
	pre := make([]float64, n+1)  // prefix sums
	pre2 := make([]float64, n+1) // prefix sums of squares
	for i, x := range xs {
		pre[i+1] = pre[i] + x
		pre2[i+1] = pre2[i] + x*x
	}
	cost := func(i, j int) float64 { // WSS of xs[i:j]
		m := float64(j - i)
		s := pre[j] - pre[i]
		return (pre2[j] - pre2[i]) - s*s/m
	}
	const inf = math.MaxFloat64
	dp := make([][]float64, kk+1)
	cut := make([][]int, kk+1)
	for c := range dp {
		dp[c] = make([]float64, n+1)
		cut[c] = make([]int, n+1)
		for j := range dp[c] {
			dp[c][j] = inf
		}
	}
	dp[0][0] = 0
	for c := 1; c <= kk; c++ {
		for j := c; j <= n; j++ {
			for i := c - 1; i < j; i++ {
				if dp[c-1][i] == inf {
					continue
				}
				if v := dp[c-1][i] + cost(i, j); v < dp[c][j] {
					dp[c][j] = v
					cut[c][j] = i
				}
			}
		}
	}
	assign := make([]int, n)
	j := n
	for c := kk; c >= 1; c-- {
		i := cut[c][j]
		for p := i; p < j; p++ {
			assign[p] = c - 1
		}
		j = i
	}
	return assign, dp[kk][n]
}

// silhouette computes the mean silhouette coefficient of a clustering of
// sorted xs into kk contiguous clusters (higher is better). For 1-D
// contiguous clusters the nearest foreign cluster of any point is one of
// the two adjacent clusters, and the mean absolute distance from a point
// to a sorted cluster is computed from prefix sums, so the whole score is
// O(n log n). Singleton clusters contribute 0 (the usual convention),
// which penalizes over-splitting.
func silhouette(xs []float64, assign []int, kk int) float64 {
	n := len(xs)
	if kk <= 1 || kk > n {
		return math.Inf(-1)
	}
	// Cluster boundaries: assign is non-decreasing over sorted xs.
	start := make([]int, kk+1)
	for p := 1; p < n; p++ {
		if assign[p] != assign[p-1] {
			start[assign[p]] = p
		}
	}
	start[kk] = n
	pre := make([]float64, n+1)
	for i, x := range xs {
		pre[i+1] = pre[i] + x
	}
	// meanDist(p, c) = mean |xs[p]-y| over y in cluster c, via the split
	// point of xs[p] within the sorted cluster [lo, hi).
	meanDist := func(p, c int) float64 {
		lo, hi := start[c], start[c+1]
		m := sort.SearchFloat64s(xs[lo:hi], xs[p]) + lo
		x := xs[p]
		left := x*float64(m-lo) - (pre[m] - pre[lo])
		right := (pre[hi] - pre[m]) - x*float64(hi-m)
		return (left + right) / float64(hi-lo)
	}
	var total float64
	for c := 0; c < kk; c++ {
		lo, hi := start[c], start[c+1]
		size := hi - lo
		for p := lo; p < hi; p++ {
			if size == 1 {
				continue // silhouette of a singleton is 0
			}
			a := meanDist(p, c) * float64(size) / float64(size-1) // exclude self
			b := math.Inf(1)
			if c > 0 {
				b = meanDist(p, c-1)
			}
			if c < kk-1 {
				if d := meanDist(p, c+1); d < b {
					b = d
				}
			}
			if m := math.Max(a, b); m > 0 {
				total += (b - a) / m
			}
		}
	}
	return total / float64(n)
}
