package labeling

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestQuantiles(t *testing.T) {
	q, err := NewQuantiles("quartiles", 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{80, 10, 60, 30, 70, 20, 50, 40}
	got := text(q.Apply(vals))
	want := []string{"top-1", "top-4", "top-2", "top-3", "top-1", "top-4", "top-2", "top-3"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}

func TestQuantilesValidation(t *testing.T) {
	if _, err := NewQuantiles("q", 1, nil); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewQuantiles("q", 3, []string{"a", "b"}); err == nil {
		t.Error("label/k mismatch accepted")
	}
	q, err := NewQuantiles("grades", 2, []string{"pass", "fail"})
	if err != nil {
		t.Fatal(err)
	}
	got := text(q.Apply([]float64{1, 2, 3, 4}))
	want := []string{"fail", "fail", "pass", "pass"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grades = %v, want %v", got, want)
	}
}

func TestQuantilesBalancedProperty(t *testing.T) {
	// Property: group sizes differ by at most one for distinct values.
	q, _ := NewQuantiles("quartiles", 4, nil)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(i) + rng.Float64()*0.5 // distinct
		}
		rng.Shuffle(n, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		counts := map[string]int{}
		for _, l := range text(q.Apply(vals)) {
			counts[l]++
		}
		lo, hi := n, 0
		for _, c := range counts {
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		return hi-lo <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuantilesNaN(t *testing.T) {
	q, _ := NewQuantiles("quartiles", 4, nil)
	got := text(q.Apply([]float64{math.NaN(), 1, 2, 3, 4}))
	if got[0] != NullLabel {
		t.Errorf("NaN labeled %q", got[0])
	}
	if got[4] != "top-1" {
		t.Errorf("largest value labeled %q", got[4])
	}
}

func TestEquiWidth(t *testing.T) {
	e, err := NewEquiWidth("bins", 2, []string{"low", "high"})
	if err != nil {
		t.Fatal(err)
	}
	got := text(e.Apply([]float64{0, 4, 5, 10, math.NaN()}))
	want := []string{"low", "low", "high", "high", NullLabel}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("equi-width = %v, want %v", got, want)
	}
	// Constant column: everything in the first bin.
	got = text(e.Apply([]float64{3, 3}))
	if got[0] != "low" || got[1] != "low" {
		t.Errorf("constant column = %v", got)
	}
	if _, err := NewEquiWidth("b", 1, nil); err == nil {
		t.Error("k=1 accepted")
	}
	if _, err := NewEquiWidth("b", 3, []string{"a"}); err == nil {
		t.Error("label/k mismatch accepted")
	}
}

func TestZScoreRound(t *testing.T) {
	z := NewZScoreRound("zscore")
	got := text(z.Apply([]float64{0, 0, 0, 0, 100}))
	// The outlier is at +2σ of this distribution.
	if got[4] != "+2σ" {
		t.Errorf("outlier labeled %q, want +2σ", got[4])
	}
	if got[0] == got[4] {
		t.Error("outlier and bulk share a label")
	}
	if text(z.Apply([]float64{math.NaN()}))[0] != NullLabel {
		t.Error("NaN not null-labeled")
	}
	if text(z.Apply([]float64{5, 5}))[0] != "0σ" {
		t.Error("constant column not labeled 0σ")
	}
	// Clamping at ±3.
	vals := make([]float64, 101)
	vals[100] = 1e6
	if got := text(z.Apply(vals)); got[100] != "+3σ" {
		t.Errorf("extreme outlier labeled %q, want +3σ", got[100])
	}
}

func TestKMeans1DSeparatedClusters(t *testing.T) {
	km, err := NewKMeans1D("clusters", 6)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, 1.1, 0.9, 100, 101, 99, 1000, 1001, 999}
	got := text(km.Apply(vals))
	// Three clear clusters: members of the same group share a label, the
	// largest values get cluster-1.
	if got[6] != "cluster-1" || got[7] != "cluster-1" || got[8] != "cluster-1" {
		t.Errorf("large cluster labels = %v", got[6:9])
	}
	if got[0] != got[1] || got[1] != got[2] {
		t.Errorf("small cluster split: %v", got[0:3])
	}
	if got[0] == got[3] || got[3] == got[6] {
		t.Errorf("distinct clusters merged: %v", got)
	}
}

func TestKMeans1DDegenerate(t *testing.T) {
	km, _ := NewKMeans1D("clusters", 8)
	if got := text(km.Apply([]float64{math.NaN()})); got[0] != NullLabel {
		t.Errorf("all-NaN input labeled %q", got[0])
	}
	if got := text(km.Apply([]float64{5})); got[0] == "" {
		t.Error("single value got empty label")
	}
	if _, err := NewKMeans1D("k", 1); err == nil {
		t.Error("maxK=1 accepted")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"quartiles", "terciles", "quintiles", "deciles", "zscore", "clusters", "5stars", "QUARTILES"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("library labeler %q missing", name)
		}
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("missing labeler found")
	}
	if err := r.Register(FiveStars()); err == nil {
		t.Error("duplicate registration accepted")
	}
	if len(r.Names()) < 7 {
		t.Errorf("Names() = %v", r.Names())
	}
}

func TestKMeansDPOptimality(t *testing.T) {
	// Property: the DP clustering of sorted data into k=2 clusters has WSS
	// no worse than any single split point.
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		xs := make([]float64, n)
		v := 0.0
		for i := range xs {
			v += rng.Float64() * 10
			xs[i] = v
		}
		_, wss := kmeansDP(xs, 2)
		best := math.Inf(1)
		for cut := 1; cut < n; cut++ {
			w := wssOf(xs[:cut]) + wssOf(xs[cut:])
			if w < best {
				best = w
			}
		}
		return wss <= best+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func wssOf(xs []float64) float64 {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return ss
}
