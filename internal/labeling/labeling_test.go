package labeling

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestIntervalContains(t *testing.T) {
	iv := Interval{Lo: 0, Hi: 1, LoOpen: false, HiOpen: true, Label: "x"}
	cases := map[float64]bool{-0.1: false, 0: true, 0.5: true, 1: false}
	for v, want := range cases {
		if iv.Contains(v) != want {
			t.Errorf("[0,1).Contains(%g) = %v, want %v", v, !want, want)
		}
	}
	open := Interval{Lo: 0, Hi: 1, LoOpen: true, Label: "y"}
	if open.Contains(0) || !open.Contains(1) {
		t.Error("(0,1] endpoint handling wrong")
	}
}

func TestRangesValidation(t *testing.T) {
	if _, err := NewRanges("r", []Interval{
		{Lo: 0, Hi: 1, Label: "a"},
		{Lo: 0.5, Hi: 2, Label: "b"},
	}); err == nil {
		t.Error("overlapping intervals accepted")
	}
	if _, err := NewRanges("r", []Interval{
		{Lo: 0, Hi: 1, Label: "a"},
		{Lo: 1, Hi: 2, Label: "b"}, // both closed at 1
	}); err == nil {
		t.Error("touching closed intervals accepted")
	}
	if _, err := NewRanges("r", []Interval{{Lo: 2, Hi: 1, Label: "a"}}); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := NewRanges("r", []Interval{{Lo: 0, Hi: 1}}); err == nil {
		t.Error("unlabeled interval accepted")
	}
	if _, err := NewRanges("r", []Interval{{Lo: math.NaN(), Hi: 1, Label: "a"}}); err == nil {
		t.Error("NaN bound accepted")
	}
	// Adjacent half-open intervals are fine in either input order.
	r, err := NewRanges("r", []Interval{
		{Lo: 1, Hi: 2, LoOpen: true, Label: "b"},
		{Lo: 0, Hi: 1, Label: "a"},
	})
	if err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if got := r.Intervals()[0].Label; got != "a" {
		t.Errorf("intervals not reordered: first label %q", got)
	}
}

func TestRangesComplete(t *testing.T) {
	complete := MustRanges("c", []Interval{
		{Lo: math.Inf(-1), Hi: 0, HiOpen: true, Label: "neg"},
		{Lo: 0, Hi: math.Inf(1), Label: "nonneg"},
	})
	if !complete.Complete() {
		t.Error("complete partition of R not recognized")
	}
	if FiveStars().Complete() {
		t.Error("5stars covers only [-1,1], must not be Complete")
	}
	gap := MustRanges("g", []Interval{
		{Lo: math.Inf(-1), Hi: 0, HiOpen: true, Label: "neg"},
		{Lo: 1, Hi: math.Inf(1), Label: "big"},
	})
	if gap.Complete() {
		t.Error("gapped ranges reported complete")
	}
}

func TestRangesApplyPaperExample(t *testing.T) {
	// Example 1.1: ratio thresholds {[0,0.9): bad, [0.9,1.1]: acceptable,
	// (1.1, inf): good}.
	r := MustRanges("milk", []Interval{
		{Lo: 0, Hi: 0.9, HiOpen: true, Label: "bad"},
		{Lo: 0.9, Hi: 1.1, Label: "acceptable"},
		{Lo: 1.1, Hi: math.Inf(1), LoOpen: true, HiOpen: true, Label: "good"},
	})
	got := text(r.Apply([]float64{0.5, 0.9, 1.1, 1.2, -1, math.NaN()}))
	want := []string{"bad", "acceptable", "acceptable", "good", NullLabel, NullLabel}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Apply = %v, want %v", got, want)
	}
}

func TestFiveStars(t *testing.T) {
	// Listing 3 semantics: pd.cut with include_lowest over
	// [-1,-0.6,-0.2,0.2,0.6,1].
	r := FiveStars()
	got := text(r.Apply([]float64{-1, -0.6, -0.59, 0, 0.2, 0.21, 1}))
	want := []string{"*", "*", "**", "***", "***", "****", "*****"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("5stars = %v, want %v", got, want)
	}
}

func TestRangesBinarySearchProperty(t *testing.T) {
	// Property: the coded labeling agrees with a linear scan.
	r := FiveStars()
	linear := func(v float64) string {
		if math.IsNaN(v) {
			return NullLabel
		}
		for _, iv := range r.Intervals() {
			if iv.Contains(v) {
				return iv.Label
			}
		}
		return NullLabel
	}
	prop := func(v float64) bool {
		return text(r.Apply([]float64{v}))[0] == linear(v)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// And explicitly around every boundary.
	for _, iv := range r.Intervals() {
		for _, v := range []float64{iv.Lo, iv.Hi, iv.Lo - 1e-9, iv.Hi + 1e-9} {
			if text(r.Apply([]float64{v}))[0] != linear(v) {
				t.Errorf("boundary disagreement at %g", v)
			}
		}
	}
}

func TestRangesPartitionProperty(t *testing.T) {
	// Property (Section 3.3): every value gets exactly one label — the
	// labeler is a function, and for complete partitions it never yields
	// NullLabel.
	r := MustRanges("signs", []Interval{
		{Lo: math.Inf(-1), Hi: 0, HiOpen: true, Label: "neg"},
		{Lo: 0, Hi: 0, Label: "zero"},
		{Lo: 0, Hi: math.Inf(1), LoOpen: true, Label: "pos"},
	})
	if !r.Complete() {
		t.Fatal("sign partition not complete")
	}
	prop := func(v float64) bool {
		if math.IsNaN(v) {
			return true
		}
		got := text(r.Apply([]float64{v}))[0]
		switch {
		case v < 0:
			return got == "neg"
		case v == 0:
			return got == "zero"
		default:
			return got == "pos"
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRangesString(t *testing.T) {
	s := FiveStars().String()
	if !strings.HasPrefix(s, "{[-1, -0.6]: *") || !strings.Contains(s, "(0.6, 1]: *****") {
		t.Errorf("String() = %s", s)
	}
}

// text is a label column's names, one per cell.
func text(c Column) []string {
	out := make([]string, len(c.Codes))
	for i := range out {
		out[i] = c.Name(i)
	}
	return out
}

// searchLabel is the range labeler Apply replaced, kept as the reference:
// a binary search over the ordered intervals, one string per value.
func searchLabel(r *Ranges, v float64) string {
	if math.IsNaN(v) {
		return NullLabel
	}
	ivs := r.Intervals()
	lo, hi := 0, len(ivs)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case ivs[mid].Contains(v):
			return ivs[mid].Label
		case v < ivs[mid].Lo || (v == ivs[mid].Lo && ivs[mid].LoOpen):
			hi = mid
		default:
			lo = mid + 1
		}
	}
	return NullLabel
}

// searchApply is searchLabel over a column.
func searchApply(r *Ranges, values []float64) []string {
	out := make([]string, len(values))
	for i, v := range values {
		out[i] = searchLabel(r, v)
	}
	return out
}

// TestRangesMatchSearch holds the coded labeler to the binary search on
// random partitions with open, closed, touching, gapped and unbounded
// ends, a label used twice, at every end, one float either side of it,
// ±0, ±inf and NaN.
func TestRangesMatchSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		var ivs []Interval
		at := math.Inf(-1)
		if rng.Intn(2) == 0 {
			at = float64(rng.Intn(5) - 8)
		}
		for k := 1 + rng.Intn(5); k > 0; k-- {
			iv := Interval{Lo: at, LoOpen: rng.Intn(2) == 0, HiOpen: rng.Intn(2) == 0, Label: string(rune('a' + rng.Intn(4)))}
			iv.Hi = iv.Lo + float64(rng.Intn(3))
			if math.IsInf(iv.Lo, -1) {
				iv.Hi = float64(rng.Intn(3) - 6)
			}
			if k == 1 && rng.Intn(2) == 0 {
				iv.Hi = math.Inf(1)
			}
			if iv.Lo == iv.Hi {
				iv.LoOpen, iv.HiOpen = false, false
			}
			ivs = append(ivs, iv)
			at = iv.Hi + float64(rng.Intn(2))
			if at == iv.Hi && !iv.HiOpen {
				at = math.Nextafter(at, math.Inf(1))
			}
		}
		r, err := NewRanges("r", ivs)
		if err != nil {
			continue // a draw that overlaps
		}
		values := []float64{math.NaN(), math.Inf(-1), math.Inf(1), 0, math.Copysign(0, -1)}
		for _, iv := range ivs {
			for _, b := range []float64{iv.Lo, iv.Hi} {
				values = append(values, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), b+0.5)
			}
		}
		got, want := text(r.Apply(values)), searchApply(r, values)
		for i := range values {
			if got[i] != want[i] {
				t.Fatalf("%s at %g: %q, binary search %q", r, values[i], got[i], want[i])
			}
		}
	}
}

// TestLabelSetBound: a label is one byte, so a labeler names at most
// MaxLabels labels besides null.
func TestLabelSetBound(t *testing.T) {
	if _, err := NewQuantiles("q", MaxLabels, nil); err != nil {
		t.Errorf("%d quantiles refused: %v", MaxLabels, err)
	}
	if _, err := NewQuantiles("q", MaxLabels+1, nil); err == nil {
		t.Errorf("%d quantiles accepted", MaxLabels+1)
	}
	ivs := make([]Interval, MaxLabels+1)
	for i := range ivs {
		ivs[i] = Interval{Lo: float64(i), Hi: float64(i + 1), HiOpen: true, Label: fmt.Sprintf("l%d", i)}
	}
	if _, err := NewRanges("r", ivs); err == nil {
		t.Errorf("%d distinct range labels accepted", len(ivs))
	}
	for i := range ivs {
		ivs[i].Label = "same"
	}
	r, err := NewRanges("r", ivs)
	if err != nil {
		t.Fatalf("one label over %d intervals refused: %v", len(ivs), err)
	}
	if got := r.Apply([]float64{0.5, 300}); got.Name(0) != "same" || got.Name(1) != NullLabel || len(got.Names) != 2 {
		t.Errorf("Apply = %v over names %v", got.Codes, got.Names)
	}
}

// BenchmarkLabelRanges labels 42 000 SSB-like ratios (revenue over a
// budget, a few percent of them with no benchmark) with three ranges:
// the coded kernel against the binary search it replaced, in one
// iteration each, paired. It reports the ratio as "speedup".
func BenchmarkLabelRanges(b *testing.B) {
	r := MustRanges("bands", []Interval{
		{Lo: 0, Hi: 0.95, HiOpen: true, Label: "under"},
		{Lo: 0.95, Hi: 1.05, Label: "ok"},
		{Lo: 1.05, Hi: math.Inf(1), LoOpen: true, HiOpen: true, Label: "over"},
	})
	rng := rand.New(rand.NewSource(1))
	values := make([]float64, 42000)
	for i := range values {
		values[i] = 0.8 + 0.4*rng.Float64()
		if rng.Intn(30) == 0 {
			values[i] = math.NaN()
		}
	}
	var fast, ref time.Duration
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		textSink = searchApply(r, values)
		t1 := time.Now()
		codeSink = r.Apply(values)
		ref, fast = ref+t1.Sub(t0), fast+time.Since(t1)
	}
	b.ReportMetric(float64(ref)/float64(fast), "speedup")
}

// The benchmark's results, kept so that neither labeler is optimized away.
var (
	textSink []string
	codeSink Column
)
