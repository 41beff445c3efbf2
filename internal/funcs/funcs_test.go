package funcs

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func lookup(t *testing.T, r *Registry, name string) *Func {
	t.Helper()
	f, ok := r.Lookup(name)
	if !ok {
		t.Fatalf("builtin %s missing", name)
	}
	return f
}

func TestCellBuiltins(t *testing.T) {
	r := NewRegistry()
	cases := []struct {
		fn   string
		args []float64
		want float64
	}{
		{"difference", []float64{7, 4}, 3},
		{"absDifference", []float64{4, 7}, 3},
		{"ratio", []float64{9, 3}, 3},
		{"percentage", []float64{1, 4}, 25},
		{"normDifference", []float64{12, 10}, 0.2},
		{"identity", []float64{42}, 42},
	}
	for _, c := range cases {
		f := lookup(t, r, c.fn)
		if f.Kind != Cell {
			t.Errorf("%s is not a cell function", c.fn)
		}
		if got := f.CellFn(c.args); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %g, want %g", c.fn, c.args, got, c.want)
		}
	}
}

func TestLookupCaseInsensitive(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"minmaxnorm", "MINMAXNORM", "minMaxNorm", "percOfTotal", "PERCOFTOTAL"} {
		if _, ok := r.Lookup(name); !ok {
			t.Errorf("lookup %q failed", name)
		}
	}
}

func TestRegisterValidation(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&Func{Name: "difference", Kind: Cell, Arity: 2, CellFn: func(a []float64) float64 { return 0 }}); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := r.Register(&Func{Name: "zeroary", Kind: Cell, Arity: 0, CellFn: func(a []float64) float64 { return 0 }}); err == nil {
		t.Error("zero arity accepted")
	}
	if err := r.Register(&Func{Name: "mismatch", Kind: Holistic, Arity: 1, CellFn: func(a []float64) float64 { return 0 }}); err == nil {
		t.Error("kind/implementation mismatch accepted")
	}
	if err := r.Register(&Func{Name: "custom", Kind: Cell, Arity: 1, CellFn: func(a []float64) float64 { return a[0] * 2 }}); err != nil {
		t.Errorf("valid registration rejected: %v", err)
	}
	if len(r.Names()) == 0 {
		t.Error("Names() empty")
	}
}

func TestMinMaxNorm(t *testing.T) {
	r := NewRegistry()
	f := lookup(t, r, "minMaxNorm")
	got := f.HolFn([][]float64{{-1000, 500, -250}})
	want := []float64{0, 1, 0.5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("minMaxNorm[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	// Constant column: all zeros, not NaN.
	for _, v := range f.HolFn([][]float64{{5, 5, 5}}) {
		if v != 0 {
			t.Errorf("minMaxNorm of constant column = %g, want 0", v)
		}
	}
	// NaN propagates per cell without poisoning the extremes.
	got = f.HolFn([][]float64{{0, math.NaN(), 10}})
	if !math.IsNaN(got[1]) || got[0] != 0 || got[2] != 1 {
		t.Errorf("minMaxNorm with NaN = %v", got)
	}
}

func TestMinMaxNormRangeProperty(t *testing.T) {
	r := NewRegistry()
	f := lookup(t, r, "minMaxNorm")
	prop := func(xs []float64) bool {
		clean := xs[:0:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		for _, v := range f.HolFn([][]float64{clean}) {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	r := NewRegistry()
	f := lookup(t, r, "zScore")
	got := f.HolFn([][]float64{{1, 2, 3, 4, 5}})
	// mean 3, population sd sqrt(2)
	sd := math.Sqrt(2)
	for i, x := range []float64{1, 2, 3, 4, 5} {
		want := (x - 3) / sd
		if math.Abs(got[i]-want) > 1e-12 {
			t.Errorf("zScore[%d] = %g, want %g", i, got[i], want)
		}
	}
	for _, v := range f.HolFn([][]float64{{7, 7}}) {
		if v != 0 {
			t.Errorf("zScore of constant column = %g, want 0", v)
		}
	}
}

func TestPercOfTotal(t *testing.T) {
	r := NewRegistry()
	f := lookup(t, r, "percOfTotal")
	// Example 4.3: diff over total quantity 100+90+30=220.
	diff := []float64{-50, -20, 10}
	qty := []float64{100, 90, 30}
	got := f.HolFn([][]float64{diff, qty})
	want := []float64{-50.0 / 220, -20.0 / 220, 10.0 / 220}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("percOfTotal[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestRank(t *testing.T) {
	r := NewRegistry()
	f := lookup(t, r, "rank")
	got := f.HolFn([][]float64{{10, 30, math.NaN(), 20}})
	if got[1] != 1 || got[3] != 2 || got[0] != 3 || !math.IsNaN(got[2]) {
		t.Errorf("rank = %v, want [3 1 NaN 2]", got)
	}
}

func TestRegressionFuncs(t *testing.T) {
	r := NewRegistry()
	reg := lookup(t, r, "regression")
	if reg.Arity != Variadic {
		t.Error("regression must be variadic")
	}
	// Perfect line 10,20,30,40 → next is 50.
	if got := reg.CellFn([]float64{10, 20, 30, 40}); math.Abs(got-50) > 1e-9 {
		t.Errorf("regression = %g, want 50", got)
	}
	ma := lookup(t, r, "movingAverage")
	if got := ma.CellFn([]float64{10, 20, 30}); got != 20 {
		t.Errorf("movingAverage = %g, want 20", got)
	}
	lv := lookup(t, r, "lastValue")
	if got := lv.CellFn([]float64{10, 20, math.NaN()}); got != 20 {
		t.Errorf("lastValue skipping NaN = %g, want 20", got)
	}
}

// specials are the IEEE values a column form must treat as CellFn does.
var specials = []float64{
	0, math.Copysign(0, -1), 1, -1, 100, math.NaN(), math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1060,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, math.Float64frombits(0x7ff8000000000abc),
}

// TestColFnMatchesCellFn holds every column form to its CellFn bit for
// bit: every pair of specials (±0, NaN, ±Inf, subnormals, extremes), and
// random bit patterns and random magnitudes.
func TestColFnMatchesCellFn(t *testing.T) {
	var a, b []float64
	for _, x := range specials {
		for _, y := range specials {
			a, b = append(a, x), append(b, y)
		}
	}
	rng := rand.New(rand.NewPCG(7, 43))
	for range 20000 {
		a = append(a, math.Float64frombits(rng.Uint64()), (rng.Float64()-0.5)*1e6)
		b = append(b, math.Float64frombits(rng.Uint64()), (rng.Float64()-0.5)*1e3)
	}
	r := NewRegistry()
	n := 0
	for _, name := range r.Names() {
		f := lookup(t, r, name)
		if f.ColFn == nil {
			continue
		}
		n++
		dst := make([]float64, len(a))
		f.ColFn(dst, a, b)
		for i := range dst {
			want := f.CellFn([]float64{a[i], b[i]})
			if math.Float64bits(dst[i]) != math.Float64bits(want) {
				t.Fatalf("%s(%g, %g): column form %x, CellFn %x", name, a[i], b[i], math.Float64bits(dst[i]), math.Float64bits(want))
			}
		}
	}
	if n != 5 {
		t.Errorf("%d builtins have a column form, want 5 (difference, absDifference, ratio, percentage, normDifference)", n)
	}
	bad := &Func{Name: "unaryCol", Kind: Cell, Arity: 1, CellFn: func(a []float64) float64 { return a[0] }, ColFn: func(dst, a, b []float64) {}}
	if err := r.Register(bad); err == nil {
		t.Error("a column form on a unary function was accepted")
	}
}
