// Package funcs implements the library of comparison and transformation
// functions of Section 3.2. Cell functions (⊟, Cell-Transform) compute a
// derived value per cell from that cell's arguments alone; holistic
// functions (⊡, H-Transform) need a scan of the whole cube (e.g.
// minMaxNorm, percOfTotal, zScore, rank). Functions compose in a nestable,
// functional style — e.g. minMaxNorm(difference(storeSales, 1000)) — which
// the planner compiles into a chain of transform operators.
package funcs

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/assess-olap/assess/internal/regression"
)

// Kind distinguishes cell-at-a-time from holistic functions.
type Kind int

// Function kinds.
const (
	Cell Kind = iota
	Holistic
)

// Variadic marks a function accepting any positive number of arguments.
const Variadic = -1

// Func is one library function. Exactly one of CellFn and HolFn is set,
// matching Kind. Holistic functions receive argument columns (one slice
// per argument, aligned across cells) and return the output column.
type Func struct {
	Name   string
	Kind   Kind
	Arity  int // number of arguments, or Variadic
	Doc    string
	CellFn func(args []float64) float64
	HolFn  func(cols [][]float64) []float64
	// ColFn, optional on a binary cell function, is CellFn over whole
	// columns: dst[i] = CellFn([a[i], b[i]]), the same IEEE operation per
	// element, so bit for bit the same. All three have one length.
	ColFn func(dst, a, b []float64)
	// ImplicitMeasureArg marks functions whose last argument defaults to
	// the assessed measure m when omitted in the statement: the paper's
	// percOfTotal(difference(quantity, benchmark.quantity)) implicitly
	// normalizes by the total of quantity (Example 4.3).
	ImplicitMeasureArg bool
}

// Registry maps (case-insensitively) function names to implementations.
type Registry struct {
	m map[string]*Func
}

// NewRegistry returns a registry pre-loaded with the paper's library:
// difference, absDifference, ratio, percentage, normDifference, identity,
// minMaxNorm, zScore, percOfTotal, rank, and the past-benchmark predictors
// regression, movingAverage, lastValue.
func NewRegistry() *Registry {
	r := &Registry{m: make(map[string]*Func)}
	for _, f := range builtins() {
		if err := r.Register(f); err != nil {
			panic(err)
		}
	}
	return r
}

// Register adds a function; the name must be unused.
func (r *Registry) Register(f *Func) error {
	key := strings.ToLower(f.Name)
	if _, dup := r.m[key]; dup {
		return fmt.Errorf("funcs: %s already registered", f.Name)
	}
	if f.Arity == 0 || f.Arity < Variadic {
		return fmt.Errorf("funcs: %s has invalid arity %d", f.Name, f.Arity)
	}
	if (f.Kind == Cell) != (f.CellFn != nil) || (f.Kind == Holistic) != (f.HolFn != nil) ||
		(f.ColFn != nil && (f.Kind != Cell || f.Arity != 2)) {
		return fmt.Errorf("funcs: %s implementation does not match its kind", f.Name)
	}
	r.m[key] = f
	return nil
}

// Lookup resolves a function by name, case-insensitively.
func (r *Registry) Lookup(name string) (*Func, bool) {
	f, ok := r.m[strings.ToLower(name)]
	return f, ok
}

// Names returns the registered function names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.m))
	for _, f := range r.m {
		out = append(out, f.Name)
	}
	sort.Strings(out)
	return out
}

func builtins() []*Func {
	return []*Func{
		{
			Name: "difference", Kind: Cell, Arity: 2,
			Doc:    "difference(a, b) = a - b (algebraic difference, Listing 2)",
			CellFn: func(a []float64) float64 { return a[0] - a[1] },
			ColFn: func(dst, a, b []float64) {
				a, b = a[:len(dst)], b[:len(dst)]
				for i := range dst {
					dst[i] = a[i] - b[i]
				}
			},
		},
		{
			Name: "absDifference", Kind: Cell, Arity: 2,
			Doc:    "absDifference(a, b) = |a - b|",
			CellFn: func(a []float64) float64 { return math.Abs(a[0] - a[1]) },
			ColFn: func(dst, a, b []float64) {
				a, b = a[:len(dst)], b[:len(dst)]
				for i := range dst {
					dst[i] = math.Abs(a[i] - b[i])
				}
			},
		},
		{
			Name: "ratio", Kind: Cell, Arity: 2,
			Doc:    "ratio(a, b) = a / b",
			CellFn: func(a []float64) float64 { return a[0] / a[1] },
			ColFn: func(dst, a, b []float64) {
				a, b = a[:len(dst)], b[:len(dst)]
				for i := range dst {
					dst[i] = a[i] / b[i]
				}
			},
		},
		{
			Name: "percentage", Kind: Cell, Arity: 2,
			Doc:    "percentage(a, b) = 100 · a / b",
			CellFn: func(a []float64) float64 { return 100 * a[0] / a[1] },
			ColFn: func(dst, a, b []float64) {
				a, b = a[:len(dst)], b[:len(dst)]
				for i := range dst {
					dst[i] = 100 * a[i] / b[i]
				}
			},
		},
		{
			Name: "normDifference", Kind: Cell, Arity: 2,
			Doc:    "normDifference(a, b) = (a - b) / b (normalized difference)",
			CellFn: func(a []float64) float64 { return (a[0] - a[1]) / a[1] },
			ColFn: func(dst, a, b []float64) {
				a, b = a[:len(dst)], b[:len(dst)]
				for i := range dst {
					dst[i] = (a[i] - b[i]) / b[i]
				}
			},
		},
		{
			Name: "identity", Kind: Cell, Arity: 1,
			Doc:    "identity(a) = a",
			CellFn: func(a []float64) float64 { return a[0] },
		},
		{
			Name: "regression", Kind: Cell, Arity: Variadic,
			Doc:    "regression(y1, …, yk) = OLS prediction for slice k+1 (past benchmarks)",
			CellFn: regression.PredictNext,
		},
		{
			Name: "movingAverage", Kind: Cell, Arity: Variadic,
			Doc:    "movingAverage(y1, …, yk) = mean of the series",
			CellFn: regression.MovingAverage,
		},
		{
			Name: "lastValue", Kind: Cell, Arity: Variadic,
			Doc:    "lastValue(y1, …, yk) = yk (naive predictor)",
			CellFn: regression.LastValue,
		},
		{
			Name: "minMaxNorm", Kind: Holistic, Arity: 1,
			Doc:   "minMaxNorm(a) = (a - min a) / (max a - min a) over the whole cube (Listing 2)",
			HolFn: minMaxNorm,
		},
		{
			Name: "zScore", Kind: Holistic, Arity: 1,
			Doc:   "zScore(a) = (a - mean a) / stddev a over the whole cube",
			HolFn: zScore,
		},
		{
			Name: "percOfTotal", Kind: Holistic, Arity: 2,
			Doc:                "percOfTotal(a, b) = a / sum(b) over the whole cube; b defaults to the assessed measure (Example 4.3)",
			HolFn:              percOfTotal,
			ImplicitMeasureArg: true,
		},
		{
			Name: "rank", Kind: Holistic, Arity: 1,
			Doc:   "rank(a) = descending dense-free rank of a (1 = largest)",
			HolFn: rank,
		},
	}
}

func minMaxNorm(cols [][]float64) []float64 {
	in := cols[0]
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range in {
		if math.IsNaN(v) {
			continue
		}
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	out := make([]float64, len(in))
	span := hi - lo
	for i, v := range in {
		switch {
		case math.IsNaN(v):
			out[i] = math.NaN()
		case span == 0:
			out[i] = 0
		default:
			out[i] = (v - lo) / span
		}
	}
	return out
}

func zScore(cols [][]float64) []float64 {
	in := cols[0]
	var n, sum float64
	for _, v := range in {
		if !math.IsNaN(v) {
			n++
			sum += v
		}
	}
	out := make([]float64, len(in))
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	mean := sum / n
	var ss float64
	for _, v := range in {
		if !math.IsNaN(v) {
			d := v - mean
			ss += d * d
		}
	}
	sd := math.Sqrt(ss / n)
	for i, v := range in {
		switch {
		case math.IsNaN(v):
			out[i] = math.NaN()
		case sd == 0:
			out[i] = 0
		default:
			out[i] = (v - mean) / sd
		}
	}
	return out
}

func percOfTotal(cols [][]float64) []float64 {
	a, b := cols[0], cols[1]
	var total float64
	for _, v := range b {
		if !math.IsNaN(v) {
			total += v
		}
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v / total
	}
	return out
}

func rank(cols [][]float64) []float64 {
	in := cols[0]
	order := make([]int, 0, len(in))
	for i := range in {
		if !math.IsNaN(in[i]) {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return in[order[a]] > in[order[b]] })
	out := make([]float64, len(in))
	for i := range out {
		out[i] = math.NaN()
	}
	for r, idx := range order {
		out[idx] = float64(r + 1)
	}
	return out
}
