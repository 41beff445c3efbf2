package exec

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/funcs"
	"github.com/assess-olap/assess/internal/semantic"
)

// compareCube is a cube of n cells with a measure m and a benchmark b, the
// two columns a compare op reads; eval needs no coordinates.
func compareCube(tb testing.TB, n int, seed uint64) *cube.Cube {
	tb.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	m, b := make([]float64, n), make([]float64, n)
	for i := range m {
		m[i], b[i] = rng.Float64()*1e5, rng.Float64()*1e5
		if i%97 == 0 {
			b[i] = 0 // a cell whose benchmark is zero: ±Inf or NaN
		}
	}
	c, err := cube.Build(nil, nil, []string{"m", "b"}, n, nil, [][]float64{m, b})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// perCell is f without its column form: eval then calls CellFn per cell.
func perCell(f *funcs.Func) *funcs.Func {
	g := *f
	g.ColFn = nil
	return &g
}

func call(f *funcs.Func, args ...semantic.Expr) semantic.Expr {
	return &semantic.CallExpr{Fn: f, Args: args}
}

// TestEvalColumnFormMatchesPerCell evaluates each binary built-in over
// column and constant arguments with and without its column form; the
// results must agree bit for bit.
func TestEvalColumnFormMatchesPerCell(t *testing.T) {
	c := compareCube(t, 5000, 3)
	m, b := &semantic.ColumnExpr{Column: "m"}, &semantic.ColumnExpr{Column: "b"}
	reg := funcs.NewRegistry()
	for _, name := range []string{"difference", "absDifference", "ratio", "percentage", "normDifference"} {
		f, _ := reg.Lookup(name)
		if f.ColFn == nil {
			t.Fatalf("%s has no column form", name)
		}
		for _, args := range [][2]semantic.Expr{{m, b}, {m, &semantic.NumberExpr{Value: 1000}}, {&semantic.NumberExpr{Value: 0}, b}} {
			got, err := evalColumn(call(f, args[0], args[1]), c)
			if err != nil {
				t.Fatal(err)
			}
			want, err := evalColumn(call(perCell(f), args[0], args[1]), c)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s cell %d: column form %g, per cell %g", name, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkCompareColumns is the compare op of a 42 000-cell result,
// ratio(m, b), evaluated in the column loop; "speedup" is the ratio of
// the per-cell path through CellFn to it, timed in alternation inside
// each iteration so both see the same collector. ns/op covers both.
func BenchmarkCompareColumns(b *testing.B) {
	c := compareCube(b, 42000, 1)
	ratio, _ := funcs.NewRegistry().Lookup("ratio")
	args := []semantic.Expr{&semantic.ColumnExpr{Column: "m"}, &semantic.ColumnExpr{Column: "b"}}
	fast, ref := call(ratio, args...), call(perCell(ratio), args...)
	var fastTime, refTime time.Duration
	timed := func(e semantic.Expr) time.Duration {
		t0 := time.Now()
		if _, err := evalColumn(e, c); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	for i := 0; i < b.N; i++ {
		refTime += timed(ref)
		fastTime += timed(fast)
	}
	b.ReportMetric(float64(refTime)/float64(fastTime), "speedup")
}
