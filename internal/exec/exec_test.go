package exec

import (
	"strings"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/semantic"
)

func session(t *testing.T) (*engine.Engine, *semantic.Binder) {
	t.Helper()
	ds := sales.Generate(10_000, 21)
	e := engine.New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("SALES_TARGET", ds.External); err != nil {
		t.Fatal(err)
	}
	return e, semantic.NewBinder(e)
}

func run(t *testing.T, e *engine.Engine, bd *semantic.Binder, stmt string, s plan.Strategy) *Result {
	t.Helper()
	st, err := parser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bd.Bind(st)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(b, s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(e, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBreakdownPhasesNP(t *testing.T) {
	e, bd := session(t)
	r := run(t, e, bd, `with SALES for month = '1997-06' by month, store
		assess storeSales against past 4
		using ratio(storeSales, benchmark.storeSales)
		labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`, plan.NP)
	if r.Breakdown[plan.PhaseGetC] == 0 || r.Breakdown[plan.PhaseGetB] == 0 {
		t.Error("NP breakdown lacks separate get C / get B times")
	}
	if r.Breakdown[plan.PhaseGetCB] != 0 {
		t.Error("NP breakdown has a get C+B bucket")
	}
	if r.Breakdown[plan.PhaseJoin] == 0 {
		t.Error("NP breakdown lacks a client join time")
	}
	if r.Breakdown[plan.PhaseTransform] == 0 {
		t.Error("NP past breakdown lacks transformation time (pivot + regression)")
	}
	if r.Breakdown.Total() == 0 || r.Total < r.Breakdown.Total() {
		t.Errorf("total %v < phase sum %v", r.Total, r.Breakdown.Total())
	}
	if !strings.Contains(r.Breakdown.String(), "Get C") {
		t.Errorf("breakdown string = %q", r.Breakdown.String())
	}
}

func TestBreakdownPhasesPOP(t *testing.T) {
	e, bd := session(t)
	r := run(t, e, bd, `with SALES for month = '1997-06' by month, store
		assess storeSales against past 4
		using ratio(storeSales, benchmark.storeSales)
		labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`, plan.POP)
	if r.Breakdown[plan.PhaseGetCB] == 0 {
		t.Error("POP breakdown lacks the combined get C+B time")
	}
	if r.Breakdown[plan.PhaseGetC] != 0 || r.Breakdown[plan.PhaseGetB] != 0 || r.Breakdown[plan.PhaseJoin] != 0 {
		t.Error("POP breakdown has NP-only buckets")
	}
}

func TestResultRowsAndRender(t *testing.T) {
	e, bd := session(t)
	r := run(t, e, bd, `with SALES by month assess storeSales against 1000
		using ratio(storeSales, benchmark.storeSales)
		labels {[0, 1): below, [1, inf): above}`, plan.NP)
	rows, err := r.Rows()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range rows {
		if row.Benchmark != 1000 {
			t.Errorf("benchmark = %g, want 1000", row.Benchmark)
		}
		if row.Comparison != row.Measure/1000 {
			t.Errorf("comparison = %g, want %g", row.Comparison, row.Measure/1000)
		}
		if row.Label != "below" && row.Label != "above" {
			t.Errorf("label = %q", row.Label)
		}
		if len(row.Coordinate) != 1 {
			t.Errorf("coordinate = %v", row.Coordinate)
		}
	}
	out, err := r.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "storeSales") || !strings.Contains(out, "label") {
		t.Errorf("render lacks headers:\n%s", out)
	}
	// Rows are sorted by coordinate (months ascending).
	if rows[0].Coordinate[0] != "1996-01" {
		t.Errorf("first row = %v, want 1996-01", rows[0].Coordinate)
	}
}

func TestRunReportsStepErrors(t *testing.T) {
	e, bd := session(t)
	st, _ := parser.Parse(`with SALES by month assess storeSales labels quartiles`)
	b, _ := bd.Bind(st)
	p, _ := plan.Build(b, plan.NP)
	// Corrupt the plan: point the label op at a missing column.
	p.Ops[len(p.Ops)-1].LabelCol = "nosuch"
	if _, err := Run(e, p); err == nil {
		t.Fatal("corrupted plan executed successfully")
	}
	// And a missing intermediate cube.
	p2, _ := plan.Build(b, plan.NP)
	p2.Ops[1].Dst = "X"
	if _, err := Run(e, p2); err == nil {
		t.Fatal("plan with dangling cube reference executed successfully")
	}
}

func TestEvalConstantFolding(t *testing.T) {
	e, bd := session(t)
	// ratio(1000, 10) over constants must fold without a per-cell loop;
	// observable as a constant comparison column.
	r := run(t, e, bd, `with SALES by month assess storeSales
		using ratio(100, 10) labels {[0, inf): x}`, plan.NP)
	rows, _ := r.Rows()
	for _, row := range rows {
		if row.Comparison != 10 {
			t.Errorf("comparison = %g, want 10", row.Comparison)
		}
	}
}

func TestHolisticOverConstantColumn(t *testing.T) {
	e, bd := session(t)
	// minMaxNorm over a broadcast constant column: span is 0 → all zeros.
	r := run(t, e, bd, `with SALES by month assess storeSales
		using minMaxNorm(identity(5)) labels {[0, 0]: zero}`, plan.NP)
	rows, _ := r.Rows()
	for _, row := range rows {
		if row.Comparison != 0 || row.Label != "zero" {
			t.Errorf("row = %+v", row)
		}
	}
}

func TestRunAllOpKinds(t *testing.T) {
	// Drive the remaining op kinds (multiplied join, client pivot,
	// project, replace-slice, rollup join) through full plan runs.
	e, bd := session(t)
	past := `with SALES for month = '1997-06' by month, store
		assess storeSales against past 4
		using ratio(storeSales, benchmark.storeSales)
		labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`
	jop := run(t, e, bd, past, plan.JOP)
	np := run(t, e, bd, past, plan.NP)
	if jop.Cube.Len() != np.Cube.Len() {
		t.Errorf("JOP %d cells, NP %d", jop.Cube.Len(), np.Cube.Len())
	}
	ancestor := `with SALES by product assess quantity against ancestor type
		using ratio(quantity, benchmark.quantity) labels quartiles`
	aJOP := run(t, e, bd, ancestor, plan.JOP)
	aNP := run(t, e, bd, ancestor, plan.NP)
	if aJOP.Cube.Len() != aNP.Cube.Len() {
		t.Errorf("ancestor JOP %d cells, NP %d", aJOP.Cube.Len(), aNP.Cube.Len())
	}
}

func TestApplyLabelerWithin(t *testing.T) {
	e, bd := session(t)
	r := run(t, e, bd, `with SALES by product, country
		assess quantity labels quartiles within country`, plan.NP)
	// Each country's cells must include a top-1.
	seen := map[string]bool{}
	rows, err := r.Rows()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Label == "top-1" {
			seen[row.Coordinate[1]] = true
		}
	}
	if len(seen) < 3 {
		t.Errorf("top-1 seen in only %d countries", len(seen))
	}
}

func TestOpStatsAndExplainAnalyze(t *testing.T) {
	e, bd := session(t)
	r := run(t, e, bd, `with SALES for month = '1997-06' by month, store
		assess storeSales against past 4
		using ratio(storeSales, benchmark.storeSales)
		labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`, plan.NP)
	if len(r.OpStats) != len(r.Plan.Ops) {
		t.Fatalf("%d op stats for %d ops", len(r.OpStats), len(r.Plan.Ops))
	}
	var sum int64
	for i, st := range r.OpStats {
		if st.Description == "" {
			t.Errorf("op %d has no description", i)
		}
		if st.Phase != r.Plan.Ops[i].Phase {
			t.Errorf("op %d phase mismatch", i)
		}
		sum += int64(st.Duration)
	}
	if int64(r.Breakdown.Total()) != sum {
		t.Errorf("op stats sum %d != breakdown total %d", sum, int64(r.Breakdown.Total()))
	}
	out := r.ExplainAnalyze()
	if !strings.Contains(out, "NP plan") || !strings.Contains(out, "1.") {
		t.Errorf("ExplainAnalyze:\n%s", out)
	}
}

// TestSharedResultConcurrentReaders reads one result from eight
// goroutines at once, as requests served the same cached result do:
// Columns() aliases the cube, and the first Lookup indexes it lazily.
// Run under -race.
func TestSharedResultConcurrentReaders(t *testing.T) {
	e, bd := session(t)
	r := run(t, e, bd, `with SALES by month, store assess storeSales against 1000
		using ratio(storeSales, 1000) labels quartiles`, plan.NP)
	if r.Cube.Len() < 100 {
		t.Fatalf("fixture result has %d cells", r.Cube.Len())
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cols, err := r.Columns()
			if err != nil {
				t.Error(err)
				return
			}
			for i := w; i < len(cols.Coords); i += 8 {
				at, ok := r.Cube.Lookup(cols.Coords[i])
				if !ok || at != i || cols.Labels[at] != r.Cube.Labels[i] {
					t.Errorf("Lookup(%v) = %d, %v; the cell is at %d", cols.Coords[i], at, ok, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
