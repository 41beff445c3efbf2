package exec

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
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

// TestOperatorPlacements runs, op by op, every plan of every benchmark
// kind under each feasible strategy, for assess and assess*, and so every
// (operator, placement) pair the plans build. A pushed op adds exactly its
// output's cells to assess_engine_transfer_cells_total and a client op
// adds none. Each pushed join, pivot, multiply and roll-up join is run
// again client-side, over the gets of its queries, and must give a
// bit-identical cube; and every strategy yields as many cells as NP.
func TestOperatorPlacements(t *testing.T) {
	e, bd := session(t)
	ctx := context.Background()
	transferred := obsv.Default.Counter("assess_engine_transfer_cells_total", "")
	type placement struct {
		kind   plan.OpKind
		pushed bool
	}
	seen := make(map[placement]bool)
	for _, stmt := range []string{
		`with SALES by month assess storeSales against 1000
			using ratio(storeSales, 1000) labels quartiles`,
		`with SALES by month assess storeSales
			against SALES_TARGET.expectedSales labels quartiles`,
		`with SALES for country = 'Italy' by product, country
			assess quantity against country = 'France' labels quartiles`,
		// Sparse enough that some cells miss a past slice, so strict and
		// non-strict pivots differ.
		`with SALES for month = '1997-06' by month, product, store
			assess storeSales against past 4
			using ratio(storeSales, benchmark.storeSales)
			labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`,
		`with SALES by product assess quantity against ancestor type
			using ratio(quantity, benchmark.quantity) labels quartiles`,
	} {
		for _, verb := range []string{"assess", "assess*"} {
			st, err := parser.Parse(strings.Replace(stmt, "assess ", verb+" ", 1))
			if err != nil {
				t.Fatal(err)
			}
			b, err := bd.Bind(st)
			if err != nil {
				t.Fatal(err)
			}
			npCells := -1
			for _, s := range plan.Strategies() {
				if !plan.Feasible(s, b.Bench.Kind) {
					continue
				}
				p, err := plan.Build(b, s)
				if err != nil {
					t.Fatal(err)
				}
				cubes := make(map[string]*cube.Cube)
				for i := range p.Ops {
					op := &p.Ops[i]
					what := fmt.Sprintf("%v %v %s op %d (%s)", s, b.Bench.Kind, verb, i+1, p.DescribeOp(i))
					before := transferred.Value()
					if err := runOp(ctx, e, p, op, cubes); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					moved, want := transferred.Value()-before, int64(0)
					if op.Pushed() {
						want = int64(cubes[op.Dst].Len())
					}
					if moved != want {
						t.Errorf("%s: %d cells crossed the cursor, want %d", what, moved, want)
					}
					seen[placement{op.Kind, op.Pushed()}] = true
					if op.Pushed() && op.Kind != plan.OpGet {
						identical(t, what, cubes[op.Dst], runClient(t, what, e, p, op, transferred))
					}
				}
				n := cubes[p.Result].Len()
				if npCells < 0 {
					npCells = n
				} else if n != npCells {
					t.Errorf("%v %v %s: %d cells, NP %d", s, b.Bench.Kind, verb, n, npCells)
				}
			}
		}
	}
	for _, want := range []placement{
		{plan.OpGet, true},
		{plan.OpJoin, true}, {plan.OpJoin, false},
		{plan.OpPivot, true}, {plan.OpPivot, false},
		{plan.OpMultiply, true},
		{plan.OpRollupJoin, true}, {plan.OpRollupJoin, false},
		{plan.OpProject, false}, {plan.OpReplaceSlice, false},
		{plan.OpTransform, false}, {plan.OpLabel, false},
	} {
		if !seen[want] {
			t.Errorf("no plan ran operator %d with pushed=%v", want.kind, want.pushed)
		}
		delete(seen, want)
	}
	for pl := range seen {
		t.Errorf("unexpected placement: operator %d with pushed=%v", pl.kind, pl.pushed)
	}
}

// runClient runs a pushed op's client-side twin: the same operator over
// the transferred gets of its queries. The twin itself must transfer
// nothing.
func runClient(t *testing.T, what string, e *engine.Engine, p *plan.Plan, op *plan.Op, transferred *obsv.Counter) *cube.Cube {
	t.Helper()
	ctx := context.Background()
	twin := *op
	twin.Query, twin.QueryB, twin.SrcA, twin.Dst = engine.Query{}, engine.Query{}, "a", "out"
	cubes := make(map[string]*cube.Cube)
	var err error
	if cubes["a"], err = e.GetContext(ctx, op.Query); err != nil {
		t.Fatal(err)
	}
	if op.QueryB.Fact != "" {
		twin.SrcB = "b"
		if cubes["b"], err = e.GetContext(ctx, op.QueryB); err != nil {
			t.Fatal(err)
		}
	}
	before := transferred.Value()
	if err := runOp(ctx, e, p, &twin, cubes); err != nil {
		t.Fatal(err)
	}
	if moved := transferred.Value() - before; moved != 0 {
		t.Errorf("%s run client-side: %d cells crossed the cursor", what, moved)
	}
	return cubes["out"]
}

// identical fails unless the two cubes have the same levels, columns and
// cells in the same order, every value equal bit for bit.
func identical(t *testing.T, what string, a, b *cube.Cube) {
	t.Helper()
	if !a.Group.Equal(b.Group) || !slices.Equal(a.Names, b.Names) || a.Len() != b.Len() {
		t.Fatalf("%s: pushed %v %v (%d cells), client %v %v (%d cells)",
			what, a.Group, a.Names, a.Len(), b.Group, b.Names, b.Len())
	}
	for p := range a.Keys {
		if !slices.Equal(a.Keys[p], b.Keys[p]) {
			t.Fatalf("%s: key column %d differs between placements", what, p)
		}
	}
	for j := range a.Cols {
		for i := range a.Len() {
			if math.Float64bits(a.Cols[j][i]) != math.Float64bits(b.Cols[j][i]) {
				t.Fatalf("%s: %s of cell %d: pushed %g, client %g", what, a.Names[j], i, a.Cols[j][i], b.Cols[j][i])
			}
		}
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
	if len(r.OpTimes) != len(r.Plan.Ops) {
		t.Fatalf("%d op times for %d ops", len(r.OpTimes), len(r.Plan.Ops))
	}
	var sum int64
	for _, d := range r.OpTimes {
		sum += int64(d)
	}
	if int64(r.Breakdown.Total()) != sum {
		t.Errorf("op times sum %d != breakdown total %d", sum, int64(r.Breakdown.Total()))
	}
	out := r.ExplainAnalyze()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "NP plan, ") || len(lines) != 1+len(r.Plan.Ops) {
		t.Fatalf("ExplainAnalyze:\n%s", out)
	}
	for i, op := range r.Plan.Ops {
		desc := r.Plan.DescribeOp(i)
		line := lines[1+i]
		if desc == "" || !strings.HasPrefix(line, fmt.Sprintf("  %d. [%s ", i+1, op.Phase)) || !strings.HasSuffix(line, "] "+desc) {
			t.Errorf("op %d line %q, want phase %s and description %q", i, line, op.Phase, desc)
		}
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
			for i := w; i < len(cols.Measure); i += 8 {
				coord := make(mdm.Coordinate, len(cols.Keys))
				for p, col := range cols.Keys {
					coord[p] = col[i]
				}
				at, ok := r.Cube.Lookup(coord)
				if !ok || at != i || cols.Labels[at] != r.Cube.Labels[i] {
					t.Errorf("Lookup(%v) = %d, %v; the cell is at %d", coord, at, ok, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
