package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/plan"
)

func quickEnvs(t *testing.T) []*Env {
	t.Helper()
	envs, err := SetupAll([]Scale{{Label: "SSB1", SF: 0.001}, {Label: "SSB10", SF: 0.002}}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return envs
}

func TestIntentionsCoverAllBenchmarkKinds(t *testing.T) {
	ins := Intentions()
	if len(ins) != 4 {
		t.Fatalf("%d intentions", len(ins))
	}
	names := []string{"Constant", "External", "Sibling", "Past"}
	for i, in := range ins {
		if in.Name != names[i] {
			t.Errorf("intention %d = %s, want %s", i, in.Name, names[i])
		}
		if in.Kind.String() != names[i] {
			t.Errorf("intention %s has kind %v", in.Name, in.Kind)
		}
	}
}

func TestSetupRegistersCubesAndViews(t *testing.T) {
	envs := quickEnvs(t)
	for _, env := range envs {
		for _, cube := range []string{"LINEORDER", "LINEORDER_BUDGET"} {
			if _, ok := env.Session.Engine.Fact(cube); !ok {
				t.Errorf("%s: cube %s missing", env.Scale.Label, cube)
			}
		}
		if env.Session.Engine.Views() != 3 {
			t.Errorf("%s: %d views, want 3", env.Scale.Label, env.Session.Engine.Views())
		}
		if env.Rows != int(6_000_000*env.Scale.SF) {
			t.Errorf("%s: %d rows", env.Scale.Label, env.Rows)
		}
		// Every intention statement binds and plans.
		for _, in := range Intentions() {
			if err := env.Session.Validate(in.Statement); err != nil {
				t.Errorf("%s %s: %v", env.Scale.Label, in.Name, err)
			}
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	envs := quickEnvs(t)
	rows, err := Table1(envs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Total != r.SQL+r.Python {
			t.Errorf("%s: total %d != %d + %d", r.Intention, r.Total, r.SQL, r.Python)
		}
		if r.Total < 8*r.Assess {
			t.Errorf("%s: effort ratio %.1f below the order-of-magnitude shape",
				r.Intention, float64(r.Total)/float64(r.Assess))
		}
	}
	out := RenderTable1(rows)
	for _, want := range []string{"SQL", "Python", "assess", "Constant", "Past"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 rendering lacks %q", want)
		}
	}
}

func TestTable2ScalesWithSF(t *testing.T) {
	envs := quickEnvs(t)
	rows, err := Table2(envs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if len(r.Cells) != 2 {
			t.Fatalf("%s has %d scale points", r.Intention, len(r.Cells))
		}
		if r.Cells[0] <= 0 {
			t.Errorf("%s: empty target cube", r.Intention)
		}
		if r.Cells[1] < r.Cells[0] {
			t.Errorf("%s: cardinality shrank with scale: %v", r.Intention, r.Cells)
		}
	}
	if out := RenderTable2(rows, []Scale{{Label: "SSB1"}, {Label: "SSB10"}}); !strings.Contains(out, "SSB10") {
		t.Error("Table 2 rendering lacks scale labels")
	}
}

func TestRunMatrixAndDerivedViews(t *testing.T) {
	envs := quickEnvs(t)[:1]
	var progressCalls int
	timings, err := RunMatrix(envs, 3, func(string) { progressCalls++ })
	if err != nil {
		t.Fatal(err)
	}
	// 1 (constant) + 2 (external) + 3 (sibling) + 3 (past) = 9 points.
	if len(timings) != 9 {
		t.Fatalf("%d timings", len(timings))
	}
	if progressCalls != 9 {
		t.Errorf("%d progress calls", progressCalls)
	}
	for _, tm := range timings {
		if tm.Seconds < 0 || tm.Cells <= 0 || len(tm.Rounds) != 3 {
			t.Errorf("%s/%v: seconds %g cells %d rounds %d", tm.Intention, tm.Strategy, tm.Seconds, tm.Cells, len(tm.Rounds))
		}
	}
	min := Table3(timings, []Scale{{Label: "SSB1"}})
	if len(min) != 4 {
		t.Fatalf("%d Table 3 rows", len(min))
	}
	for _, r := range min {
		if r.Best <= 0 || r.NPTime <= 0 || r.Best > r.NPTime {
			t.Errorf("%s: best %g (%v) NP %g", r.Intention, r.Best, r.BestPlan, r.NPTime)
		}
	}
	past := PastBreakdowns(timings)
	if len(past) != 3 {
		t.Fatalf("%d past breakdowns", len(past))
	}
	out := RenderTable3(min, []Scale{{Label: "SSB1"}})
	if !strings.Contains(out, "Past") {
		t.Error("Table 3 rendering lacks intentions")
	}
	f3 := RenderFig3(timings, []Scale{{Label: "SSB1"}})
	if !strings.Contains(f3, "POP") {
		t.Error("Figure 3 rendering lacks plans")
	}
	f4 := RenderFig4(timings, []Scale{{Label: "SSB1"}})
	for _, want := range []string{"Get C+B", "Label"} {
		if !strings.Contains(f4, want) {
			t.Errorf("Figure 4 rendering lacks %q", want)
		}
	}
	_ = plan.NP
}

// TestRenderFig3Statistics: medians and quartiles in milliseconds, rounds
// won, the fastest plan marked, and a plan whose quartiles overlap the
// fastest's unresolved while one clear of them is not.
func TestRenderFig3Statistics(t *testing.T) {
	ms := func(v ...float64) []float64 {
		for i := range v {
			v[i] /= 1e3
		}
		return v
	}
	row := []Timing{
		{Intention: "Sibling", Scale: "SSB1", Strategy: plan.NP, Rounds: ms(5, 6, 7, 8, 9)},
		{Intention: "Sibling", Scale: "SSB1", Strategy: plan.JOP, Rounds: ms(4, 7, 5, 6, 3)},
		{Intention: "Sibling", Scale: "SSB1", Strategy: plan.POP, Rounds: ms(20, 21, 22, 23, 24)},
	}
	for k := range row {
		row[k].Seconds = quantile(row[k].Rounds, 0.5)
	}
	out := RenderFig3(row, []Scale{{Label: "SSB1"}})
	for _, want := range []string{
		"NP       7.000 [6.000–8.000]  wins 1 of 5  unresolved\n",
		"JOP      5.000 [4.000–6.000]  wins 4 of 5  fastest\n",
		"POP     22.000 [21.000–23.000]  wins 0 of 5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 3 lacks %q:\n%s", want, out)
		}
	}
}

func TestQuickScales(t *testing.T) {
	if len(QuickScales()) != 2 || len(DefaultScales()) != 3 {
		t.Error("scale presets changed")
	}
	for _, sc := range DefaultScales() {
		if sc.SF <= 0 {
			t.Errorf("%s: sf %g", sc.Label, sc.SF)
		}
	}
}

// TestCursorMovesRows: the experiments' engine moves every pushed result
// through the row codec, so the rows a plan moves cost what they did on
// the paper's cursor. Each intention's plans count their rows' codec
// bytes in assess_engine_transfer_bytes_total and end in the answer the
// served path gives by reference, and a pushed get comes back in fresh
// columns, never the view's that answered it.
func TestCursorMovesRows(t *testing.T) {
	env := quickEnvs(t)[0]
	moved := obsv.Default.Counter("assess_engine_transfer_bytes_total", "")
	for _, in := range Intentions() {
		for _, strat := range plan.Strategies() {
			if !plan.Feasible(strat, in.Kind) {
				continue
			}
			p, err := env.Session.PrepareWith(in.Statement, strat)
			if err != nil {
				t.Fatal(err)
			}
			before := moved.Value()
			got, err := exec.Run(cursor{env.Session.Engine}, p)
			if err != nil {
				t.Fatal(err)
			}
			if moved.Value() == before {
				t.Errorf("%s %v: no byte crossed the cursor", in.Name, strat)
			}
			want, err := exec.Run(env.Session.Engine, p)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := got.Rows()
			b, _ := want.Rows()
			if fmt.Sprint(a) != fmt.Sprint(b) { // NaN prints as itself
				t.Errorf("%s %v: the cursor changed the answer", in.Name, strat)
			}
		}
	}

	eng := env.Session.Engine
	f, _ := eng.Fact("LINEORDER")
	ri, _ := f.Schema.MeasureIndex("revenue")
	q := engine.Query{Fact: "LINEORDER", Group: mdm.MustGroupBy(f.Schema, "customer", "year"), Measures: []int{ri}}
	get := func(cs ...*cube.Cube) (*cube.Cube, error) { return cs[0], nil }
	byRef, err := eng.Push(context.Background(), get, q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eng.Push(context.Background(), get, q)
	if err != nil {
		t.Fatal(err)
	}
	if &byRef.Cols[0][0] != &again.Cols[0][0] {
		t.Fatal("two exact view answers do not share the view's column: the fixture misses the view")
	}
	copied, err := cursor{eng}.Push(context.Background(), get, q)
	if err != nil {
		t.Fatal(err)
	}
	if &copied.Cols[0][0] == &byRef.Cols[0][0] || &copied.Keys[0][0] == &byRef.Keys[0][0] {
		t.Error("the cursor handed over the view's columns")
	}
}
