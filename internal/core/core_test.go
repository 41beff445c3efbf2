package core

import (
	"context"
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/funcs"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/qcache"
	"github.com/assess-olap/assess/internal/sales"
)

func newSession(t *testing.T) *Session {
	t.Helper()
	s := NewSession()
	ds := sales.Generate(5000, 2)
	if err := s.RegisterCube("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCube("SALES_TARGET", ds.External); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBestStrategy(t *testing.T) {
	cases := map[parser.BenchmarkKind]plan.Strategy{
		parser.BenchConstant: plan.NP,
		parser.BenchExternal: plan.JOP,
		parser.BenchSibling:  plan.POP,
		parser.BenchPast:     plan.POP,
	}
	for kind, want := range cases {
		if got := BestStrategy(kind); got != want {
			t.Errorf("BestStrategy(%v) = %v, want %v", kind, got, want)
		}
	}
}

func TestFeasibleStrategies(t *testing.T) {
	if got := FeasibleStrategies(parser.BenchConstant); len(got) != 1 || got[0] != plan.NP {
		t.Errorf("constant strategies = %v", got)
	}
	if got := FeasibleStrategies(parser.BenchSibling); len(got) != 3 {
		t.Errorf("sibling strategies = %v", got)
	}
}

func TestExecAndPrepare(t *testing.T) {
	s := newSession(t)
	stmt := `with SALES by month assess storeSales labels quartiles`
	p, err := s.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != plan.NP {
		t.Errorf("constant benchmark planned as %v", p.Strategy)
	}
	r, err := s.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cube.Len() == 0 {
		t.Error("empty result")
	}
	kind, err := s.BenchmarkKind(stmt)
	if err != nil || kind != parser.BenchConstant {
		t.Errorf("kind = %v, %v", kind, err)
	}
	n, err := s.Cardinality(stmt)
	if err != nil || n != r.Cube.Len() {
		t.Errorf("Cardinality = %d, result has %d cells (%v)", n, r.Cube.Len(), err)
	}
}

func TestExecWithInfeasible(t *testing.T) {
	s := newSession(t)
	if _, err := s.ExecWith(`with SALES by month assess storeSales labels quartiles`, plan.POP); err == nil {
		t.Fatal("POP accepted for a constant benchmark")
	}
}

func TestRegisterCustomFuncAndLabeler(t *testing.T) {
	s := newSession(t)
	if err := s.RegisterFunc(&funcs.Func{
		Name: "double", Kind: funcs.Cell, Arity: 1,
		CellFn: func(a []float64) float64 { return 2 * a[0] },
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterLabeler(labeling.MustRanges("passfail", []labeling.Interval{
		{Lo: labeling.Inf(-1), Hi: 0, HiOpen: true, Label: "fail"},
		{Lo: 0, Hi: labeling.Inf(1), Label: "pass"},
	})); err != nil {
		t.Fatal(err)
	}
	r, err := s.Exec(`with SALES by month assess storeSales using double(storeSales) labels passfail`)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cube.Labels.Name(0) != "pass" {
		t.Errorf("label = %q", r.Cube.Labels.Name(0))
	}
}

func TestExplainIncludesStrategy(t *testing.T) {
	s := newSession(t)
	out, err := s.Explain(`with SALES for country = 'Italy' by product, country
		assess quantity against country = 'France' labels quartiles`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "POP") {
		t.Errorf("sibling explained as:\n%s", out)
	}
}

func TestValidate(t *testing.T) {
	s := newSession(t)
	if err := s.Validate(`with SALES by month assess storeSales labels quartiles`); err != nil {
		t.Errorf("valid statement rejected: %v", err)
	}
	if err := s.Validate(`with NOPE by month assess storeSales labels quartiles`); err == nil {
		t.Error("invalid statement accepted")
	}
}

func TestMustExecPanics(t *testing.T) {
	s := newSession(t)
	defer func() {
		if recover() == nil {
			t.Error("MustExec did not panic")
		}
	}()
	s.MustExec(`with NOPE by month assess x labels quartiles`)
}

func TestMaterializeAndPrepare(t *testing.T) {
	s := newSession(t)
	if err := s.Materialize("SALES", "product", "country"); err != nil {
		t.Fatal(err)
	}
	if err := s.Materialize("NOPE", "product"); err == nil {
		t.Error("materializing unknown cube accepted")
	}
	if err := s.Materialize("SALES", "nosuch"); err == nil {
		t.Error("materializing unknown level accepted")
	}
	stmt := `with SALES for country = 'Italy' by product, country
		assess quantity against country = 'France' labels quartiles`
	p, err := s.Prepare(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if p.Strategy != plan.POP {
		t.Errorf("Prepare picked %v for a sibling statement, want POP", p.Strategy)
	}
	res, err := s.Exec(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cube.Len() == 0 {
		t.Error("empty result")
	}
}

func TestDeclareViaSession(t *testing.T) {
	s := newSession(t)
	res, err := s.Exec(`declare labels hotCold as {[-inf, 0): cold, [0, inf]: hot}`)
	if err != nil {
		t.Fatal(err)
	}
	if res != nil {
		t.Error("declaration returned a cube")
	}
	if _, ok := s.Binder.Labelers.Lookup("hotCold"); !ok {
		t.Error("declared labeler not registered")
	}
	if err := s.Declare(`declare labels broken as {[2, 1]: x}`); err == nil {
		t.Error("invalid declaration accepted")
	}
	if err := s.Declare(`not a declaration`); err == nil {
		t.Error("non-declaration accepted")
	}
}

// TestDeclareUnderEveryStrategy: a declaration has no plan, so an
// explicit strategy registers it exactly as the best one does.
func TestDeclareUnderEveryStrategy(t *testing.T) {
	s := newSession(t)
	for _, strat := range []plan.Strategy{plan.NP, plan.JOP, plan.POP} {
		name := "tiers" + strat.String()
		res, state, err := s.ExecWithTrackedContext(context.Background(),
			"declare labels "+name+" {[-inf, 0): low, [0, inf]: high}", strat)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if res != nil || state != qcache.StateOff {
			t.Errorf("%v: declaration returned (%v, %q)", strat, res, state)
		}
		if _, ok := s.Binder.Labelers.Lookup(name); !ok {
			t.Errorf("%v: declared labeler not registered", strat)
		}
	}
}
