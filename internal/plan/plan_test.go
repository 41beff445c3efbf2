package plan

import (
	"strings"
	"testing"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/sales"
	"github.com/assess-olap/assess/internal/semantic"
)

func bind(t *testing.T, stmt string) *semantic.Bound {
	t.Helper()
	ds := sales.Generate(2000, 3)
	e := engine.New()
	if err := e.Register("SALES", ds.Fact); err != nil {
		t.Fatal(err)
	}
	if err := e.Register("SALES_TARGET", ds.External); err != nil {
		t.Fatal(err)
	}
	st, err := parser.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := semantic.NewBinder(e).Bind(st)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

const (
	constantStmt = `with SALES by month assess storeSales against 1000
		using ratio(storeSales, 1000) labels quartiles`
	externalStmt = `with SALES by month assess storeSales
		against SALES_TARGET.expectedSales labels quartiles`
	siblingStmt = `with SALES for country = 'Italy' by product, country
		assess quantity against country = 'France' labels quartiles`
	pastStmt = `with SALES for month = '1997-07' by month, store
		assess storeSales against past 4 labels quartiles`
)

func TestFeasibility(t *testing.T) {
	cases := []struct {
		kind parser.BenchmarkKind
		np   bool
		jop  bool
		pop  bool
	}{
		{parser.BenchConstant, true, false, false},
		{parser.BenchExternal, true, true, false},
		{parser.BenchSibling, true, true, true},
		{parser.BenchPast, true, true, true},
	}
	for _, c := range cases {
		if Feasible(NP, c.kind) != c.np || Feasible(JOP, c.kind) != c.jop || Feasible(POP, c.kind) != c.pop {
			t.Errorf("%v feasibility = (%v, %v, %v), want (%v, %v, %v)", c.kind,
				Feasible(NP, c.kind), Feasible(JOP, c.kind), Feasible(POP, c.kind),
				c.np, c.jop, c.pop)
		}
	}
}

func TestBuildRejectsInfeasible(t *testing.T) {
	b := bind(t, constantStmt)
	if _, err := Build(b, JOP); err == nil {
		t.Error("JOP accepted for a constant benchmark")
	}
	if _, err := Build(b, POP); err == nil {
		t.Error("POP accepted for a constant benchmark")
	}
	b2 := bind(t, externalStmt)
	if _, err := Build(b2, POP); err == nil {
		t.Error("POP accepted for an external benchmark")
	}
}

func opKinds(p *Plan) []OpKind {
	out := make([]OpKind, len(p.Ops))
	for i, op := range p.Ops {
		out[i] = op.Kind
	}
	return out
}

// placements renders where each op runs: P pushed to the engine, c
// client-side.
func placements(p *Plan) string {
	var sb strings.Builder
	for i := range p.Ops {
		if p.Ops[i].Pushed() {
			sb.WriteByte('P')
		} else {
			sb.WriteByte('c')
		}
	}
	return sb.String()
}

func eqKinds(a []OpKind, b ...OpKind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPlanShapes(t *testing.T) {
	b := bind(t, constantStmt)
	p, err := Build(b, NP)
	if err != nil {
		t.Fatal(err)
	}
	if !eqKinds(opKinds(p), OpGet, OpTransform, OpTransform, OpLabel) {
		t.Errorf("constant NP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "Pccc" {
		t.Errorf("constant NP placements = %s, want Pccc", got)
	}

	b = bind(t, siblingStmt)
	p, _ = Build(b, NP)
	if !eqKinds(opKinds(p), OpGet, OpGet, OpJoin, OpTransform, OpLabel) {
		t.Errorf("sibling NP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "PPccc" {
		t.Errorf("sibling NP placements = %s, want PPccc", got)
	}
	p, _ = Build(b, JOP)
	if !eqKinds(opKinds(p), OpJoin, OpTransform, OpLabel) {
		t.Errorf("sibling JOP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "Pcc" {
		t.Errorf("sibling JOP placements = %s, want Pcc", got)
	}
	p, _ = Build(b, POP)
	if !eqKinds(opKinds(p), OpPivot, OpTransform, OpLabel) {
		t.Errorf("sibling POP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "Pcc" {
		t.Errorf("sibling POP placements = %s, want Pcc", got)
	}

	b = bind(t, pastStmt)
	p, _ = Build(b, NP)
	if !eqKinds(opKinds(p), OpGet, OpGet, OpPivot, OpTransform, OpProject, OpJoin, OpTransform, OpLabel) {
		t.Errorf("past NP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "PPcccccc" {
		t.Errorf("past NP placements = %s, want PPcccccc", got)
	}
	p, _ = Build(b, JOP)
	if !eqKinds(opKinds(p), OpMultiply, OpPivot, OpTransform, OpProject, OpReplaceSlice, OpTransform, OpLabel) {
		t.Errorf("past JOP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "Pcccccc" {
		t.Errorf("past JOP placements = %s, want Pcccccc", got)
	}
	p, _ = Build(b, POP)
	if !eqKinds(opKinds(p), OpPivot, OpTransform, OpTransform, OpLabel) {
		t.Errorf("past POP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "Pccc" {
		t.Errorf("past POP placements = %s, want Pccc", got)
	}
}

func TestPhaseAttribution(t *testing.T) {
	// Figure 4 accounting: NP times get C and get B separately and the
	// join as Join; JOP and POP account the single engine call as get C+B;
	// regression is Trans.; the using clause is Comp.
	b := bind(t, pastStmt)
	np, _ := Build(b, NP)
	var phases []Phase
	for _, op := range np.Ops {
		phases = append(phases, op.Phase)
	}
	want := []Phase{PhaseGetC, PhaseGetB, PhaseTransform, PhaseTransform, PhaseTransform, PhaseJoin, PhaseCompare, PhaseLabel}
	for i := range want {
		if phases[i] != want[i] {
			t.Errorf("NP past phase %d = %v, want %v", i, phases[i], want[i])
		}
	}
	pop, _ := Build(b, POP)
	if pop.Ops[0].Phase != PhaseGetCB {
		t.Errorf("POP first phase = %v, want GetC+B", pop.Ops[0].Phase)
	}
}

func TestExplainMentionsOperators(t *testing.T) {
	b := bind(t, pastStmt)
	for _, s := range Strategies() {
		p, err := Build(b, s)
		if err != nil {
			t.Fatal(err)
		}
		out := p.Explain()
		if !strings.Contains(out, s.String()) {
			t.Errorf("%v explain lacks strategy name:\n%s", s, out)
		}
		if !strings.Contains(out, "label") {
			t.Errorf("%v explain lacks labeling step:\n%s", s, out)
		}
	}
	bs := bind(t, siblingStmt)
	p, _ := Build(bs, POP)
	if !strings.Contains(p.Explain(), "⊞") {
		t.Errorf("POP sibling explain lacks pivot symbol:\n%s", p.Explain())
	}
}

func TestQueryPredicateReplacement(t *testing.T) {
	b := bind(t, siblingStmt)
	p, err := Build(b, NP)
	if err != nil {
		t.Fatal(err)
	}
	qb := p.Ops[1].Query
	dict := b.Schema.Dict(b.Bench.SliceLevel)
	found := false
	for _, pred := range qb.Preds {
		if pred.Level == b.Bench.SliceLevel {
			found = true
			if len(pred.Members) != 1 || dict.Name(pred.Members[0]) != "France" {
				t.Errorf("benchmark slice predicate = %v", pred)
			}
		}
	}
	if !found {
		t.Error("benchmark query lacks the sibling slice predicate")
	}
	// POP covers both slices in one predicate.
	p, _ = Build(b, POP)
	for _, pred := range p.Ops[0].Query.Preds {
		if pred.Level == b.Bench.SliceLevel && len(pred.Members) != 2 {
			t.Errorf("POP slice predicate has %d members, want 2", len(pred.Members))
		}
	}
}

func TestPastQueryCoversPastSlices(t *testing.T) {
	b := bind(t, pastStmt)
	if len(b.Bench.PastMembers) != 4 {
		t.Fatalf("bound %d past members, want 4", len(b.Bench.PastMembers))
	}
	dict := b.Schema.Dict(b.Bench.SliceLevel)
	wantMonths := []string{"1997-03", "1997-04", "1997-05", "1997-06"}
	for i, id := range b.Bench.PastMembers {
		if dict.Name(id) != wantMonths[i] {
			t.Errorf("past member %d = %s, want %s", i, dict.Name(id), wantMonths[i])
		}
	}
	p, _ := Build(b, POP)
	for _, pred := range p.Ops[0].Query.Preds {
		if pred.Level == b.Bench.SliceLevel && len(pred.Members) != 5 {
			t.Errorf("POP past predicate has %d members, want 5 (4 past + target)", len(pred.Members))
		}
	}
}

func TestStrategyString(t *testing.T) {
	if NP.String() != "NP" || JOP.String() != "JOP" || POP.String() != "POP" {
		t.Error("strategy names wrong")
	}
	for p := Phase(0); p < NumPhases; p++ {
		if strings.HasPrefix(p.String(), "Phase(") {
			t.Errorf("phase %d has no name", int(p))
		}
	}
}

const ancestorStmt = `with SALES by product, country assess quantity
	against ancestor type using ratio(quantity, benchmark.quantity)
	labels quartiles`

func TestAncestorPlanShapes(t *testing.T) {
	b := bind(t, ancestorStmt)
	p, err := Build(b, NP)
	if err != nil {
		t.Fatal(err)
	}
	if !eqKinds(opKinds(p), OpGet, OpGet, OpRollupJoin, OpTransform, OpLabel) {
		t.Errorf("ancestor NP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "PPccc" {
		t.Errorf("ancestor NP placements = %s, want PPccc", got)
	}
	if !strings.Contains(p.Explain(), "roll-up join") {
		t.Errorf("explain:\n%s", p.Explain())
	}
	p, err = Build(b, JOP)
	if err != nil {
		t.Fatal(err)
	}
	if !eqKinds(opKinds(p), OpRollupJoin, OpTransform, OpLabel) {
		t.Errorf("ancestor JOP ops = %v", opKinds(p))
	}
	if got := placements(p); got != "Pcc" {
		t.Errorf("ancestor JOP placements = %s, want Pcc", got)
	}
	if !strings.Contains(p.Explain(), "engine-side roll-up join") {
		t.Errorf("explain:\n%s", p.Explain())
	}
	// The benchmark query replaces the child level with the ancestor.
	qb := p.Ops[0].QueryB
	typeRef, _ := b.Schema.FindLevel("type")
	if qb.Group.PosOf(typeRef) < 0 {
		t.Errorf("benchmark group %v lacks the ancestor level", qb.Group)
	}
	if _, err := Build(b, POP); err == nil {
		t.Error("POP accepted for ancestor")
	}
}

func TestExplainDescribesEveryOp(t *testing.T) {
	// Every op kind produced by any plan must describe itself without
	// falling back to "?".
	stmts := []string{constantStmt, externalStmt, siblingStmt, pastStmt, ancestorStmt}
	for _, stmt := range stmts {
		b := bind(t, stmt)
		for _, s := range Strategies() {
			if !Feasible(s, b.Bench.Kind) {
				continue
			}
			p, err := Build(b, s)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(p.Explain(), "?") {
				t.Errorf("%v plan for %s has an undescribed op:\n%s", s, stmt, p.Explain())
			}
		}
	}
}
