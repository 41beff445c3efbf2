// Package plan builds executable plans for bound assess statements: the
// Naive Plan (NP), the Join-Optimized Plan (JOP), and the Pivot-Optimized
// Plan (POP) of Section 5.2. A plan is a sequence of operations over
// named intermediate cubes; each operation is tagged with the execution
// phase it is accounted to, reproducing the breakdown of Figure 4 (get C,
// get B, get C+B, transform, join, comparison, label).
//
// The three plan shapes are the outcome of the rewrite rules of Section
// 5.1: JOP applies P2 (pushing the join through cell transformations) so
// that the subexpression C ⋈ B can be evaluated by the engine, and POP
// applies P3 (replacing the join of slices of one cube with a pivot of a
// single get). The rules themselves are verified as algebraic
// equivalences in the package tests.
package plan

import (
	"fmt"
	"strings"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/semantic"
)

// Strategy enumerates the execution strategies of Section 5.2.
type Strategy int

// The three plan strategies.
const (
	NP Strategy = iota
	JOP
	POP
)

// String names the strategy as in the paper.
func (s Strategy) String() string {
	switch s {
	case NP:
		return "NP"
	case JOP:
		return "JOP"
	case POP:
		return "POP"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists all strategies in paper order.
func Strategies() []Strategy { return []Strategy{NP, JOP, POP} }

// Feasible reports whether the strategy applies to a benchmark kind
// (Section 5.2): JOP needs a join to push (everything but constant), POP
// needs multiple slices of a single cube (sibling and past only).
func Feasible(s Strategy, kind parser.BenchmarkKind) bool {
	switch s {
	case NP:
		return true
	case JOP:
		return kind != parser.BenchConstant
	case POP:
		return kind == parser.BenchSibling || kind == parser.BenchPast
	}
	return false
}

// ancestorBenchQuery derives the benchmark query of an ancestor
// benchmark: the target query re-grouped with the child level replaced
// by the ancestor level.
func ancestorBenchQuery(b *semantic.Bound, qc engine.Query) engine.Query {
	qb := qc
	group := make(mdm.GroupBy, len(qc.Group))
	copy(group, qc.Group)
	for i, ref := range group {
		if ref == b.Bench.ChildLevel {
			group[i] = b.Bench.AncestorLevel
		}
	}
	qb.Group = group
	qb.Measures = []int{b.Measure}
	return qb
}

// Phase is one bucket of the Figure 4 execution-time breakdown.
type Phase int

// The breakdown phases.
const (
	PhaseGetC Phase = iota
	PhaseGetB
	PhaseGetCB
	PhaseTransform
	PhaseJoin
	PhaseCompare
	PhaseLabel
	NumPhases
)

// String names the phase as in Figure 4.
func (p Phase) String() string {
	switch p {
	case PhaseGetC:
		return "Get C"
	case PhaseGetB:
		return "Get B"
	case PhaseGetCB:
		return "Get C+B"
	case PhaseTransform:
		return "Trans."
	case PhaseJoin:
		return "Join"
	case PhaseCompare:
		return "Comp."
	case PhaseLabel:
		return "Label"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// OpKind names a plan operation's operator; where it runs is decided by
// its inputs (see Pushed).
type OpKind int

// Plan operators. Get, Join, Pivot, Multiply and RollupJoin are the cube
// algebra of Section 4 (multiply is the one-to-many join of Example 5.3);
// Project and ReplaceSlice reshape a cube; Transform evaluates a bound
// expression into a new column; Label applies the labeling function.
const (
	OpGet OpKind = iota
	OpJoin
	OpPivot
	OpMultiply
	OpRollupJoin
	OpProject
	OpReplaceSlice
	OpTransform
	OpLabel
)

// Op is one plan operation. The fields used depend on Kind. Its inputs
// are either gets (Query, plus QueryB for a binary operator), which
// pushes the op to the engine, or named cubes (SrcA, SrcB), which runs it
// client-side; Transform and Label rewrite Dst in place.
type Op struct {
	Kind  OpKind
	Phase Phase
	Dst   string // name of the produced (or mutated) cube
	SrcA  string // primary input cube
	SrcB  string // secondary input cube (binary operators)

	Query  engine.Query // pushed op: target query
	QueryB engine.Query // pushed binary op: benchmark query

	On        []mdm.LevelRef // join levels
	Alias     string         // prefix for benchmark measures
	Outer     bool           // left-outer join (assess*)
	Level     mdm.LevelRef   // pivot / multiply / replace-slice level
	Ref       int32          // pivot reference member / replacement member
	Members   []int32        // multiply-join slice members
	Neighbors []int32        // pivot neighbor slices
	Strict    bool           // pivot strictness (drop cells missing a slice)
	Rename    func(measure, member string) string

	Expr   semantic.Expr // OpTransform
	OutCol string        // OpTransform output column

	ProjKeep   []string          // OpProject: columns to keep
	ProjRename map[string]string // OpProject: old → new column names

	LabelCol string // OpLabel input column

	note string // for Describe
}

// Pushed reports whether the op is evaluated engine-side (the "SQL
// side"): its inputs are gets, and only its output crosses the cursor to
// the client.
func (op *Op) Pushed() bool { return op.Query.Fact != "" }

// Plan is an executable operation sequence for one statement.
type Plan struct {
	Strategy Strategy
	Bound    *semantic.Bound
	Ops      []Op
	// Result names the cube holding the final result, and ComparisonCol
	// its comparison-value column.
	Result        string
	ComparisonCol string
}

// ComparisonColumn is the name given to the value produced by the using
// clause.
const ComparisonColumn = "comparison"

const predColumn = "__pred"

// Build constructs the plan of the given strategy for a bound statement.
func Build(b *semantic.Bound, s Strategy) (*Plan, error) {
	if !Feasible(s, b.Bench.Kind) {
		return nil, fmt.Errorf("plan: %v is not feasible for %v benchmarks (Section 5.2)", s, b.Bench.Kind)
	}
	p := &Plan{Strategy: s, Bound: b, Result: "C", ComparisonCol: ComparisonColumn}
	switch b.Bench.Kind {
	case parser.BenchConstant:
		p.buildConstant(b)
	case parser.BenchExternal:
		p.buildExternal(b, s)
	case parser.BenchSibling:
		p.buildSibling(b, s)
	case parser.BenchPast:
		p.buildPast(b, s)
	case parser.BenchAncestor:
		p.buildAncestor(b, s)
	}
	p.finish(b)
	return p, nil
}

// targetQuery is the get of the target cube C.
func targetQuery(b *semantic.Bound) engine.Query {
	return engine.Query{Fact: b.Fact, Group: b.Group, Preds: b.Preds, Measures: b.Fetch}
}

// replacePred returns preds with the predicate on level replaced by one
// on the given members.
func replacePred(preds []engine.Predicate, level mdm.LevelRef, members []int32) []engine.Predicate {
	out := make([]engine.Predicate, 0, len(preds)+1)
	replaced := false
	for _, p := range preds {
		if p.Level == level {
			out = append(out, engine.Predicate{Level: level, Members: members})
			replaced = true
			continue
		}
		out = append(out, p)
	}
	if !replaced {
		out = append(out, engine.Predicate{Level: level, Members: members})
	}
	return out
}

func (p *Plan) buildConstant(b *semantic.Bound) {
	p.Ops = append(p.Ops,
		Op{Kind: OpGet, Phase: PhaseGetC, Dst: "C", Query: targetQuery(b)},
		Op{
			Kind: OpTransform, Phase: PhaseCompare, Dst: "C",
			Expr:   constExpr(b.Bench.Constant),
			OutCol: b.BenchColumn(),
			note:   fmt.Sprintf("benchmark constant %g", b.Bench.Constant),
		},
	)
}

// constExpr broadcasts a constant as a column.
func constExpr(v float64) semantic.Expr { return &semantic.NumberExpr{Value: v} }

func (p *Plan) buildExternal(b *semantic.Bound, s Strategy) {
	qc := targetQuery(b)
	qb := engine.Query{
		Fact:     b.Bench.ExtFact,
		Group:    b.Group,
		Measures: []int{b.Bench.ExtMeasureIdx},
	}
	on := append([]mdm.LevelRef(nil), b.Group...)
	switch s {
	case NP:
		p.Ops = append(p.Ops,
			Op{Kind: OpGet, Phase: PhaseGetC, Dst: "C", Query: qc},
			Op{Kind: OpGet, Phase: PhaseGetB, Dst: "B", Query: qb},
			Op{Kind: OpJoin, Phase: PhaseJoin, Dst: "C", SrcA: "C", SrcB: "B",
				On: on, Alias: "benchmark.", Outer: b.Star},
		)
	case JOP:
		p.Ops = append(p.Ops,
			Op{Kind: OpJoin, Phase: PhaseGetCB, Dst: "C", Query: qc, QueryB: qb,
				On: on, Alias: "benchmark.", Outer: b.Star},
		)
	}
}

func (p *Plan) buildSibling(b *semantic.Bound, s Strategy) {
	qc := targetQuery(b)
	level := b.Bench.SliceLevel
	qb := qc
	qb.Preds = replacePred(b.Preds, level, []int32{b.Bench.SiblingMember})
	qb.Measures = []int{b.Measure}
	on := b.Group.Without(level)
	m := b.MeasureName()
	bench := b.BenchColumn()
	rename := func(measure, member string) string {
		if measure == m {
			return bench
		}
		return measure + "@" + member
	}
	switch s {
	case NP:
		p.Ops = append(p.Ops,
			Op{Kind: OpGet, Phase: PhaseGetC, Dst: "C", Query: qc},
			Op{Kind: OpGet, Phase: PhaseGetB, Dst: "B", Query: qb},
			Op{Kind: OpJoin, Phase: PhaseJoin, Dst: "C", SrcA: "C", SrcB: "B",
				On: on, Alias: "benchmark.", Outer: b.Star},
		)
	case JOP:
		p.Ops = append(p.Ops,
			Op{Kind: OpJoin, Phase: PhaseGetCB, Dst: "C", Query: qc, QueryB: qb,
				On: on, Alias: "benchmark.", Outer: b.Star},
		)
	case POP:
		qAll := qc
		qAll.Preds = replacePred(b.Preds, level,
			[]int32{b.Bench.SliceMember, b.Bench.SiblingMember})
		p.Ops = append(p.Ops,
			Op{Kind: OpPivot, Phase: PhaseGetCB, Dst: "C", Query: qAll,
				Level: level, Ref: b.Bench.SliceMember,
				Neighbors: []int32{b.Bench.SiblingMember},
				Strict:    !b.Star, Rename: rename},
		)
	}
}

func (p *Plan) buildPast(b *semantic.Bound, s Strategy) {
	qc := targetQuery(b)
	level := b.Bench.SliceLevel
	past := b.Bench.PastMembers
	qb := qc
	qb.Preds = replacePred(b.Preds, level, past)
	qb.Measures = []int{b.Measure}
	on := b.Group.Without(level)
	m := b.MeasureName()
	bench := b.BenchColumn()
	dict := b.Schema.Dict(level)
	latest := past[len(past)-1]

	switch s {
	case NP:
		if b.Star {
			// assess*: anchor the client pivot on the target member, not on
			// the latest past slice. A pivot anchored on the latest slice
			// emits no row for a coordinate whose latest past slice is
			// empty, dropping the partial series that the NaN-tolerant
			// predictors (and the JOP/POP shapes of this plan) still
			// predict from.
			qbs := qb
			qbs.Preds = replacePred(b.Preds, level,
				append(append([]int32(nil), past...), b.Bench.SliceMember))
			series := make([]semantic.Expr, 0, len(past))
			for _, id := range past {
				series = append(series, &semantic.ColumnExpr{Column: m + "@" + dict.Name(id)})
			}
			p.Ops = append(p.Ops,
				Op{Kind: OpGet, Phase: PhaseGetC, Dst: "C", Query: qc},
				Op{Kind: OpGet, Phase: PhaseGetB, Dst: "B", Query: qbs},
				Op{Kind: OpPivot, Phase: PhaseTransform, Dst: "E", SrcA: "B",
					Level: level, Ref: b.Bench.SliceMember, Neighbors: past, Strict: false},
				Op{Kind: OpTransform, Phase: PhaseTransform, Dst: "E",
					Expr: regressionExpr(b, series), OutCol: predColumn, note: "regression"},
				Op{Kind: OpProject, Phase: PhaseTransform, Dst: "E", SrcA: "E",
					ProjKeep:   []string{predColumn},
					ProjRename: map[string]string{predColumn: m},
					note:       "project prediction as " + m},
				Op{Kind: OpJoin, Phase: PhaseJoin, Dst: "C", SrcA: "C", SrcB: "E",
					On: on, Alias: "benchmark.", Outer: true},
			)
			break
		}
		// Paper Example 4.5 (past plan): get C, get B, pivot B on the
		// latest past slice, regress, join, then compare and label.
		series := make([]semantic.Expr, 0, len(past))
		for _, id := range past[:len(past)-1] {
			series = append(series, &semantic.ColumnExpr{Column: m + "@" + dict.Name(id)})
		}
		series = append(series, &semantic.ColumnExpr{Column: m})
		p.Ops = append(p.Ops,
			Op{Kind: OpGet, Phase: PhaseGetC, Dst: "C", Query: qc},
			Op{Kind: OpGet, Phase: PhaseGetB, Dst: "B", Query: qb},
			Op{Kind: OpPivot, Phase: PhaseTransform, Dst: "E", SrcA: "B",
				Level: level, Ref: latest, Neighbors: past[:len(past)-1], Strict: true},
			Op{Kind: OpTransform, Phase: PhaseTransform, Dst: "E",
				Expr: regressionExpr(b, series), OutCol: predColumn, note: "regression"},
			Op{Kind: OpProject, Phase: PhaseTransform, Dst: "E", SrcA: "E",
				ProjKeep:   []string{predColumn},
				ProjRename: map[string]string{predColumn: m},
				note:       "project prediction as " + m},
			Op{Kind: OpJoin, Phase: PhaseJoin, Dst: "C", SrcA: "C", SrcB: "E",
				On: on, Alias: "benchmark.", Outer: false},
		)
	case JOP:
		// Property P2: the join C ⋈ B is pushed to the engine before the
		// pivot and regression transformations (Example 5.3).
		series := make([]semantic.Expr, 0, len(past))
		for _, id := range past[:len(past)-1] {
			series = append(series, &semantic.ColumnExpr{Column: bench + "@" + dict.Name(id)})
		}
		series = append(series, &semantic.ColumnExpr{Column: bench})
		keep := append([]string(nil), b.Columns...)
		keep = append(keep, predColumn)
		renames := map[string]string{predColumn: bench}
		p.Ops = append(p.Ops,
			Op{Kind: OpMultiply, Phase: PhaseGetCB, Dst: "D", Query: qc, QueryB: qb,
				Level: level, Members: past, Alias: "benchmark.", Outer: b.Star},
			Op{Kind: OpPivot, Phase: PhaseTransform, Dst: "E", SrcA: "D",
				Level: level, Ref: latest, Neighbors: past[:len(past)-1], Strict: !b.Star},
			Op{Kind: OpTransform, Phase: PhaseTransform, Dst: "E",
				Expr: regressionExpr(b, series), OutCol: predColumn, note: "regression"},
			Op{Kind: OpProject, Phase: PhaseTransform, Dst: "C", SrcA: "E",
				ProjKeep: keep, ProjRename: renames,
				note: "project prediction as " + bench},
			Op{Kind: OpReplaceSlice, Phase: PhaseTransform, Dst: "C", SrcA: "C",
				Level: level, Ref: b.Bench.SliceMember},
		)
	case POP:
		// Property P3: one get covering the target and all past slices,
		// pivoted engine-side on the target member (Example 5.4).
		qAll := qc
		qAll.Preds = replacePred(b.Preds, level, append(append([]int32(nil), past...), b.Bench.SliceMember))
		series := make([]semantic.Expr, 0, len(past))
		for _, id := range past {
			series = append(series, &semantic.ColumnExpr{Column: m + "@" + dict.Name(id)})
		}
		p.Ops = append(p.Ops,
			Op{Kind: OpPivot, Phase: PhaseGetCB, Dst: "C", Query: qAll,
				Level: level, Ref: b.Bench.SliceMember,
				Neighbors: past, Strict: !b.Star},
			Op{Kind: OpTransform, Phase: PhaseTransform, Dst: "C",
				Expr: regressionExpr(b, series), OutCol: bench, note: "regression"},
		)
	}
}

func (p *Plan) buildAncestor(b *semantic.Bound, s Strategy) {
	qc := targetQuery(b)
	qb := ancestorBenchQuery(b, qc)
	switch s {
	case NP:
		p.Ops = append(p.Ops,
			Op{Kind: OpGet, Phase: PhaseGetC, Dst: "C", Query: qc},
			Op{Kind: OpGet, Phase: PhaseGetB, Dst: "B", Query: qb},
			Op{Kind: OpRollupJoin, Phase: PhaseJoin, Dst: "C", SrcA: "C", SrcB: "B",
				Alias: "benchmark.", Outer: b.Star},
		)
	case JOP:
		p.Ops = append(p.Ops,
			Op{Kind: OpRollupJoin, Phase: PhaseGetCB, Dst: "C", Query: qc, QueryB: qb,
				Alias: "benchmark.", Outer: b.Star},
		)
	}
}

// regressionExpr builds the prediction call over the chronological series
// columns, using the bound statement's predictor (OLS regression by
// default, Section 4.3).
func regressionExpr(b *semantic.Bound, series []semantic.Expr) semantic.Expr {
	return &semantic.CallExpr{Fn: b.Predictor, Args: series}
}

// finish appends the comparison and labeling steps shared by all plans.
func (p *Plan) finish(b *semantic.Bound) {
	p.Ops = append(p.Ops,
		Op{Kind: OpTransform, Phase: PhaseCompare, Dst: p.Result,
			Expr: b.Using, OutCol: ComparisonColumn, note: "comparison (using clause)"},
		Op{Kind: OpLabel, Phase: PhaseLabel, Dst: p.Result, LabelCol: ComparisonColumn},
	)
}

// DescribeOp renders the i-th operation of the plan (as Explain does),
// for per-operation instrumentation.
func (p *Plan) DescribeOp(i int) string {
	return p.Ops[i].describe(p)
}

// Explain renders the plan as a numbered list of logical operations.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v plan for %v benchmark:\n", p.Strategy, p.Bound.Bench.Kind)
	for i, op := range p.Ops {
		fmt.Fprintf(&sb, "  %d. [%s] %s\n", i+1, op.Phase, op.describe(p))
	}
	return sb.String()
}

func (op *Op) describe(p *Plan) string {
	b := p.Bound
	// The operands: cube names client-side, the gets when pushed.
	x, y, side := op.SrcA, op.SrcB, "client-side"
	if op.Pushed() {
		x, side = "get "+describeQuery(b, op.Query), "engine-side"
		if op.QueryB.Fact != "" {
			y = describeQuery(b, op.QueryB)
		}
	}
	switch op.Kind {
	case OpGet:
		return fmt.Sprintf("%s → %s%s", x, op.Dst, noteSuffix(op))
	case OpJoin:
		if op.Pushed() {
			return fmt.Sprintf("%s ⋈ %s (engine-side join) → %s", x, y, op.Dst)
		}
		kind := "⋈"
		if op.Outer {
			kind = "*⟕"
		}
		return fmt.Sprintf("%s %s %s (client-side) → %s", x, kind, y, op.Dst)
	case OpPivot:
		if op.Pushed() {
			return fmt.Sprintf("%s, pivot ⊞ on %s (engine-side) → %s", x, b.Schema.LevelName(op.Level), op.Dst)
		}
		return fmt.Sprintf("⊞ pivot %s on %s (client-side) → %s", x, b.Schema.LevelName(op.Level), op.Dst)
	case OpMultiply:
		return fmt.Sprintf("%s ⋈ %s (%s 1:n join over %d slices) → %s", x, y, side, len(op.Members), op.Dst)
	case OpRollupJoin:
		return fmt.Sprintf("%s ⋈rup %s (%s roll-up join) → %s", x, y, side, op.Dst)
	case OpProject:
		return fmt.Sprintf("π project %s → %s%s", x, op.Dst, noteSuffix(op))
	case OpReplaceSlice:
		return fmt.Sprintf("map coordinates of %s to slice %s = %s",
			x, b.Schema.LevelName(op.Level), b.Schema.Dict(op.Level).Name(op.Ref))
	case OpTransform:
		kind := "⊟"
		if semantic.Holistic(op.Expr) {
			kind = "⊡"
		}
		return fmt.Sprintf("%s transform %s: %s%s", kind, op.Dst, op.OutCol, noteSuffix(op))
	case OpLabel:
		return fmt.Sprintf("label %s(%s) on %s", b.Labeler.Name(), op.LabelCol, op.Dst)
	}
	return "?"
}

func noteSuffix(op *Op) string {
	if op.note == "" {
		return ""
	}
	return " (" + op.note + ")"
}

func describeQuery(b *semantic.Bound, q engine.Query) string {
	var preds []string
	var schema = b.Schema
	if q.Fact == b.Bench.ExtFact && b.Bench.ExtSchema != nil {
		schema = b.Bench.ExtSchema
	}
	for _, p := range q.Preds {
		names := make([]string, len(p.Members))
		for i, m := range p.Members {
			names[i] = schema.Dict(p.Level).Name(m)
		}
		preds = append(preds, fmt.Sprintf("%s∈{%s}", schema.LevelName(p.Level), strings.Join(names, ",")))
	}
	sel := ""
	if len(preds) > 0 {
		sel = "; " + strings.Join(preds, ", ")
	}
	return fmt.Sprintf("[(%s, %s%s)]", q.Fact, q.Group.String(schema), sel)
}
