// Package semantic binds a parsed assess statement to the
// multidimensional catalog: it resolves the cube, group-by levels,
// predicates, measures, benchmark, comparison functions, and labeling
// function, and validates the statement against the rules of Sections 3
// and 4 (joinability, sibling slicing, temporal levels for past
// benchmarks, function arities, range completeness).
package semantic

import (
	"fmt"
	"sort"
	"strings"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/funcs"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/parser"
)

// BindError reports a semantic error in an assess statement.
type BindError struct {
	Msg string
}

// Error implements error.
func (e *BindError) Error() string { return "semantic error: " + e.Msg }

func bindErr(format string, args ...any) error {
	return &BindError{Msg: fmt.Sprintf(format, args...)}
}

// bindGroupBy resolves the by clause with did-you-mean hints for
// unknown levels.
func bindGroupBy(s *mdm.Schema, levels []string) (mdm.GroupBy, error) {
	for _, name := range levels {
		if _, ok := s.FindLevel(name); !ok {
			return nil, bindErr("unknown level %q in by clause%s", name, didYouMean(name, allLevelNames(s)))
		}
	}
	g, err := mdm.NewGroupBy(s, levels...)
	if err != nil {
		return nil, bindErr("%v", err)
	}
	return g, nil
}

// allLevelNames lists every level name of a schema, for did-you-mean
// hints.
func allLevelNames(s *mdm.Schema) []string {
	var out []string
	for _, h := range s.Hiers {
		out = append(out, h.Levels()...)
	}
	return out
}

// allMeasureNames lists the measure names of a schema.
func allMeasureNames(s *mdm.Schema) []string {
	out := make([]string, len(s.Measures))
	for i, m := range s.Measures {
		out[i] = m.Name
	}
	return out
}

// memberHint suggests a close member name; large domains are skipped to
// keep error paths cheap.
func memberHint(dict *mdm.Dict, name string) string {
	if dict.Len() > 10_000 {
		return ""
	}
	return didYouMean(name, dict.Names())
}

// Benchmark is the resolved against clause.
type Benchmark struct {
	Kind parser.BenchmarkKind
	// MeasureName is the name of the benchmark measure m_B presented to
	// the using clause and the result: m for constant, sibling, and past
	// benchmarks, m_b for external benchmarks (Section 4.1).
	MeasureName string

	// Constant benchmarks (also the dummy zero benchmark of an omitted
	// against clause).
	Constant float64

	// External benchmarks.
	ExtFact       string
	ExtSchema     *mdm.Schema
	ExtMeasureIdx int

	// Sibling and past benchmarks: the sliced level and the target member.
	SliceLevel  mdm.LevelRef
	SliceMember int32

	// Sibling benchmarks.
	SiblingMember int32

	// Past benchmarks: the (up to) K predecessor members of SliceMember in
	// chronological (lexicographic) order.
	PastMembers []int32
	K           int

	// Ancestor benchmarks: the coarser level the target is assessed
	// against, and the group-by level that rolls up to it.
	AncestorLevel mdm.LevelRef
	ChildLevel    mdm.LevelRef
}

// Expr is a resolved using-clause expression.
type Expr interface{ exprNode() }

// CallExpr is a resolved function invocation.
type CallExpr struct {
	Fn   *funcs.Func
	Args []Expr
}

func (*CallExpr) exprNode() {}

// Holistic reports whether evaluating e needs a whole-column scan: some
// call in it has a holistic form (rank, quantile-style normalizations).
// Holistic results can depend on row order through tie-breaking.
func Holistic(e Expr) bool {
	call, ok := e.(*CallExpr)
	if !ok {
		return false
	}
	if call.Fn.HolFn != nil {
		return true
	}
	for _, a := range call.Args {
		if Holistic(a) {
			return true
		}
	}
	return false
}

// NumberExpr is a numeric literal.
type NumberExpr struct{ Value float64 }

func (*NumberExpr) exprNode() {}

// ColumnExpr references a column of the joined cube, e.g. "quantity" or
// "benchmark.quantity".
type ColumnExpr struct{ Column string }

func (*ColumnExpr) exprNode() {}

// PropertyExpr references a descriptive property of a level: each cell's
// value is the property of the member its coordinate rolls up to at that
// level (e.g. country.population).
type PropertyExpr struct {
	Level mdm.LevelRef
	Name  string
}

func (*PropertyExpr) exprNode() {}

// Bound is a fully resolved assess statement, ready for planning.
type Bound struct {
	Stmt    *parser.Statement
	Fact    string
	Schema  *mdm.Schema
	Group   mdm.GroupBy
	Preds   []engine.Predicate
	Measure int      // index of the assessed measure m
	Fetch   []int    // indices of all target measures the plan must fetch (m first)
	Columns []string // names of Fetch, aligned
	Bench   Benchmark
	Using   Expr
	Labeler labeling.Labeler
	Star    bool
	// Predictor is the time-series prediction function used by past
	// benchmarks (the library's regression by default).
	Predictor *funcs.Func
	// Within, when non-nil, scopes the labeling function to each slice of
	// the referenced level (coordinate-dependent labeling, Section 8).
	Within *mdm.LevelRef
}

// BenchColumn returns the name of the benchmark column in the joined
// cube: "benchmark." + the benchmark measure name.
func (b *Bound) BenchColumn() string { return "benchmark." + b.Bench.MeasureName }

// MeasureName returns the name of the assessed measure m.
func (b *Bound) MeasureName() string { return b.Schema.Measures[b.Measure].Name }

// Binder resolves statements against an engine catalog and the function
// and labeler registries.
type Binder struct {
	Engine   *engine.Engine
	Funcs    *funcs.Registry
	Labelers *labeling.Registry
}

// NewBinder builds a binder with fresh default registries.
func NewBinder(e *engine.Engine) *Binder {
	return &Binder{Engine: e, Funcs: funcs.NewRegistry(), Labelers: labeling.NewRegistry()}
}

// BindGet resolves a plain cube query (get statement) to an engine
// query.
func (bd *Binder) BindGet(st *parser.Statement) (engine.Query, error) {
	fact, ok := bd.Engine.Fact(st.Cube)
	if !ok {
		return engine.Query{}, bindErr("unknown cube %q", st.Cube)
	}
	s := fact.Schema
	group, err := bindGroupBy(s, st.By)
	if err != nil {
		return engine.Query{}, err
	}
	preds, err := bd.bindPredicates(s, st.For)
	if err != nil {
		return engine.Query{}, err
	}
	measures := make([]int, 0, len(st.GetMeasures))
	seen := map[int]bool{}
	for _, name := range st.GetMeasures {
		mi, ok := s.MeasureIndex(name)
		if !ok {
			return engine.Query{}, bindErr("cube %s has no measure %q", st.Cube, name)
		}
		if seen[mi] {
			return engine.Query{}, bindErr("measure %q requested twice", name)
		}
		seen[mi] = true
		measures = append(measures, mi)
	}
	return engine.Query{Fact: st.Cube, Group: group, Preds: preds, Measures: measures}, nil
}

// Bind resolves and validates one parsed statement.
func (bd *Binder) Bind(st *parser.Statement) (*Bound, error) {
	if st.IsGet() {
		return nil, bindErr("a get statement has no assessment; execute it with Session.Query")
	}
	fact, ok := bd.Engine.Fact(st.Cube)
	if !ok {
		return nil, bindErr("unknown cube %q", st.Cube)
	}
	s := fact.Schema
	group, err := bindGroupBy(s, st.By)
	if err != nil {
		return nil, err
	}
	preds, err := bd.bindPredicates(s, st.For)
	if err != nil {
		return nil, err
	}
	mi, ok := s.MeasureIndex(st.Measure)
	if !ok {
		return nil, bindErr("cube %s has no measure %q%s", st.Cube, st.Measure, didYouMean(st.Measure, allMeasureNames(s)))
	}
	predictor, ok := bd.Funcs.Lookup("regression")
	if !ok {
		return nil, bindErr("function library lacks the regression predictor")
	}
	b := &Bound{
		Stmt:      st,
		Fact:      st.Cube,
		Schema:    s,
		Group:     group,
		Preds:     preds,
		Measure:   mi,
		Star:      st.Star,
		Predictor: predictor,
	}
	if err := bd.bindBenchmark(b, st); err != nil {
		return nil, err
	}
	if err := bd.bindUsing(b, st); err != nil {
		return nil, err
	}
	if err := bd.bindLabels(b, st); err != nil {
		return nil, err
	}
	return b, nil
}

func (bd *Binder) bindPredicates(s *mdm.Schema, ps []parser.Predicate) ([]engine.Predicate, error) {
	out := make([]engine.Predicate, 0, len(ps))
	for _, p := range ps {
		ref, ok := s.FindLevel(p.Level)
		if !ok {
			return nil, bindErr("unknown level %q in for clause%s", p.Level, didYouMean(p.Level, allLevelNames(s)))
		}
		dict := s.Dict(ref)
		members := make([]int32, 0, len(p.Values))
		for _, v := range p.Values {
			id, ok := dict.Lookup(v)
			if !ok {
				return nil, bindErr("level %s has no member %q%s", p.Level, v, memberHint(dict, v))
			}
			members = append(members, id)
		}
		out = append(out, engine.Predicate{Level: ref, Members: members})
	}
	return out, nil
}

func (bd *Binder) bindBenchmark(b *Bound, st *parser.Statement) error {
	m := b.MeasureName()
	if st.Against == nil {
		// Absolute assessment: the dummy benchmark of zeros (Section 3.3).
		b.Bench = Benchmark{Kind: parser.BenchConstant, Constant: 0, MeasureName: m}
		return nil
	}
	a := st.Against
	switch a.Kind {
	case parser.BenchConstant:
		b.Bench = Benchmark{Kind: parser.BenchConstant, Constant: a.Value, MeasureName: m}
		return nil

	case parser.BenchExternal:
		ext, ok := bd.Engine.Fact(a.Cube)
		if !ok {
			return bindErr("unknown external benchmark cube %q", a.Cube)
		}
		emi, ok := ext.Schema.MeasureIndex(a.Measure)
		if !ok {
			return bindErr("benchmark cube %s has no measure %q", a.Cube, a.Measure)
		}
		// Joinability (Definition 3.1): the benchmark schema must carry the
		// target's group-by levels over reconciled (shared) hierarchies.
		for _, ref := range b.Group {
			name := b.Schema.LevelName(ref)
			eref, ok := ext.Schema.FindLevel(name)
			if !ok {
				return bindErr("benchmark cube %s lacks group-by level %q: cubes are not joinable", a.Cube, name)
			}
			if ext.Schema.Hiers[eref.Hier] != b.Schema.Hiers[ref.Hier] {
				return bindErr("level %q of benchmark cube %s is not reconciled with the target hierarchy", name, a.Cube)
			}
		}
		b.Bench = Benchmark{
			Kind:          parser.BenchExternal,
			MeasureName:   a.Measure,
			ExtFact:       a.Cube,
			ExtSchema:     ext.Schema,
			ExtMeasureIdx: emi,
		}
		return nil

	case parser.BenchSibling:
		ref, ok := b.Schema.FindLevel(a.Level)
		if !ok {
			return bindErr("unknown sibling level %q", a.Level)
		}
		if !b.Group.Contains(ref) {
			return bindErr("sibling level %q must appear in the by clause (Section 4.1)", a.Level)
		}
		slice, err := b.slicePredicate(ref, a.Level)
		if err != nil {
			return err
		}
		sib, ok := b.Schema.Dict(ref).Lookup(a.Member)
		if !ok {
			return bindErr("level %s has no member %q", a.Level, a.Member)
		}
		if sib == slice {
			return bindErr("sibling member %q equals the target slice member", a.Member)
		}
		b.Bench = Benchmark{
			Kind:          parser.BenchSibling,
			MeasureName:   m,
			SliceLevel:    ref,
			SliceMember:   slice,
			SiblingMember: sib,
		}
		return nil

	case parser.BenchAncestor:
		// Future-work extension (Section 8): assess each cell against its
		// roll-up ancestor, e.g. milk against its category.
		anc, ok := b.Schema.FindLevel(a.Level)
		if !ok {
			return bindErr("unknown ancestor level %q", a.Level)
		}
		pos := b.Group.Pos(anc.Hier)
		if pos < 0 {
			return bindErr("ancestor level %q needs a level of hierarchy %s in the by clause",
				a.Level, b.Schema.Hiers[anc.Hier].Name())
		}
		child := b.Group[pos]
		if child.Level >= anc.Level {
			return bindErr("level %q is not a proper ancestor of by-clause level %q",
				a.Level, b.Schema.LevelName(child))
		}
		b.Bench = Benchmark{
			Kind:          parser.BenchAncestor,
			MeasureName:   m,
			AncestorLevel: anc,
			ChildLevel:    child,
		}
		return nil

	case parser.BenchPast:
		// The paper requires a temporal level l_t ∈ G sliced in the for
		// clause; predecessors follow the lexicographic member order, which
		// is chronological for ISO-formatted temporal members.
		ref, slice, err := b.findTemporalSlice()
		if err != nil {
			return err
		}
		dict := b.Schema.Dict(ref)
		names := dict.SortedNames()
		target := dict.Name(slice)
		pos := sort.SearchStrings(names, target)
		if pos >= len(names) || names[pos] != target {
			return bindErr("internal: slice member %q not found in sorted domain", target)
		}
		if pos == 0 {
			return bindErr("member %q has no predecessors for a past benchmark", target)
		}
		start := pos - a.K
		if start < 0 {
			start = 0
		}
		past := make([]int32, 0, pos-start)
		for _, name := range names[start:pos] {
			id, _ := dict.Lookup(name)
			past = append(past, id)
		}
		b.Bench = Benchmark{
			Kind:        parser.BenchPast,
			MeasureName: m,
			SliceLevel:  ref,
			SliceMember: slice,
			PastMembers: past,
			K:           a.K,
		}
		return nil
	}
	return bindErr("unsupported benchmark kind %v", a.Kind)
}

// slicePredicate finds the single-member for-clause predicate on the
// given level (required by sibling benchmarks).
func (b *Bound) slicePredicate(ref mdm.LevelRef, name string) (int32, error) {
	for _, p := range b.Preds {
		if p.Level == ref {
			if len(p.Members) != 1 {
				return 0, bindErr("the for clause must slice level %q on a single member", name)
			}
			return p.Members[0], nil
		}
	}
	return 0, bindErr("the for clause must include a predicate on level %q (Section 4.1)", name)
}

// findTemporalSlice locates the group-by level sliced to a single member
// in the for clause that serves as l_t for a past benchmark.
func (b *Bound) findTemporalSlice() (mdm.LevelRef, int32, error) {
	for _, p := range b.Preds {
		if len(p.Members) != 1 || !b.Group.Contains(p.Level) {
			continue
		}
		return p.Level, p.Members[0], nil
	}
	return mdm.LevelRef{}, 0, bindErr("a past benchmark needs a for-clause predicate l_t = u on a by-clause level (Section 4.1)")
}

func (bd *Binder) bindUsing(b *Bound, st *parser.Statement) error {
	m := b.MeasureName()
	fetch := []int{b.Measure}
	columns := []string{m}
	addFetch := func(name string) error {
		for _, c := range columns {
			if c == name {
				return nil
			}
		}
		mi, ok := b.Schema.MeasureIndex(name)
		if !ok {
			return bindErr("cube %s has no measure %q referenced in the using clause", b.Fact, name)
		}
		fetch = append(fetch, mi)
		columns = append(columns, name)
		return nil
	}

	var bind func(e parser.Expr) (Expr, error)
	bind = func(e parser.Expr) (Expr, error) {
		switch e := e.(type) {
		case *parser.Number:
			return &NumberExpr{Value: e.Value}, nil
		case *parser.Prop:
			ref, ok := b.Schema.FindLevel(e.Level)
			if !ok {
				return nil, bindErr("unknown level %q in property reference %s", e.Level, e)
			}
			pos := b.Group.Pos(ref.Hier)
			if pos < 0 || b.Group[pos].Level > ref.Level {
				return nil, bindErr("property %s needs a by-clause level that rolls up to %q", e, e.Level)
			}
			if !b.Schema.Hiers[ref.Hier].HasProperty(ref.Level, e.Name) {
				return nil, bindErr("level %q has no property %q", e.Level, e.Name)
			}
			return &PropertyExpr{Level: ref, Name: e.Name}, nil
		case *parser.Ref:
			if e.Benchmark {
				if e.Name != b.Bench.MeasureName {
					return nil, bindErr("the benchmark measure is %q, not %q", b.Bench.MeasureName, e.Name)
				}
				return &ColumnExpr{Column: b.BenchColumn()}, nil
			}
			if err := addFetch(e.Name); err != nil {
				return nil, err
			}
			return &ColumnExpr{Column: e.Name}, nil
		case *parser.Call:
			fn, ok := bd.Funcs.Lookup(e.Name)
			if !ok {
				return nil, bindErr("unknown function %q in using clause%s", e.Name, didYouMean(e.Name, bd.Funcs.Names()))
			}
			nArgs := len(e.Args)
			implicit := false
			if fn.ImplicitMeasureArg && nArgs == fn.Arity-1 {
				nArgs++ // the assessed measure is appended below
				implicit = true
			}
			if fn.Arity != funcs.Variadic && fn.Arity != nArgs {
				return nil, bindErr("function %s takes %d arguments, got %d", fn.Name, fn.Arity, len(e.Args))
			}
			if fn.Arity == funcs.Variadic && len(e.Args) == 0 {
				return nil, bindErr("function %s needs at least one argument", fn.Name)
			}
			call := &CallExpr{Fn: fn}
			for _, a := range e.Args {
				ba, err := bind(a)
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, ba)
			}
			if implicit {
				call.Args = append(call.Args, &ColumnExpr{Column: m})
			}
			return call, nil
		}
		return nil, bindErr("unsupported using expression")
	}

	if st.Using == nil {
		// Default comparison (Section 4.3): the identity of m for an
		// absolute assessment, the difference to the benchmark otherwise.
		identity, _ := bd.Funcs.Lookup("identity")
		difference, _ := bd.Funcs.Lookup("difference")
		if st.Against == nil {
			b.Using = &CallExpr{Fn: identity, Args: []Expr{&ColumnExpr{Column: m}}}
		} else {
			b.Using = &CallExpr{Fn: difference, Args: []Expr{
				&ColumnExpr{Column: m},
				&ColumnExpr{Column: b.BenchColumn()},
			}}
		}
		b.Fetch, b.Columns = fetch, columns
		return nil
	}
	expr, err := bind(st.Using)
	if err != nil {
		return err
	}
	if _, ok := expr.(*CallExpr); !ok {
		return bindErr("the using clause must be a function invocation")
	}
	b.Using = expr
	b.Fetch, b.Columns = fetch, columns
	return nil
}

func (bd *Binder) bindLabels(b *Bound, st *parser.Statement) error {
	if st.Labels.Within != "" {
		ref, ok := b.Schema.FindLevel(st.Labels.Within)
		if !ok {
			return bindErr("unknown level %q in within clause", st.Labels.Within)
		}
		pos := b.Group.Pos(ref.Hier)
		if pos < 0 || b.Group[pos].Level > ref.Level {
			return bindErr("within level %q needs a by-clause level that rolls up to it", st.Labels.Within)
		}
		b.Within = &ref
	}
	if st.Labels.Named != "" {
		l, ok := bd.Labelers.Lookup(st.Labels.Named)
		if !ok {
			if hint := didYouMean(st.Labels.Named, bd.Labelers.Names()); hint != "" {
				return bindErr("unknown labeling function %q%s", st.Labels.Named, hint)
			}
			return bindErr("unknown labeling function %q (library: %s)",
				st.Labels.Named, strings.Join(bd.Labelers.Names(), ", "))
		}
		b.Labeler = l
		return nil
	}
	intervals := make([]labeling.Interval, len(st.Labels.Ranges))
	for i, r := range st.Labels.Ranges {
		intervals[i] = labeling.Interval{
			Lo: r.Lo, Hi: r.Hi, LoOpen: r.LoOpen, HiOpen: r.HiOpen, Label: r.Label,
		}
	}
	l, err := labeling.NewRanges("inline", intervals)
	if err != nil {
		return bindErr("invalid labels clause: %v", err)
	}
	b.Labeler = l
	return nil
}
