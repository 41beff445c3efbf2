package oracle

// The referee evaluates an assess statement straight from the definitions
// of docs/language.md (the paper's Defs 2.1–2.6 and Sections 3–4), in the
// style of a formal OLAP algebra: a cube query is a selection over the
// fact rows, a roll-up of each row's coordinate through the part-of order
// and an aggregation per cell, and every benchmark is one more such query
// joined cell by cell. It reads the resident fact tables row by row and
// shares no evaluation code with the program: this file may import the
// parser, the multidimensional model and the function and labeler
// libraries a statement names, and nothing that plans, scans or joins
// (TestRefereeImports holds it to that).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/assess-olap/assess/internal/funcs"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/regression"
	"github.com/assess-olap/assess/internal/storage"
)

// refRow is one cell of a referee answer: the coordinate's member names
// in hierarchy order, the assessed measure, the benchmark, the comparison
// and the label.
type refRow struct {
	Coord      []string
	Measure    float64
	Benchmark  float64
	Comparison float64
	Label      string
}

// referee evaluates statements over resident cubes registered by name.
type referee struct {
	cubes    map[string]*storage.FactTable
	funcs    *funcs.Registry
	labelers *labeling.Registry
}

func newReferee(cubes map[string]*storage.FactTable) *referee {
	return &referee{cubes: cubes, funcs: funcs.NewRegistry(), labelers: labeling.NewRegistry()}
}

// refPred is one conjunct of a for clause: the level and the ids of the
// members it admits.
type refPred struct {
	lv      mdm.LevelRef
	members []int32
}

// refCell is one cell of a derived cube: its coordinate (member ids at
// the group-by levels) and, per measure of the schema, the row count and
// the sum, minimum and maximum of the rows that roll up to it.
type refCell struct {
	coord         []int32
	rows          int
	sum, min, max []float64
}

// value is the cell's measure m under its aggregation operator.
func (c *refCell) value(op mdm.AggOp, m int) float64 {
	switch op {
	case mdm.AggSum:
		return c.sum[m]
	case mdm.AggAvg:
		return c.sum[m] / float64(c.rows)
	case mdm.AggMin:
		return c.min[m]
	case mdm.AggMax:
		return c.max[m]
	case mdm.AggCount:
		return float64(c.rows)
	}
	panic(fmt.Sprintf("referee: aggregation operator %v", op))
}

// coordKey is the map key of a coordinate.
func coordKey(coord []int32) string {
	b := make([]byte, 0, 4*len(coord))
	for _, id := range coord {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	return string(b)
}

// level resolves a level name of schema s.
func level(s *mdm.Schema, name string) (mdm.LevelRef, error) {
	if lv, ok := s.FindLevel(name); ok {
		return lv, nil
	}
	return mdm.LevelRef{}, fmt.Errorf("referee: cube %s has no level %q", s.Name, name)
}

// member resolves a member name of a level.
func member(s *mdm.Schema, lv mdm.LevelRef, name string) (int32, error) {
	if id, ok := s.Dict(lv).Lookup(name); ok {
		return id, nil
	}
	return 0, fmt.Errorf("referee: level %s has no member %q", s.LevelName(lv), name)
}

// measure resolves a measure name of schema s.
func measure(s *mdm.Schema, name string) (int, error) {
	if m, ok := s.MeasureIndex(name); ok {
		return m, nil
	}
	return 0, fmt.Errorf("referee: cube %s has no measure %q", s.Name, name)
}

// rollup returns, for every base member of lv's hierarchy, the member of
// lv it rolls up to through the part-of order.
func rollup(s *mdm.Schema, lv mdm.LevelRef) []int32 {
	hier := s.Hiers[lv.Hier]
	up := make([]int32, hier.Dict(0).Len())
	for id := range up {
		up[id] = hier.Rollup(int32(id), 0, lv.Level)
	}
	return up
}

// get evaluates the cube query (f, group, preds) of Definition 2.6: the
// rows whose coordinate satisfies every predicate, grouped by the roll-up
// of their coordinate to the group-by levels. Cells are keyed by
// coordinate; only coordinates some row rolls up to exist.
func get(f *storage.FactTable, group []mdm.LevelRef, preds []refPred) map[string]*refCell {
	s := f.Schema
	nm := len(s.Measures)
	accept := make([]func(row int) bool, len(preds))
	for i, p := range preds {
		up, keys := rollup(s, p.lv), f.Keys[p.lv.Hier]
		in := make(map[int32]bool, len(p.members))
		for _, id := range p.members {
			in[id] = true
		}
		accept[i] = func(row int) bool { return in[up[keys[row]]] }
	}
	ups := make([][]int32, len(group))
	for i, lv := range group {
		ups[i] = rollup(s, lv)
	}
	cells := make(map[string]*refCell)
rows:
	for row := range f.Rows() {
		for _, ok := range accept {
			if !ok(row) {
				continue rows
			}
		}
		coord := make([]int32, len(group))
		for i, lv := range group {
			coord[i] = ups[i][f.Keys[lv.Hier][row]]
		}
		key := coordKey(coord)
		c := cells[key]
		if c == nil {
			c = &refCell{coord: coord, sum: make([]float64, nm), min: make([]float64, nm), max: make([]float64, nm)}
			for m := range nm {
				c.min[m], c.max[m] = math.Inf(1), math.Inf(-1)
			}
			cells[key] = c
		}
		c.rows++
		for m := range nm {
			v := f.Meas[m][row]
			c.sum[m] += v
			c.min[m] = math.Min(c.min[m], v)
			c.max[m] = math.Max(c.max[m], v)
		}
	}
	return cells
}

// lookup returns measure m of the cell of cells at coord, under op, and
// whether there is one (NaN when not).
func lookup(cells map[string]*refCell, coord []int32, op mdm.AggOp, m int) (float64, bool) {
	if c := cells[coordKey(coord)]; c != nil {
		return c.value(op, m), true
	}
	return math.NaN(), false
}

// with returns coord with position pos set to id.
func with(coord []int32, pos int, id int32) []int32 {
	out := append([]int32(nil), coord...)
	out[pos] = id
	return out
}

// replaced returns preds with every predicate on lv replaced by one on
// members: the slice of a sibling or past benchmark.
func replaced(preds []refPred, lv mdm.LevelRef, members []int32) []refPred {
	out := make([]refPred, 0, len(preds))
	for _, p := range preds {
		if p.lv == lv {
			p.members = members
		}
		out = append(out, p)
	}
	return out
}

// benchmarkOf is a benchmark: for a target cell, its benchmark value and
// whether the cell found one.
type benchmarkOf func(c *refCell) (float64, bool)

// benchmark resolves the against clause. It returns the benchmark and the
// name of the benchmark measure the using clause sees as benchmark.<name>.
func (r *referee) benchmark(st *parser.Statement, f *storage.FactTable, group []mdm.LevelRef, preds []refPred, m int) (benchmarkOf, string, error) {
	s := f.Schema
	a := st.Against
	found := func(cells map[string]*refCell, coord []int32) (float64, bool) {
		return lookup(cells, coord, s.Measures[m].Op, m)
	}
	if a == nil {
		// Absolute: the dummy all-zero benchmark.
		return func(*refCell) (float64, bool) { return 0, true }, st.Measure, nil
	}
	switch a.Kind {
	case parser.BenchConstant:
		return func(*refCell) (float64, bool) { return a.Value, true }, st.Measure, nil

	case parser.BenchExternal:
		// Drill-across: the external cube grouped by the same levels, with
		// no for clause, joined on the coordinate.
		ext, ok := r.cubes[a.Cube]
		if !ok {
			return nil, "", fmt.Errorf("referee: no cube %q", a.Cube)
		}
		es := ext.Schema
		em, err := measure(es, a.Measure)
		if err != nil {
			return nil, "", err
		}
		egroup := make([]mdm.LevelRef, len(group))
		for i, lv := range group {
			elv, err := level(es, s.LevelName(lv))
			if err != nil {
				return nil, "", err
			}
			if es.Hiers[elv.Hier] != s.Hiers[lv.Hier] {
				return nil, "", fmt.Errorf("referee: cube %s does not share hierarchy %s", a.Cube, s.Hiers[lv.Hier].Name())
			}
			egroup[i] = elv
		}
		cells := get(ext, egroup, nil)
		return func(c *refCell) (float64, bool) {
			return lookup(cells, c.coord, es.Measures[em].Op, em)
		}, a.Measure, nil

	case parser.BenchSibling:
		// The same coordinate with the sliced member replaced.
		lv, err := level(s, a.Level)
		if err != nil {
			return nil, "", err
		}
		pos := slices.Index(group, lv)
		sib, err := member(s, lv, a.Member)
		if err != nil || pos < 0 {
			return nil, "", fmt.Errorf("referee: sibling %s = %q: level not grouped, or %v", a.Level, a.Member, err)
		}
		cells := get(f, group, replaced(preds, lv, []int32{sib}))
		return func(c *refCell) (float64, bool) { return found(cells, with(c.coord, pos, sib)) }, st.Measure, nil

	case parser.BenchPast:
		// l_t = u is the first for-clause predicate selecting one member of
		// a by-level; the series is the (up to) k members before u in name
		// order, and the benchmark their OLS prediction for the next slice.
		var lt refPred
		pos := -1
		for _, p := range preds {
			if i := slices.Index(group, p.lv); i >= 0 && len(p.members) == 1 {
				lt, pos = p, i
				break
			}
		}
		if pos < 0 {
			return nil, "", fmt.Errorf("referee: a past benchmark needs a sliced by-level")
		}
		dict := s.Dict(lt.lv)
		names := dict.SortedNames()
		at := sort.SearchStrings(names, dict.Name(lt.members[0]))
		past := make([]int32, 0, a.K)
		for _, name := range names[max(0, at-a.K):at] {
			id, err := member(s, lt.lv, name)
			if err != nil {
				return nil, "", err
			}
			past = append(past, id)
		}
		if len(past) == 0 {
			return nil, "", fmt.Errorf("referee: %q has no predecessor", dict.Name(lt.members[0]))
		}
		cells := get(f, group, replaced(preds, lt.lv, past))
		return func(c *refCell) (float64, bool) {
			series := make([]float64, len(past))
			complete := true
			for i, id := range past {
				var ok bool
				series[i], ok = found(cells, with(c.coord, pos, id))
				complete = complete && ok
			}
			return regression.PredictNext(series), complete
		}, st.Measure, nil

	case parser.BenchAncestor:
		// The cell the coordinate rolls up to at the coarser level.
		anc, err := level(s, a.Level)
		if err != nil {
			return nil, "", err
		}
		pos := mdm.GroupBy(group).Pos(anc.Hier)
		if pos < 0 || group[pos].Level >= anc.Level {
			return nil, "", fmt.Errorf("referee: %s is not an ancestor of a by-level", a.Level)
		}
		child := group[pos]
		agroup := append([]mdm.LevelRef(nil), group...)
		agroup[pos] = anc
		cells := get(f, agroup, preds)
		hier := s.Hiers[anc.Hier]
		return func(c *refCell) (float64, bool) {
			return found(cells, with(c.coord, pos, hier.Rollup(c.coord[pos], child.Level, anc.Level)))
		}, st.Measure, nil
	}
	return nil, "", fmt.Errorf("referee: benchmark kind %v", a.Kind)
}

// assess evaluates one assess statement.
func (r *referee) assess(text string) ([]refRow, error) {
	st, err := parser.Parse(text)
	if err != nil {
		return nil, err
	}
	f, ok := r.cubes[st.Cube]
	if !ok {
		return nil, fmt.Errorf("referee: no cube %q", st.Cube)
	}
	s := f.Schema

	// The target cube (Def 2.6): group-by levels in hierarchy order.
	group := make([]mdm.LevelRef, len(st.By))
	for i, name := range st.By {
		if group[i], err = level(s, name); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(group, func(a, b mdm.LevelRef) int { return a.Hier - b.Hier })
	preds := make([]refPred, len(st.For))
	for i, p := range st.For {
		lv, err := level(s, p.Level)
		if err != nil {
			return nil, err
		}
		preds[i].lv = lv
		for _, name := range p.Values {
			id, err := member(s, lv, name)
			if err != nil {
				return nil, err
			}
			preds[i].members = append(preds[i].members, id)
		}
	}
	m, err := measure(s, st.Measure)
	if err != nil {
		return nil, err
	}
	bench, benchName, err := r.benchmark(st, f, group, preds, m)
	if err != nil {
		return nil, err
	}

	// Join: cells in ascending coordinate order (member names, levels in
	// hierarchy order); assess drops a cell without a benchmark, assess*
	// keeps it with the NaN one, or with a past prediction from the
	// slices present.
	var cells []*refCell
	for _, c := range get(f, group, preds) {
		cells = append(cells, c)
	}
	name := func(c *refCell, i int) string { return s.Dict(group[i]).Name(c.coord[i]) }
	slices.SortFunc(cells, func(a, b *refCell) int {
		for i := range group {
			if d := strings.Compare(name(a, i), name(b, i)); d != 0 {
				return d
			}
		}
		return 0
	})
	var kept []*refCell
	var benchCol []float64
	for _, c := range cells {
		b, ok := bench(c)
		if !ok && !st.Star {
			continue
		}
		kept = append(kept, c)
		benchCol = append(benchCol, b)
	}

	// using: the default is identity(m) for an absolute assessment and
	// difference(m, benchmark.m) otherwise.
	column := func(name string) ([]float64, error) {
		m, err := measure(s, name)
		if err != nil {
			return nil, err
		}
		col := make([]float64, len(kept))
		for i, c := range kept {
			col[i] = c.value(s.Measures[m].Op, m)
		}
		return col, nil
	}
	using := st.Using
	if using == nil {
		m := &parser.Ref{Name: st.Measure}
		using = &parser.Call{Name: "identity", Args: []parser.Expr{m}}
		if st.Against != nil {
			using = &parser.Call{Name: "difference", Args: []parser.Expr{m, &parser.Ref{Benchmark: true, Name: benchName}}}
		}
	}
	var eval func(e parser.Expr) ([]float64, error)
	eval = func(e parser.Expr) ([]float64, error) {
		switch e := e.(type) {
		case *parser.Number:
			col := make([]float64, len(kept))
			for i := range col {
				col[i] = e.Value
			}
			return col, nil
		case *parser.Ref:
			if !e.Benchmark {
				return column(e.Name)
			}
			if e.Name != benchName {
				return nil, fmt.Errorf("referee: the benchmark measure is %q, not %q", benchName, e.Name)
			}
			return benchCol, nil
		case *parser.Call:
			fn, ok := r.funcs.Lookup(e.Name)
			if !ok {
				return nil, fmt.Errorf("referee: no function %q", e.Name)
			}
			args := make([][]float64, 0, len(e.Args)+1)
			for _, a := range e.Args {
				col, err := eval(a)
				if err != nil {
					return nil, err
				}
				args = append(args, col)
			}
			if fn.ImplicitMeasureArg && len(args) == fn.Arity-1 {
				col, _ := column(st.Measure)
				args = append(args, col)
			}
			if fn.Kind == funcs.Holistic {
				return fn.HolFn(args), nil
			}
			out := make([]float64, len(kept))
			buf := make([]float64, len(args))
			for i := range out {
				for j, col := range args {
					buf[j] = col[i]
				}
				out[i] = fn.CellFn(buf)
			}
			return out, nil
		}
		return nil, fmt.Errorf("referee: unsupported using expression %v", e)
	}
	comparison, err := eval(using)
	if err != nil {
		return nil, err
	}

	// labels, per within slice when there is one, each slice in coordinate
	// order.
	var labeler labeling.Labeler
	if st.Labels.Named != "" {
		if labeler, ok = r.labelers.Lookup(st.Labels.Named); !ok {
			return nil, fmt.Errorf("referee: no labeler %q", st.Labels.Named)
		}
	} else {
		ivs := make([]labeling.Interval, len(st.Labels.Ranges))
		for i, rg := range st.Labels.Ranges {
			ivs[i] = labeling.Interval{Lo: rg.Lo, Hi: rg.Hi, LoOpen: rg.LoOpen, HiOpen: rg.HiOpen, Label: rg.Label}
		}
		if labeler, err = labeling.NewRanges("inline", ivs); err != nil {
			return nil, err
		}
	}
	slice := func(int) int32 { return 0 }
	if st.Labels.Within != "" {
		lv, err := level(s, st.Labels.Within)
		if err != nil {
			return nil, err
		}
		pos := mdm.GroupBy(group).Pos(lv.Hier)
		if pos < 0 || group[pos].Level > lv.Level {
			return nil, fmt.Errorf("referee: within %s rolls up from no by-level", st.Labels.Within)
		}
		slice = func(i int) int32 { return s.Hiers[lv.Hier].Rollup(kept[i].coord[pos], group[pos].Level, lv.Level) }
	}
	within := make(map[int32][]int) // cell indexes by slice, ascending
	for i := range kept {
		within[slice(i)] = append(within[slice(i)], i)
	}
	labels := make([]string, len(kept))
	for _, cells := range within {
		vals := make([]float64, len(cells))
		for j, i := range cells {
			vals[j] = comparison[i]
		}
		for j, l := range labeler.Apply(vals) {
			labels[cells[j]] = l
		}
	}

	out := make([]refRow, len(kept))
	mcol, _ := column(st.Measure)
	for i, c := range kept {
		coord := make([]string, len(group))
		for p := range group {
			coord[p] = name(c, p)
		}
		out[i] = refRow{Coord: coord, Measure: mcol[i], Benchmark: benchCol[i], Comparison: comparison[i], Label: labels[i]}
	}
	return out, nil
}
