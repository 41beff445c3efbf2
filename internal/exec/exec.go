// Package exec runs assess plans against the engine, timing every
// operation into the phase buckets of Figure 4 (get C, get B, get C+B,
// transform, join, comparison, label) and assembling the result the paper
// prescribes for every cell: its coordinate, the value of the assessed
// measure, the benchmark value, the comparison value, and the label.
package exec

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/labeling"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/obsv"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/semantic"
)

// Per-stage latency histograms (assess_stage_seconds{stage=...}), one
// series per Figure 4 phase. Indexed by plan.Phase for a branch-free
// Observe on the hot path.
var stageSeconds = func() [plan.NumPhases]*obsv.Histogram {
	var hs [plan.NumPhases]*obsv.Histogram
	for p := plan.Phase(0); p < plan.NumPhases; p++ {
		hs[p] = obsv.Default.Histogram("assess_stage_seconds",
			"Execution time per plan phase (Figure 4 breakdown).", "stage", phaseSlug(p))
	}
	return hs
}()

// phaseSlug is the metric-label form of a phase name ("Get C+B" is a
// fine label value but a poor grafana query).
func phaseSlug(p plan.Phase) string {
	switch p {
	case plan.PhaseGetC:
		return "get_c"
	case plan.PhaseGetB:
		return "get_b"
	case plan.PhaseGetCB:
		return "get_cb"
	case plan.PhaseTransform:
		return "transform"
	case plan.PhaseJoin:
		return "join"
	case plan.PhaseCompare:
		return "compare"
	case plan.PhaseLabel:
		return "label"
	}
	return "other"
}

// opSpanName names the trace span of one plan operation by what the
// engine or client actually does.
func opSpanName(op *plan.Op) string {
	switch op.Kind {
	case plan.OpGet:
		return "engine.scan"
	case plan.OpJoin, plan.OpMultiply, plan.OpRollupJoin:
		if op.Pushed() {
			return "engine.join"
		}
		return "client.join"
	case plan.OpPivot:
		if op.Pushed() {
			return "engine.pivot"
		}
		return "client.pivot"
	case plan.OpProject, plan.OpReplaceSlice, plan.OpTransform:
		return "transform"
	case plan.OpLabel:
		return "label"
	}
	return "op"
}

// wireBytes estimates a cube's size on the cursor wire (engine.RowBytes
// per cell).
func wireBytes(c *cube.Cube) int64 {
	if c == nil {
		return 0
	}
	return int64(engine.RowBytes(len(c.Group), len(c.Cols)) * c.Len())
}

// Breakdown is the per-phase execution time of one plan run.
type Breakdown [plan.NumPhases]time.Duration

// Total sums all phases.
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b {
		t += d
	}
	return t
}

// String renders the non-zero phases.
func (b Breakdown) String() string {
	var parts []string
	for p, d := range b {
		if d > 0 {
			parts = append(parts, fmt.Sprintf("%s=%v", plan.Phase(p), d))
		}
	}
	return strings.Join(parts, " ")
}

// Result is the outcome of executing one assess statement.
type Result struct {
	Plan      *plan.Plan
	Cube      *cube.Cube // final cube, sorted by coordinate
	Breakdown Breakdown
	OpTimes   []time.Duration // per-operation durations, in plan order
	Total     time.Duration
}

// Engine is what a plan runs on: engine.Engine's Push, which evaluates
// gets engine-side, applies one cube operator to their cubes and hands
// its result to the client by reference. A wrapper may move the result
// across a cursor first (internal/experiments does, for Figure 3).
type Engine interface {
	Push(ctx context.Context, op func(cs ...*cube.Cube) (*cube.Cube, error), qs ...engine.Query) (*cube.Cube, error)
}

// Run executes the plan.
func Run(e Engine, p *plan.Plan) (*Result, error) {
	return RunContext(context.Background(), e, p)
}

// RunContext executes the plan, emitting one trace span per operation
// when the context carries a trace (obsv.NewTrace) and observing each
// phase's latency into the stage histograms. With no trace attached the
// per-op overhead is one context lookup and one histogram update.
func RunContext(ctx context.Context, e Engine, p *plan.Plan) (*Result, error) {
	cubes := make(map[string]*cube.Cube)
	var bd Breakdown
	times := make([]time.Duration, 0, len(p.Ops))
	start := time.Now()
	for i := range p.Ops {
		// A caller that gave up (client disconnect, a deadline) stops the
		// plan between operations.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op := &p.Ops[i]
		_, sp := obsv.StartSpan(ctx, opSpanName(op))
		if sp != nil { // guard so the disabled path skips the lookups too
			sp.SetNote(p.DescribeOp(i))
			if in, ok := cubes[op.SrcA]; ok {
				sp.SetRows(int64(in.Len()), 0)
			} else if in, ok := cubes[op.Dst]; ok {
				// In-place ops (transform, label) read their destination cube.
				sp.SetRows(int64(in.Len()), 0)
			}
		}
		t0 := time.Now()
		err := runOp(ctx, e, p, op, cubes)
		d := time.Since(t0)
		if err != nil {
			sp.End()
			return nil, fmt.Errorf("exec: step %d (%s): %w", i+1, op.Phase, err)
		}
		if sp != nil {
			if out, ok := cubes[op.Dst]; ok {
				sp.SetRows(0, int64(out.Len()))
				if op.Pushed() { // the output crossed the engine→client wire
					sp.AddBytes(wireBytes(out))
				}
			}
		}
		sp.End()
		bd[op.Phase] += d
		stageSeconds[op.Phase].Observe(d.Seconds())
		times = append(times, d)
	}
	out, ok := cubes[p.Result]
	if !ok {
		return nil, fmt.Errorf("exec: plan produced no result cube %q", p.Result)
	}
	// A labelled result is already sorted (the label op sorted it, and the
	// cube remembers it), so this returns at once; either way it is part
	// of the statement's total.
	out.SortByCoordinate()
	return &Result{Plan: p, Cube: out, Breakdown: bd, OpTimes: times, Total: time.Since(start)}, nil
}

// ExplainAnalyze renders the executed plan with per-operation timings:
// each op's phase and description come off the plan, its time off the
// run.
func (r *Result) ExplainAnalyze() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v plan, %v total:\n", r.Plan.Strategy, r.Total)
	for i, d := range r.OpTimes {
		fmt.Fprintf(&sb, "  %d. [%s %10v] %s\n", i+1, r.Plan.Ops[i].Phase, d, r.Plan.DescribeOp(i))
	}
	return sb.String()
}

func runOp(ctx context.Context, e Engine, p *plan.Plan, op *plan.Op, cubes map[string]*cube.Cube) error {
	src := func(name string) (*cube.Cube, error) {
		c, ok := cubes[name]
		if !ok {
			return nil, fmt.Errorf("unknown intermediate cube %q", name)
		}
		return c, nil
	}
	switch op.Kind {
	case plan.OpTransform:
		c, err := src(op.Dst)
		if err != nil {
			return err
		}
		// Holistic functions (rank, quantile-style normalizations) break
		// value ties by row order, and row order differs between plan
		// shapes and between serial and partitioned scans. Canonicalize
		// first so every evaluation strategy labels ties identically.
		if semantic.Holistic(op.Expr) {
			c.SortByCoordinate()
		}
		col, err := evalColumn(op.Expr, c)
		if err != nil {
			return err
		}
		return c.AppendMeasure(op.OutCol, col)
	case plan.OpLabel:
		c, err := src(op.Dst)
		if err != nil {
			return err
		}
		// Distribution labelers (quantiles, clusters) split ties by row
		// order; sort first so the split is a function of the result set,
		// not of the evaluation strategy.
		c.SortByCoordinate()
		j, ok := c.MeasureIndex(op.LabelCol)
		if !ok {
			return fmt.Errorf("no comparison column %q to label", op.LabelCol)
		}
		labels, err := applyLabeler(p.Bound, c, c.Column(j))
		if err != nil {
			return err
		}
		return c.SetLabels(labels)
	}
	// Every other operator reads its inputs, through the engine when
	// pushed and from the named cubes otherwise, and applies one operator.
	apply := func(in ...*cube.Cube) (*cube.Cube, error) { return applyOp(op, in) }
	var out *cube.Cube
	var err error
	if op.Pushed() {
		qs := []engine.Query{op.Query}
		if op.QueryB.Fact != "" {
			qs = append(qs, op.QueryB)
		}
		out, err = e.Push(ctx, apply, qs...)
	} else {
		in := make([]*cube.Cube, 0, 2)
		for _, name := range []string{op.SrcA, op.SrcB} {
			if name == "" {
				continue
			}
			c, err := src(name)
			if err != nil {
				return err
			}
			in = append(in, c)
		}
		out, err = apply(in...)
	}
	if err != nil {
		return err
	}
	cubes[op.Dst] = out
	return nil
}

// applyOp applies the op's operator to its input cubes, wherever they
// were read: the one evaluation of every operator in both placements.
func applyOp(op *plan.Op, in []*cube.Cube) (*cube.Cube, error) {
	arity := 1
	switch op.Kind {
	case plan.OpJoin, plan.OpMultiply, plan.OpRollupJoin:
		arity = 2
	}
	if len(in) != arity {
		return nil, fmt.Errorf("plan operation %d has %d inputs, want %d", op.Kind, len(in), arity)
	}
	switch op.Kind {
	case plan.OpGet:
		return in[0], nil
	case plan.OpJoin:
		return cube.PartialJoin(in[0], in[1], op.On, op.Alias, op.Outer)
	case plan.OpPivot:
		return cube.Pivot(in[0], op.Level, op.Ref, op.Neighbors, op.Strict, op.Rename)
	case plan.OpMultiply:
		return cube.MultiplyJoin(in[0], in[1], op.Level, op.Members, op.Alias, op.Outer)
	case plan.OpRollupJoin:
		return cube.RollupJoin(in[0], in[1], op.Alias, op.Outer)
	case plan.OpProject:
		return in[0].Project(op.ProjKeep, op.ProjRename)
	case plan.OpReplaceSlice:
		return in[0].ReplaceSlice(op.Level, op.Ref)
	}
	return nil, fmt.Errorf("unknown plan operation %d", op.Kind)
}

// Row is the paper's per-cell result: coordinate member names, the value
// of the assessed measure m, the benchmark value, the comparison value,
// and the label.
type Row struct {
	Coordinate []string
	Measure    float64
	Benchmark  float64
	Comparison float64
	Label      string
}

// Columns is the columnar form of a result: one slice per field of Row,
// all indexed by cell. Every slice aliases the result cube (and Dicts its
// schema's dictionaries), so a Columns is free to take and must be
// treated as read-only; cached results share their cube across requests,
// and an unpredicated view answer shares a materialized view's columns.
type Columns struct {
	// Dicts holds the member dictionary of each coordinate position and
	// Keys its member-id column: Dicts[p].Name(Keys[p][i]) is cell i's
	// member at position p.
	Dicts []*mdm.Dict
	Keys  [][]int32
	// Measure and Comparison are always present. Benchmark is nil when
	// the result carries no benchmark column (every cell reads as NaN),
	// Labels when it is unlabeled (every cell reads as NullLabel).
	// Labels.Name(i) is cell i's label.
	Measure    []float64
	Benchmark  []float64
	Comparison []float64
	Labels     *labeling.Column
}

// Columns returns the result's columns without copying any cell.
func (r *Result) Columns() (Columns, error) {
	b := r.Plan.Bound
	c := r.Cube
	mi, ok := c.MeasureIndex(b.MeasureName())
	if !ok {
		return Columns{}, fmt.Errorf("exec: result lacks measure %s", b.MeasureName())
	}
	ci, ok := c.MeasureIndex(r.Plan.ComparisonCol)
	if !ok {
		return Columns{}, fmt.Errorf("exec: result lacks comparison column")
	}
	cols := Columns{
		Dicts:      make([]*mdm.Dict, len(c.Group)),
		Keys:       c.Keys,
		Measure:    c.Cols[mi],
		Comparison: c.Cols[ci],
		Labels:     c.Labels,
	}
	for p, g := range c.Group {
		cols.Dicts[p] = c.Schema.Dict(g)
	}
	if bi, ok := c.MeasureIndex(b.BenchColumn()); ok {
		cols.Benchmark = c.Cols[bi]
	}
	return cols, nil
}

// Rows extracts the final result rows: Columns, materialized cell by
// cell for callers that want values rather than a wire encoding.
func (r *Result) Rows() ([]Row, error) {
	cols, err := r.Columns()
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(cols.Measure))
	// One backing array for every coordinate's names; the full slice
	// expression keeps an append on one row from reaching the next.
	width := len(cols.Dicts)
	names := make([]string, len(rows)*width)
	for i := range rows {
		coordinate := names[i*width : (i+1)*width : (i+1)*width]
		for p, col := range cols.Keys {
			coordinate[p] = cols.Dicts[p].Name(col[i])
		}
		row := Row{
			Coordinate: coordinate,
			Measure:    cols.Measure[i],
			Benchmark:  math.NaN(),
			Comparison: cols.Comparison[i],
			Label:      labeling.NullLabel,
		}
		if cols.Benchmark != nil {
			row.Benchmark = cols.Benchmark[i]
		}
		if cols.Labels != nil {
			row.Label = cols.Labels.Name(i)
		}
		rows[i] = row
	}
	return rows, nil
}

// Render formats the result as a text table with one row per cell.
func (r *Result) Render() (string, error) {
	rows, err := r.Rows()
	if err != nil {
		return "", err
	}
	b := r.Plan.Bound
	var sb strings.Builder
	for _, g := range b.Group {
		fmt.Fprintf(&sb, "%s\t", b.Schema.LevelName(g))
	}
	fmt.Fprintf(&sb, "%s\t%s\t%s\tlabel\n", b.MeasureName(), b.BenchColumn(), r.Plan.ComparisonCol)
	for _, row := range rows {
		for _, m := range row.Coordinate {
			fmt.Fprintf(&sb, "%s\t", m)
		}
		fmt.Fprintf(&sb, "%.4g\t%.4g\t%.4g\t%s\n", row.Measure, row.Benchmark, row.Comparison, row.Label)
	}
	return sb.String(), nil
}
