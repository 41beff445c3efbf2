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
func opSpanName(k plan.OpKind) string {
	switch k {
	case plan.OpGet:
		return "engine.scan"
	case plan.OpGetJoined, plan.OpGetRollupJoined, plan.OpGetMultiplied:
		return "engine.join"
	case plan.OpGetPivoted:
		return "engine.pivot"
	case plan.OpClientJoin, plan.OpClientRollupJoin:
		return "client.join"
	case plan.OpClientPivot:
		return "client.pivot"
	case plan.OpTransform:
		return "transform"
	case plan.OpProject, plan.OpReplaceSlice:
		return "transform"
	case plan.OpLabel:
		return "label"
	}
	return "op"
}

// engineSide reports whether the op's result crossed the engine→client
// wire (its span then carries the transfer byte estimate).
func engineSide(k plan.OpKind) bool {
	switch k {
	case plan.OpGet, plan.OpGetJoined, plan.OpGetPivoted, plan.OpGetMultiplied, plan.OpGetRollupJoined:
		return true
	}
	return false
}

// wireBytes estimates a cube's size on the cursor wire: 4·|G| + 8·|M|
// per cell (the encoding of wire.go).
func wireBytes(c *cube.Cube) int64 {
	if c == nil {
		return 0
	}
	return int64((4*len(c.Group) + 8*len(c.Cols)) * c.Len())
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

// OpStat is the measured execution of one plan operation (the
// EXPLAIN-ANALYZE view of a run).
type OpStat struct {
	Description string
	Phase       plan.Phase
	Duration    time.Duration
}

// Result is the outcome of executing one assess statement.
type Result struct {
	Plan      *plan.Plan
	Cube      *cube.Cube // final cube, sorted by coordinate
	Breakdown Breakdown
	OpStats   []OpStat // per-operation timings, in plan order
	Total     time.Duration
}

// Run executes the plan.
func Run(e *engine.Engine, p *plan.Plan) (*Result, error) {
	return RunContext(context.Background(), e, p)
}

// RunContext executes the plan, emitting one trace span per operation
// when the context carries a trace (obsv.NewTrace) and observing each
// phase's latency into the stage histograms. With no trace attached the
// per-op overhead is one context lookup and one histogram update.
func RunContext(ctx context.Context, e *engine.Engine, p *plan.Plan) (*Result, error) {
	cubes := make(map[string]*cube.Cube)
	var bd Breakdown
	stats := make([]OpStat, 0, len(p.Ops))
	start := time.Now()
	for i := range p.Ops {
		// A caller that gave up (client disconnect, shared-scan detach on
		// an earlier op) stops the plan between operations.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		op := &p.Ops[i]
		_, sp := obsv.StartSpan(ctx, opSpanName(op.Kind))
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
				if engineSide(op.Kind) {
					sp.AddBytes(wireBytes(out))
				}
			}
		}
		sp.End()
		bd[op.Phase] += d
		stageSeconds[op.Phase].Observe(d.Seconds())
		stats = append(stats, OpStat{Description: p.DescribeOp(i), Phase: op.Phase, Duration: d})
	}
	out, ok := cubes[p.Result]
	if !ok {
		return nil, fmt.Errorf("exec: plan produced no result cube %q", p.Result)
	}
	// A labelled result is already in order (the label op sorted it), so
	// this is one pass; either way it is part of the statement's total.
	out.SortByCoordinate()
	return &Result{Plan: p, Cube: out, Breakdown: bd, OpStats: stats, Total: time.Since(start)}, nil
}

// ExplainAnalyze renders the executed plan with per-operation timings.
func (r *Result) ExplainAnalyze() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v plan, %v total:\n", r.Plan.Strategy, r.Total)
	for i, st := range r.OpStats {
		fmt.Fprintf(&sb, "  %d. [%s %10v] %s\n", i+1, st.Phase, st.Duration, st.Description)
	}
	return sb.String()
}

func runOp(ctx context.Context, e *engine.Engine, p *plan.Plan, op *plan.Op, cubes map[string]*cube.Cube) error {
	src := func(name string) (*cube.Cube, error) {
		c, ok := cubes[name]
		if !ok {
			return nil, fmt.Errorf("unknown intermediate cube %q", name)
		}
		return c, nil
	}
	switch op.Kind {
	case plan.OpGet:
		c, err := e.GetContext(ctx, op.Query)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpGetJoined:
		c, err := e.GetJoinedContext(ctx, op.Query, op.QueryB, op.On, op.Alias, op.Outer)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpGetPivoted:
		c, err := e.GetPivotedContext(ctx, op.Query, op.Level, op.Ref, op.Neighbors, op.Strict, op.Rename)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpGetMultiplied:
		c, err := e.GetMultipliedContext(ctx, op.Query, op.QueryB, op.Level, op.Members, op.Alias, op.Outer)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpGetRollupJoined:
		c, err := e.GetRollupJoinedContext(ctx, op.Query, op.QueryB, op.Alias, op.Outer)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpClientRollupJoin:
		a, err := src(op.SrcA)
		if err != nil {
			return err
		}
		b, err := src(op.SrcB)
		if err != nil {
			return err
		}
		c, err := cube.RollupJoin(a, b, op.Alias, op.Outer)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpClientJoin:
		a, err := src(op.SrcA)
		if err != nil {
			return err
		}
		b, err := src(op.SrcB)
		if err != nil {
			return err
		}
		c, err := cube.PartialJoin(a, b, op.On, op.Alias, op.Outer)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpClientPivot:
		a, err := src(op.SrcA)
		if err != nil {
			return err
		}
		c, err := cube.Pivot(a, op.Level, op.Ref, op.Neighbors, op.Strict, op.Rename)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpProject:
		a, err := src(op.SrcA)
		if err != nil {
			return err
		}
		c, err := a.Project(op.ProjKeep, op.ProjRename)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpReplaceSlice:
		a, err := src(op.SrcA)
		if err != nil {
			return err
		}
		c, err := a.ReplaceSlice(op.Level, op.Ref)
		if err != nil {
			return err
		}
		cubes[op.Dst] = c
	case plan.OpTransform:
		c, err := src(op.Dst)
		if err != nil {
			return err
		}
		// Holistic functions (rank, quantile-style normalizations) break
		// value ties by row order, and row order differs between plan
		// shapes and between serial and partitioned scans. Canonicalize
		// first so every evaluation strategy labels ties identically.
		if exprIsHolistic(op.Expr) {
			c.SortByCoordinate()
		}
		col, err := evalColumn(op.Expr, c)
		if err != nil {
			return err
		}
		if err := c.AppendMeasure(op.OutCol, col); err != nil {
			return err
		}
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
		if err := c.SetLabels(labels); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown plan operation %d", op.Kind)
	}
	return nil
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
// treated as read-only; cached results share their cube across requests.
type Columns struct {
	// Dicts holds the member dictionary of each coordinate position and
	// Keys its member-id column: Dicts[p].Name(Keys[p][i]) is cell i's
	// member at position p.
	Dicts []*mdm.Dict
	Keys  [][]int32
	// Measure and Comparison are always present. Benchmark is nil when
	// the result carries no benchmark column (every cell reads as NaN),
	// Labels when it is unlabeled (every cell reads as NullLabel).
	Measure    []float64
	Benchmark  []float64
	Comparison []float64
	Labels     []string
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
			row.Label = cols.Labels[i]
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
