// Package experiments reproduces the evaluation of Section 6: the four
// canonical intentions (Constant, External, Sibling, Past) over SSB
// cubes of three scale factors, and the code that regenerates every
// table and figure of the paper — Table 1 (formulation effort), Table 2
// (target-cube cardinalities), Table 3 (minimum execution times vs NP),
// Figure 3 (per-plan execution times), and Figure 4 (the per-phase
// breakdown of the Past intention).
//
// The paper ran SSB1/SSB10/SSB100 (6·10^6 … 6·10^8 fact rows) on Oracle;
// here the default presets keep the three 10× steps but start from
// 6·10^4 rows so the whole sweep fits a laptop (see DESIGN.md for the
// substitution rationale). Absolute times are not comparable with the
// paper's; the shapes — plan ordering, linear scaling, breakdown
// proportions — are.
package experiments

import (
	"fmt"
	"slices"

	"github.com/assess-olap/assess/internal/core"
	"github.com/assess-olap/assess/internal/exec"
	"github.com/assess-olap/assess/internal/parser"
	"github.com/assess-olap/assess/internal/plan"
	"github.com/assess-olap/assess/internal/sqlgen"
	"github.com/assess-olap/assess/internal/ssb"
)

// Intention is one of the four canonical assess statements of Section 6.
type Intention struct {
	Name      string
	Kind      parser.BenchmarkKind
	Statement string
}

// Intentions returns the four intentions in paper order. Group-by sets
// include a dimension whose cardinality grows with the scale factor, so
// target-cube cardinalities scale linearly as in Table 2.
func Intentions() []Intention {
	return []Intention{
		{
			Name: "Constant",
			Kind: parser.BenchConstant,
			Statement: `with LINEORDER by customer, year
				assess revenue against 1000000
				using ratio(revenue, benchmark.revenue)
				labels {[0, 0.8): behind, [0.8, 1.2]: onTarget, (1.2, inf): ahead}`,
		},
		{
			Name: "External",
			Kind: parser.BenchExternal,
			Statement: `with LINEORDER for cregion = 'EUROPE' by customer, year
				assess revenue against LINEORDER_BUDGET.expectedRevenue
				using normDifference(revenue, benchmark.expectedRevenue)
				labels {[-inf, -0.1): under, [-0.1, 0.1]: onBudget, (0.1, inf): over}`,
		},
		{
			Name: "Sibling",
			Kind: parser.BenchSibling,
			Statement: `with LINEORDER for year = '1997' by customer, year
				assess revenue against year = '1996'
				using ratio(revenue, benchmark.revenue)
				labels {[0, 0.9): down, [0.9, 1.1]: flat, (1.1, inf): up}`,
		},
		{
			Name: "Past",
			Kind: parser.BenchPast,
			Statement: `with LINEORDER for month = '1998-06' by month, supplier
				assess revenue against past 6
				using ratio(revenue, benchmark.revenue)
				labels {[0, 0.9): worse, [0.9, 1.1]: fine, (1.1, inf): better}`,
		},
	}
}

// Scale is one evaluation point: a label paralleling the paper's SSB1 /
// SSB10 / SSB100 and the scale factor passed to the generator.
type Scale struct {
	Label string
	SF    float64
}

// DefaultScales returns the three 10×-spaced presets (6·10^4 to 6·10^6
// fact rows).
func DefaultScales() []Scale {
	return []Scale{
		{Label: "SSB1", SF: 0.01},
		{Label: "SSB10", SF: 0.1},
		{Label: "SSB100", SF: 1.0},
	}
}

// QuickScales returns small presets for tests and smoke runs.
func QuickScales() []Scale {
	return []Scale{
		{Label: "SSB1", SF: 0.002},
		{Label: "SSB10", SF: 0.01},
	}
}

// Env is one prepared evaluation environment: a session over a generated
// SSB dataset.
type Env struct {
	Scale   Scale
	Session *core.Session
	Rows    int
}

// Setup generates the dataset of one scale and registers it on a fresh
// session. As in the paper's Oracle setup, materialized views are
// created for the intentions' group-by sets, so gets cost on the order
// of the aggregate's size and the plans' transfer/join/pivot differences
// are what the timings measure.
func Setup(sc Scale, seed int64) (*Env, error) {
	ds := ssb.Generate(sc.SF, seed)
	s := core.NewSession()
	if err := s.RegisterCube("LINEORDER", ds.Fact); err != nil {
		return nil, err
	}
	if err := s.RegisterCube("LINEORDER_BUDGET", ds.Budget); err != nil {
		return nil, err
	}
	for _, levels := range [][]string{
		{"customer", "year"},
		{"month", "supplier"},
	} {
		if err := s.Materialize("LINEORDER", levels...); err != nil {
			return nil, err
		}
	}
	if err := s.Materialize("LINEORDER_BUDGET", "customer", "year"); err != nil {
		return nil, err
	}
	return &Env{Scale: sc, Session: s, Rows: ds.Fact.Rows()}, nil
}

// SetupAll prepares environments for all scales.
func SetupAll(scales []Scale, seed int64) ([]*Env, error) {
	envs := make([]*Env, len(scales))
	for i, sc := range scales {
		env, err := Setup(sc, seed)
		if err != nil {
			return nil, err
		}
		envs[i] = env
	}
	return envs, nil
}

// EffortRow is one row of Table 1.
type EffortRow struct {
	Intention string
	SQL       int
	Python    int
	Total     int
	Assess    int
}

// Table1 computes the formulation effort of each intention: the ASCII
// length of the SQL and client code generated for the least complex
// (naive) plan versus the length of the assess statement itself.
func Table1(env *Env) ([]EffortRow, error) {
	var rows []EffortRow
	for _, in := range Intentions() {
		p, err := env.Session.PrepareWith(in.Statement, plan.NP)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.Name, err)
		}
		g := sqlgen.Generate(p)
		sql, py, total := g.Effort()
		rows = append(rows, EffortRow{
			Intention: in.Name,
			SQL:       sql,
			Python:    py,
			Total:     total,
			Assess:    len(p.Bound.Stmt.Text),
		})
	}
	return rows, nil
}

// CardinalityRow is one row of Table 2.
type CardinalityRow struct {
	Intention string
	Cells     []int // one per scale, in input order
}

// Table2 computes the target-cube cardinality |C| of each intention at
// each scale.
func Table2(envs []*Env) ([]CardinalityRow, error) {
	var rows []CardinalityRow
	for _, in := range Intentions() {
		row := CardinalityRow{Intention: in.Name}
		for _, env := range envs {
			n, err := env.Session.Cardinality(in.Statement)
			if err != nil {
				return nil, fmt.Errorf("%s at %s: %w", in.Name, env.Scale.Label, err)
			}
			row.Cells = append(row.Cells, n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Timing is one measured (intention, scale, strategy) point.
type Timing struct {
	Intention string
	Scale     string
	Strategy  plan.Strategy
	Seconds   float64        // median over rounds
	Rounds    []float64      // seconds of each round, in round order
	Breakdown exec.Breakdown // of the last run
	Cells     int
}

// RunMatrix executes every intention with every feasible strategy at
// every scale, runs rounds each. A round runs each plan of an intention
// once, in an order that alternates from round to round, so drift in the
// host's speed falls on every plan alike; a plan's time is its median
// round. It powers Table 3, Figure 3, and Figure 4.
func RunMatrix(envs []*Env, runs int, progress func(string)) ([]Timing, error) {
	runs = max(runs, 1)
	var out []Timing
	for _, env := range envs {
		for _, in := range Intentions() {
			var points []Timing
			for _, strat := range plan.Strategies() {
				if plan.Feasible(strat, in.Kind) {
					points = append(points, Timing{Intention: in.Name, Scale: env.Scale.Label, Strategy: strat})
					if progress != nil {
						progress(fmt.Sprintf("%s / %s / %v", env.Scale.Label, in.Name, strat))
					}
				}
			}
			for r := 0; r < runs; r++ {
				for k := range points {
					tm := &points[k]
					if r%2 == 1 {
						tm = &points[len(points)-1-k]
					}
					res, err := env.Session.ExecWith(in.Statement, tm.Strategy)
					if err != nil {
						return nil, fmt.Errorf("%s %s %v: %w", env.Scale.Label, in.Name, tm.Strategy, err)
					}
					tm.Rounds = append(tm.Rounds, res.Total.Seconds())
					tm.Breakdown, tm.Cells = res.Breakdown, res.Cube.Len()
				}
			}
			for k := range points {
				points[k].Seconds = quantile(points[k].Rounds, 0.5)
			}
			out = append(out, points...)
		}
	}
	return out, nil
}

// quantile is the q-quantile of xs, interpolated between order statistics.
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// MinRow is one row of Table 3: the best feasible time and the NP time.
type MinRow struct {
	Intention string
	Scale     string
	Best      float64
	BestPlan  plan.Strategy
	NPTime    float64
}

// Table3 derives the minimum-execution-time table from a run matrix.
func Table3(timings []Timing, scales []Scale) []MinRow {
	var rows []MinRow
	for _, in := range Intentions() {
		for _, sc := range scales {
			row := MinRow{Intention: in.Name, Scale: sc.Label, Best: -1}
			for _, tm := range timings {
				if tm.Intention != in.Name || tm.Scale != sc.Label {
					continue
				}
				if row.Best < 0 || tm.Seconds < row.Best {
					row.Best = tm.Seconds
					row.BestPlan = tm.Strategy
				}
				if tm.Strategy == plan.NP {
					row.NPTime = tm.Seconds
				}
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// PastBreakdowns filters the Figure 4 data: the Past intention's
// per-phase breakdown for every plan and scale.
func PastBreakdowns(timings []Timing) []Timing {
	var out []Timing
	for _, tm := range timings {
		if tm.Intention == "Past" {
			out = append(out, tm)
		}
	}
	return out
}
