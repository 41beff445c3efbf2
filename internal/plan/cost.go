package plan

import (
	"fmt"
	"strings"

	"github.com/assess-olap/assess/internal/engine"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/semantic"
)

// Cost-based plan selection (the paper's future work, Section 8:
// "investigate the relevant properties of our logical operators and
// develop a cost-based optimization strategy"). The model walks a plan's
// operations and charges abstract cost units per tuple touched:
// sequential input rows for gets (fact rows, or view cells when a
// materialized view covers the query), hash operations for joins and
// pivots, and a per-cell transfer charge at the engine/client cursor
// boundary. Cardinalities are estimated from dictionary sizes and
// predicate selectivities.

// Stats exposes the physical statistics the cost model needs; *engine.Engine
// implements it.
type Stats interface {
	// FactRows returns the cardinality of a detailed cube, or 0 if
	// unknown.
	FactRows(fact string) int
	// CoveringViewCells returns the cell count of the cheapest
	// materialized view that can answer the query through the roll-up
	// lattice — an exact group-by match or any finer covering view —
	// if one exists. The engine's aggregate navigator resolves queries
	// by the same rule, so Estimate charges a get the smallest covering
	// view instead of the fact table.
	CoveringViewCells(q engine.Query) (int, bool)
	// LevelCardinality returns |Dom(l)| for a level of the cube's schema,
	// or 0 if unknown.
	LevelCardinality(fact string, ref mdm.LevelRef) int
}

// Cost weights, in abstract units per tuple. Scanning is the baseline;
// hashing costs more than scanning; crossing the cursor boundary costs
// more than hashing (encode + decode + cell materialization).
const (
	wScan     = 1.0
	wHash     = 2.5
	wTransfer = 6.0
	wCompute  = 0.5
)

// Estimate returns the estimated cost of a plan in abstract units.
func Estimate(p *Plan, stats Stats) float64 {
	card := make(map[string]float64) // estimated |cube| per intermediate name
	var total float64
	for i := range p.Ops {
		op := &p.Ops[i]
		switch op.Kind {
		case OpGet:
			out := estimateCard(op.Query, stats)
			total += inputCost(op.Query, stats) + wTransfer*out
			card[op.Dst] = out
		case OpGetJoined:
			c := estimateCard(op.Query, stats)
			b := estimateCard(op.QueryB, stats)
			out := minf(c, b)
			if op.Outer {
				out = c
			}
			total += inputCost(op.Query, stats) + inputCost(op.QueryB, stats) +
				wHash*(c+b) + wTransfer*out
			card[op.Dst] = out
		case OpGetRollupJoined:
			c := estimateCard(op.Query, stats)
			b := estimateCard(op.QueryB, stats)
			total += inputCost(op.Query, stats) + inputCost(op.QueryB, stats) +
				wHash*(c+b) + wTransfer*c
			card[op.Dst] = c
		case OpGetMultiplied:
			c := estimateCard(op.Query, stats)
			b := estimateCard(op.QueryB, stats)
			out := c * float64(len(op.Members))
			total += inputCost(op.Query, stats) + inputCost(op.QueryB, stats) +
				wHash*(c+b) + wTransfer*out
			card[op.Dst] = out
		case OpGetPivoted:
			all := estimateCard(op.Query, stats)
			out := all / float64(len(op.Neighbors)+1)
			// The engine aggregates, then pivots: one hash per aggregated
			// cell, as OpClientPivot charges, and only the pivoted rows
			// cross the cursor boundary.
			total += inputCost(op.Query, stats) + wHash*all + wTransfer*out
			card[op.Dst] = out
		case OpClientJoin:
			a, b := card[op.SrcA], card[op.SrcB]
			out := minf(a, b)
			if op.Outer {
				out = a
			}
			total += wHash * (a + b)
			card[op.Dst] = out
		case OpClientRollupJoin:
			a, b := card[op.SrcA], card[op.SrcB]
			total += wHash * (a + b)
			card[op.Dst] = a
		case OpClientPivot:
			src := card[op.SrcA]
			total += wHash * src
			card[op.Dst] = src / float64(len(op.Neighbors)+1)
		case OpProject:
			card[op.Dst] = card[op.SrcA]
		case OpReplaceSlice:
			total += wCompute * card[op.SrcA]
			card[op.Dst] = card[op.SrcA]
		case OpTransform:
			total += wCompute * card[op.Dst]
		case OpLabel:
			total += wCompute * card[op.Dst]
		}
	}
	return total
}

// ChooseByCost builds all feasible plans for the bound statement and
// returns the one with the lowest estimated cost.
func ChooseByCost(b *semantic.Bound, stats Stats) (*Plan, error) {
	var best *Plan
	bestCost := 0.0
	for _, s := range Strategies() {
		if !Feasible(s, b.Bench.Kind) {
			continue
		}
		p, err := Build(b, s)
		if err != nil {
			return nil, err
		}
		c := Estimate(p, stats)
		if best == nil || c < bestCost {
			best, bestCost = p, c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no feasible strategy")
	}
	return best, nil
}

// ExplainCosts renders the estimated cost of every feasible plan.
func ExplainCosts(b *semantic.Bound, stats Stats) string {
	var sb strings.Builder
	for _, s := range Strategies() {
		if !Feasible(s, b.Bench.Kind) {
			continue
		}
		p, err := Build(b, s)
		if err != nil {
			continue
		}
		fmt.Fprintf(&sb, "%-4v estimated cost %12.0f units\n", s, Estimate(p, stats))
	}
	return sb.String()
}

// inputCost is the sequential input side of a get: the cells of the
// smallest view covering the query through the roll-up lattice, or the
// full fact table.
func inputCost(q engine.Query, stats Stats) float64 {
	if n, ok := stats.CoveringViewCells(q); ok {
		return wScan * float64(n)
	}
	return wScan * float64(stats.FactRows(q.Fact))
}

// estimateCard estimates |C| of a cube query: the product of the
// group-by level cardinalities, scaled by predicate selectivities, and
// bounded by the (predicate-scaled) input cardinality.
func estimateCard(q engine.Query, stats Stats) float64 {
	sel := 1.0
	for _, p := range q.Preds {
		dom := stats.LevelCardinality(q.Fact, p.Level)
		if dom > 0 {
			sel *= float64(len(p.Members)) / float64(dom)
		}
	}
	groups := 1.0
	for _, ref := range q.Group {
		if dom := stats.LevelCardinality(q.Fact, ref); dom > 0 {
			groups *= float64(dom)
		}
	}
	rows := float64(stats.FactRows(q.Fact)) * sel
	return minf(maxf(groups*sel, 1), maxf(rows, 1))
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
