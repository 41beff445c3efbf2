package engine

import (
	"context"
	"fmt"
	"slices"

	"github.com/assess-olap/assess/internal/cube"
	"github.com/assess-olap/assess/internal/mdm"
	"github.com/assess-olap/assess/internal/storage"
)

// Sub-aggregates. Gray et al.'s data cube names what makes an aggregate
// computable from aggregates: SUM, MIN and MAX are distributive and
// recombine through themselves, COUNT through SUM, and the algebraic AVG
// through a (sum, count) pair divided at the end. That rule is written
// here once. A materialized view's cells and a shard's reply are the same
// thing under it — cells at a group-by set carrying sub-aggregate columns —
// and both are re-aggregated by running them through the scan pipeline as
// rows (reaggregate): the navigator's roll-up is one part with predicates
// and level maps, the coordinator's gather is one part per shard with
// neither.

// Partials lays requested aggregates out as sub-aggregate columns: one
// per requested measure that is not a COUNT — a SUM for a SUM or an AVG,
// else the operator itself — then, when some measure is an AVG or a
// COUNT, one count of rows that all of them share. It is the kernel's own
// accumulator layout (aggTable.vals, aggTable.cnt).
type Partials struct {
	// Measures and Ops describe the scan that produces a part: Ops[k]
	// over fact column Measures[k].
	Measures []int
	Ops      []mdm.AggOp

	final []mdm.AggOp // the requested operators
	col   []int       // per requested measure: its column, cnt for a COUNT
	cnt   int         // the shared count column, -1 without one
}

// Decompose lays out the sub-aggregates behind ops[j] over fact column
// measures[j].
func Decompose(measures []int, ops []mdm.AggOp) *Partials {
	p := &Partials{final: ops, col: make([]int, len(ops)), cnt: -1}
	add := func(m int, op mdm.AggOp) int {
		p.Measures, p.Ops = append(p.Measures, m), append(p.Ops, op)
		return len(p.Ops) - 1
	}
	for j, op := range ops {
		switch op {
		case mdm.AggCount:
		case mdm.AggAvg:
			p.col[j] = add(measures[j], mdm.AggSum)
		default:
			p.col[j] = add(measures[j], op)
		}
	}
	for j, op := range ops {
		if p.cnt < 0 && (op == mdm.AggAvg || op == mdm.AggCount) {
			// COUNT counts rows and never reads its column, so any
			// valid one stands in.
			p.cnt = add(measures[j], mdm.AggCount)
		}
		if op == mdm.AggCount {
			p.col[j] = p.cnt
		}
	}
	return p
}

// read turns sub-aggregate columns into the requested ones: an AVG is its
// sum ÷ the shared count (a new column; cols is left as it was), a COUNT
// is the shared count, everything else its own column.
func (p *Partials) read(cols [][]float64) [][]float64 {
	out := make([][]float64, len(p.final))
	for j, op := range p.final {
		out[j] = cols[p.col[j]]
		if op == mdm.AggAvg {
			sum, cnt := out[j], cols[p.cnt]
			avg := make([]float64, len(sum))
			for i := range sum {
				avg[i] = sum[i] / cnt[i]
			}
			out[j] = avg
		}
	}
	return out
}

// reaggregate runs the parts — batches of sub-aggregate cells laid out as
// scan sources, a member-id column per key position and a value column
// per column of p — one after another through the scan pipeline into one
// table: each part accumulates where the last left off, nothing is
// concatenated. Sub-aggregates recombine through their own operator, the
// counts through SUM, and the requested aggregates are read back at
// group-by set g. from[gi].Hier names the key column that holds position
// gi's member ids, gmaps[gi] takes those ids to g[gi]'s level, and
// accepts, indexed like the key columns, filters cells.
func (e *Engine) reaggregate(ctx context.Context, s *mdm.Schema, g, from mdm.GroupBy, gmaps [][]int32, accepts [][]bool, p *Partials, names []string, parts ...storage.ScanSource) (*cube.Cube, error) {
	ops := slices.Clone(p.Ops)
	if p.cnt >= 0 {
		ops[p.cnt] = mdm.AggSum
	}
	idx := make([]int, len(ops))
	for k := range idx {
		idx[k] = k
	}
	cards := make([]int, len(g))
	for gi, ref := range g {
		cards[gi] = s.Dict(ref).Len()
	}
	sq := &scanQuery{ctx: ctx, group: from, measures: idx, ops: ops, accepts: accepts, gmaps: gmaps}
	sq.init(cards, e.denseKeyBudget())
	cells := 0
	for _, part := range parts {
		cells += part.Rows()
	}
	if !worthDense(sq.dense, cells) {
		sq.dense = 0
	}
	for _, part := range parts {
		if part.Rows() == 0 {
			continue
		}
		workers, morsel := e.scanShape(part.Rows())
		t, _, _, err := scan(sq, part, workers, morsel)
		if err != nil {
			return nil, err
		}
		sq.into = t
	}
	t := sq.into
	if t == nil {
		t = sq.newTable()
	}
	slots := sq.occupied(t)
	return cube.Build(s, g, names, len(slots), sq.keys(t, slots), p.read(sq.columns(t, slots)))
}

// Combine re-aggregates parts — cubes at q's group-by set whose columns
// are p's sub-aggregates, each computed over a disjoint share of q.Fact's
// rows — into the cube a single scan for p's request over all the rows
// would produce, cells in ascending coordinate order, columns named
// names. A cell holding a member id the fact's dictionaries do not is an
// error, not a wrong answer.
func (e *Engine) Combine(ctx context.Context, q Query, p *Partials, names []string, parts []*cube.Cube) (*cube.Cube, error) {
	f, ok := e.facts[q.Fact]
	if !ok {
		return nil, fmt.Errorf("engine: unknown cube %s", q.Fact)
	}
	// A part's key columns stand in group-by order, whatever hierarchies
	// the levels belong to, and are already at the level asked for.
	from := make(mdm.GroupBy, len(q.Group))
	gmaps := make([][]int32, len(q.Group))
	for gi, ref := range q.Group {
		if !f.Schema.HasLevel(ref) {
			return nil, fmt.Errorf("engine: group-by level out of range for %s", q.Fact)
		}
		from[gi] = mdm.LevelRef{Hier: gi}
		gmaps[gi] = f.Schema.Hiers[ref.Hier].LevelMap(ref.Level, ref.Level)
	}
	cells := make([]storage.ScanSource, len(parts))
	for i, c := range parts {
		if len(c.Group) != len(from) || len(c.Cols) != len(p.Ops) {
			return nil, fmt.Errorf("engine: part %d is %d levels by %d columns, the request %d by %d",
				i, len(c.Group), len(c.Cols), len(from), len(p.Ops))
		}
		for gi, col := range c.Keys {
			for r, id := range col {
				if id < 0 || int(id) >= len(gmaps[gi]) {
					return nil, fmt.Errorf("engine: part %d: cell %v lies outside the dictionaries of %s", i, c.Coord(r), q.Fact)
				}
			}
		}
		cells[i] = storage.ColumnsSource(c.Keys, c.Cols, c.Len())
	}
	return e.reaggregate(ctx, f.Schema, q.Group, from, gmaps, nil, p, names, cells...)
}
