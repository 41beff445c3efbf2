package cube

import (
	"fmt"
	"math"
	"slices"

	"github.com/assess-olap/assess/internal/mdm"
)

// The operators below share one shape: decide, per output cell, which
// source cells it draws from (row lists), probing an index with key
// columns rather than cell by cell, then assemble the output column by
// column through Build — one slice per key position and per measure,
// however many cells.

// take copies the cells rows of c: every key column and every measure
// column.
func take(c *Cube, rows []int32) ([][]int32, [][]float64) {
	keys := make([][]int32, len(c.Keys))
	for p, col := range c.Keys {
		keys[p] = gather(col, rows)
	}
	cols := make([][]float64, len(c.Cols))
	for j, col := range c.Cols {
		cols[j] = gather(col, rows)
	}
	return keys, cols
}

// filled returns a column of n copies of id.
func filled(id int32, n int) []int32 {
	col := make([]int32, n)
	for i := range col {
		col[i] = id
	}
	return col
}

// matched returns the measure columns of c gathered by rows, with NaN
// where a row is negative (no matching cell).
func matched(c *Cube, rows []int32) [][]float64 {
	cols := make([][]float64, len(c.Cols))
	for j, col := range c.Cols {
		out := make([]float64, len(rows))
		for k, i := range rows {
			if i >= 0 {
				out[k] = col[i]
			} else {
				out[k] = math.NaN()
			}
		}
		cols[j] = out
	}
	return cols
}

// joined assembles a join's output: the left cells lrows, then the right
// measures of the cells rrows (NaN where a row is negative) under the
// alias prefix.
func joined(left, right *Cube, alias string, lrows, rrows []int32) (*Cube, error) {
	names := slices.Clone(left.Names)
	for _, n := range right.Names {
		names = append(names, alias+n)
	}
	keys, cols := take(left, lrows)
	return Build(left.Schema, left.Group, names, len(lrows), keys, append(cols, matched(right, rrows)...))
}

// joinFound is joined for a probe that found right cell found[i] for left
// cell i, -1 for none: an unmatched left cell is dropped, or kept with NaN
// right measures when outer is true.
func joinFound(left, right *Cube, alias string, found []int32, outer bool) (*Cube, error) {
	lrows := make([]int32, 0, len(found))
	rrows := make([]int32, 0, len(found))
	for i, ri := range found {
		if ri >= 0 || outer {
			lrows = append(lrows, int32(i))
			rrows = append(rrows, ri)
		}
	}
	return joined(left, right, alias, lrows, rrows)
}

// singleSlice reports whether every cell carries the same member at
// position lp. Rewriting that position of such a cube cannot make two of
// its (unique) coordinates collide.
func singleSlice(c *Cube, lp int) bool {
	col := c.Keys[lp]
	for _, id := range col {
		if id != col[0] {
			return false
		}
	}
	return true
}

// joinKeys returns the key columns of the on-levels within c.
func joinKeys(c *Cube, on []mdm.LevelRef) ([][]int32, error) {
	keys := make([][]int32, len(on))
	for i, ref := range on {
		p := c.Group.PosOf(ref)
		if p < 0 {
			return nil, fmt.Errorf("cube: join level %d.%d not in group-by set", ref.Hier, ref.Level)
		}
		keys[i] = c.Keys[p]
	}
	return keys, nil
}

// Join computes the natural join (drill-across) of two joinable cubes:
// cells with equal coordinates are concatenated; non-matching cells are
// dropped (or kept with NaN right measures when outer is true, which is
// the left-outer join of the assess* variant). The right cube's measures
// are renamed with the alias prefix (e.g. "benchmark.").
func Join(left, right *Cube, alias string, outer bool) (*Cube, error) {
	if !left.Group.Equal(right.Group) {
		return nil, fmt.Errorf("cube: cubes are not joinable (different group-by sets)")
	}
	on := make([]mdm.LevelRef, len(left.Group))
	copy(on, left.Group)
	return PartialJoin(left, right, on, alias, outer)
}

// PartialJoin computes left ⋈_{on} right: cells match when their
// coordinates agree on the given levels. Each left cell must match at most
// one right cell (the assess plans guarantee this: the right cube is a
// single slice); multiple matches are an error. Non-matching left cells
// are dropped, or kept with NaN right measures when outer is true.
func PartialJoin(left, right *Cube, on []mdm.LevelRef, alias string, outer bool) (*Cube, error) {
	lkeys, err := joinKeys(left, on)
	if err != nil {
		return nil, err
	}
	rkeys, err := joinKeys(right, on)
	if err != nil {
		return nil, err
	}
	// Key the right side on the join levels, rejecting duplicates. The
	// two cubes may come from different schemas (external benchmarks)
	// whose dictionaries agree on ids: the space covers the larger.
	cards := make([]int, len(on))
	for i, ref := range on {
		cards[i] = max(left.Schema.Dict(ref).Len(), right.Schema.Dict(ref).Len())
	}
	rix := new(index).build(mdm.NewKeySpace(cards), rkeys, right.Len())
	if bad := rix.bad; bad >= 0 {
		if err := right.members(right.Coord(bad)); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("cube: partial join is ambiguous: right cube has several cells for key of %s",
			right.Coord(bad).Format(right.Schema, right.Group))
	}
	return joinFound(left, right, alias, rix.lookup(lkeys, left.Len()), outer)
}

// Pivot computes ⊞_{⟨m→name⟩, l, ref}(C): it keeps only the slice of level
// l on member ref and, for each kept cell, appends the measures of its
// neighbor cells (same coordinate except for l) as new measures. Each
// neighbor contributes one renamed copy of every measure, in the order of
// the neighbors slice (plans fix them: the sibling, or the past slices in
// chronological order). When strict is true, cells missing any neighbor are
// dropped (the paper's "is not null" filter); otherwise missing neighbor
// measures are NaN. rename maps a (measure, neighbor member) pair to the
// new column name; by default names are "m@member".
func Pivot(c *Cube, level mdm.LevelRef, ref int32, neighbors []int32, strict bool, rename func(measure, member string) string) (*Cube, error) {
	lp := c.Group.PosOf(level)
	if lp < 0 {
		return nil, fmt.Errorf("cube: pivot level not in group-by set")
	}
	if rename == nil {
		rename = func(measure, member string) string { return measure + "@" + member }
	}
	dict := c.Schema.Dict(level)
	names := append([]string(nil), c.Names...)
	for _, id := range neighbors {
		for _, m := range c.Names {
			names = append(names, rename(m, dict.Name(id)))
		}
	}

	// A cell's neighbor is its own coordinate with the level's member
	// replaced: the reference slice's key columns, the level's column
	// filled with the neighbor, probe the cube's index.
	if err := c.BuildIndex(); err != nil {
		return nil, err
	}
	var rows []int32 // the reference slice's cells
	for i, id := range c.Keys[lp] {
		if id == ref {
			rows = append(rows, int32(i))
		}
	}
	probe := make([][]int32, len(c.Keys))
	for p, col := range c.Keys {
		probe[p] = gather(col, rows)
	}
	nrows := make([][]int32, len(neighbors)) // per neighbor, its cell for each of rows
	for b, id := range neighbors {
		probe[lp] = filled(id, len(rows))
		nrows[b] = c.idx.lookup(probe, len(rows))
	}
	keep := make([]int32, 0, len(rows)) // strict drops a cell missing a neighbor
cells:
	for k := range rows {
		for _, of := range nrows {
			if strict && of[k] < 0 {
				continue cells
			}
		}
		keep = append(keep, int32(k))
	}
	keys, cols := take(c, gather(rows, keep))
	for _, of := range nrows {
		cols = append(cols, matched(c, gather(of, keep))...)
	}
	return Build(c.Schema, c.Group, names, len(keep), keys, cols)
}

// MultiplyJoin computes the one-to-many partial join used by
// Join-Optimized Plans over past benchmarks (Example 5.3): each left
// (target) cell is joined with the right (benchmark) cells of every slice
// member in members, producing one output row per (cell, member) pair —
// exactly what the SQL join of the pushed subexpression C ⋈ B returns
// when B holds several time slices. Output coordinates are the left
// coordinate with the slice level replaced by the member. When outer is
// true every (cell, member) pair is emitted, with NaN right measures
// where no match exists (the assess* variant); otherwise only actual
// matches are emitted.
func MultiplyJoin(left, right *Cube, level mdm.LevelRef, members []int32, alias string, outer bool) (*Cube, error) {
	if !left.Group.Equal(right.Group) {
		return nil, fmt.Errorf("cube: cubes are not joinable (different group-by sets)")
	}
	lp := left.Group.PosOf(level)
	if lp < 0 {
		return nil, fmt.Errorf("cube: multiply-join level not in both group-by sets")
	}
	if err := right.BuildIndex(); err != nil {
		return nil, err
	}
	// One probe per member: the left key columns with the level's column
	// filled with the member.
	probe := slices.Clone(left.Keys)
	found := make([][]int32, len(members)) // per member, the right cell of each left cell
	for m, member := range members {
		probe[lp] = filled(member, left.Len())
		found[m] = right.idx.lookup(probe, left.Len())
	}
	var lrows, rrows, slice []int32 // per output row: left cell, right cell, member
	for i := range left.Len() {
		for m, member := range members {
			if ri := found[m][i]; ri >= 0 || outer {
				lrows = append(lrows, int32(i))
				rrows = append(rrows, ri)
				slice = append(slice, member)
			}
		}
	}
	out, err := joined(left, right, alias, lrows, rrows)
	if err != nil {
		return nil, err
	}
	out.Keys[lp] = slice
	// Distinct members over a single left slice cannot repeat an output
	// coordinate; anything else is checked.
	distinct := slices.Clone(members)
	slices.Sort(distinct)
	if len(slices.Compact(distinct)) < len(members) || !singleSlice(left, lp) {
		if err := out.BuildIndex(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RollupJoin joins each cell of the target cube with the benchmark cell
// its coordinate rolls up to: the cell-to-cell mapping of ancestor
// benchmarks (assessing milk against its category). The benchmark's
// group-by set must be the target's with the child level replaced by a
// coarser level of the same hierarchy. Unmatched target cells are
// dropped, or kept with NaN benchmark measures when outer is true.
func RollupJoin(target, bench *Cube, alias string, outer bool) (*Cube, error) {
	if !target.Group.RollsUpTo(bench.Group) {
		return nil, fmt.Errorf("cube: target group-by does not roll up to the benchmark's")
	}
	if err := bench.BuildIndex(); err != nil {
		return nil, err
	}
	// Each target cell probes with rup_G'(γ) (mdm.Coordinate.Rollup): its
	// key columns rolled up to the benchmark's levels.
	up := make([][]int32, len(bench.Group))
	for bp, ref := range bench.Group {
		tp := target.Group.Pos(ref.Hier)
		col := target.Keys[tp]
		if from := target.Group[tp].Level; from != ref.Level {
			lm := target.Schema.Hiers[ref.Hier].LevelMap(from, ref.Level)
			col = make([]int32, target.Len())
			for i, id := range target.Keys[tp] {
				col[i] = lm[id]
			}
		}
		up[bp] = col
	}
	return joinFound(target, bench, alias, bench.idx.lookup(up, target.Len()), outer)
}

// Select returns the cube of the cells rows of c, in that order: every key
// and measure column, and the labels, gathered into fresh slices.
func (c *Cube) Select(rows []int32) *Cube {
	keys, cols := take(c, rows)
	out := &Cube{Schema: c.Schema, Group: c.Group, Names: slices.Clone(c.Names), Keys: keys, Cols: cols, n: len(rows), idx: new(index)}
	if c.Labels != nil {
		out.Labels = gather(c.Labels, rows)
	}
	return out
}

// Project returns a cube keeping only the named measure columns, renamed
// through rename (old name → new name; identity when absent). Coordinate,
// column and label slices are shared with the source cube.
func (c *Cube) Project(keep []string, rename map[string]string) (*Cube, error) {
	names := make([]string, len(keep))
	cols := make([][]float64, len(keep))
	for i, name := range keep {
		j, ok := c.MeasureIndex(name)
		if !ok {
			return nil, fmt.Errorf("cube: no measure %q to project", name)
		}
		out := name
		if nn, ok := rename[name]; ok {
			out = nn
		}
		names[i] = out
		cols[i] = c.Cols[j]
	}
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return nil, fmt.Errorf("cube: projection produces duplicate column %q", n)
		}
	}
	out, err := Build(c.Schema, c.Group, names, c.n, c.Keys, cols)
	if err != nil {
		return nil, err
	}
	out.Labels = c.Labels
	return out, nil
}

// ReplaceSlice returns a cube whose coordinates carry member at the given
// level: the cell-to-cell mapping of sibling and past benchmarks
// ("replacing u with u_sib", Section 3.1). All cells must belong to a
// single slice of the level, otherwise coordinates would collide.
func (c *Cube) ReplaceSlice(level mdm.LevelRef, member int32) (*Cube, error) {
	lp := c.Group.PosOf(level)
	if lp < 0 {
		return nil, fmt.Errorf("cube: slice level not in group-by set")
	}
	out := c.Select(positions(c.n))
	out.Keys[lp] = filled(member, c.n)
	if !singleSlice(c, lp) {
		if err := out.BuildIndex(); err != nil {
			return nil, err
		}
	}
	return out, nil
}
