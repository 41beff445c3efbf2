package cube

import (
	"fmt"
	"math"
	"slices"

	"github.com/assess-olap/assess/internal/mdm"
)

// The operators below share one shape: decide, per output cell, which
// source cells it draws from (row lists), then assemble the output
// column by column through Build — one coordinate arena and one slice per
// measure, however many cells.

// take copies the cells rows of c: their coordinates into one fresh
// arena, and every measure column.
func take(c *Cube, rows []int32) ([]mdm.Coordinate, [][]float64) {
	width := len(c.Group)
	coords := Carve(make([]int32, len(rows)*width), len(rows), width)
	for k, i := range rows {
		copy(coords[k], c.Coords[i])
	}
	cols := make([][]float64, len(c.Cols))
	for j, col := range c.Cols {
		cols[j] = gather(col, rows)
	}
	return coords, cols
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

// joinNames is the output header of a join: the left names, then the
// right names under the alias prefix.
func joinNames(left, right *Cube, alias string) []string {
	names := make([]string, 0, len(left.Names)+len(right.Names))
	names = append(names, left.Names...)
	for _, n := range right.Names {
		names = append(names, alias+n)
	}
	return names
}

// singleSlice reports whether every cell carries the same member at
// position lp. Rewriting that position of such a cube cannot make two of
// its (unique) coordinates collide.
func singleSlice(c *Cube, lp int) bool {
	for _, coord := range c.Coords {
		if coord[lp] != c.Coords[0][lp] {
			return false
		}
	}
	return true
}

// positions of the on-levels within a group-by set.
func joinPositions(g mdm.GroupBy, on []mdm.LevelRef) ([]int, error) {
	pos := make([]int, len(on))
	for i, ref := range on {
		p := g.PosOf(ref)
		if p < 0 {
			return nil, fmt.Errorf("cube: join level %d.%d not in group-by set", ref.Hier, ref.Level)
		}
		pos[i] = p
	}
	return pos, nil
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
	lpos, err := joinPositions(left.Group, on)
	if err != nil {
		return nil, err
	}
	rpos, err := joinPositions(right.Group, on)
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
	rtab, dup := newTable(mdm.NewKeySpace(cards), rpos, right.Coords)
	if dup >= 0 {
		return nil, fmt.Errorf("cube: partial join is ambiguous: right cube has several cells for key of %s",
			right.Coords[dup].Format(right.Schema, right.Group))
	}
	lrows := make([]int32, 0, left.Len())
	rrows := make([]int32, 0, left.Len())
	for i, coord := range left.Coords {
		ri, ok := rtab.find(coord, lpos)
		if !ok {
			if !outer {
				continue
			}
			ri = -1
		}
		lrows = append(lrows, int32(i))
		rrows = append(rrows, int32(ri))
	}
	coords, cols := take(left, lrows)
	return Build(left.Schema, left.Group, joinNames(left, right, alias), coords, append(cols, matched(right, rrows)...))
}

// Pivot computes ⊞_{⟨m→name⟩, l, ref}(C): it keeps only the slice of level
// l on member ref and, for each kept cell, appends the measures of its
// neighbor cells (same coordinate except for l) as new measures. Each
// neighbor contributes one renamed copy of every measure, in the order of
// the neighbors slice; when neighbors is nil the members present in the
// cube are used, ordered by member name (chronological for ISO-formatted
// temporal members). When strict is true, cells missing any neighbor are
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

	if neighbors == nil {
		// Collect the neighbor members present in the cube, ordered by name.
		present := make(map[int32]bool)
		for _, coord := range c.Coords {
			present[coord[lp]] = true
		}
		neighbors = make([]int32, 0, len(present))
		for id := range present {
			if id != ref {
				neighbors = append(neighbors, id)
			}
		}
		ranks := dict.Ranks()
		slices.SortFunc(neighbors, func(a, b int32) int { return int(ranks[a]) - int(ranks[b]) })
	}

	names := append([]string(nil), c.Names...)
	for _, id := range neighbors {
		for _, m := range c.Names {
			names = append(names, rename(m, dict.Name(id)))
		}
	}

	// A cell's neighbor is its own coordinate with the level's member
	// replaced: a probe of the cube's index.
	if err := c.BuildIndex(); err != nil {
		return nil, err
	}
	var rows []int32  // kept reference-slice cells
	var nrows []int32 // their neighbor cells, len(neighbors) per kept cell
	probe := make(mdm.Coordinate, len(c.Group))
cells:
	for i, coord := range c.Coords {
		if coord[lp] != ref {
			continue
		}
		copy(probe, coord)
		at := len(nrows)
		for _, id := range neighbors {
			probe[lp] = id
			ni, ok := c.Lookup(probe)
			if !ok {
				if strict {
					nrows = nrows[:at]
					continue cells
				}
				ni = -1
			}
			nrows = append(nrows, int32(ni))
		}
		rows = append(rows, int32(i))
	}
	coords, cols := take(c, rows)
	of := make([]int32, len(rows)) // one neighbor's cell per kept cell
	for b := range neighbors {
		for k := range of {
			of[k] = nrows[k*len(neighbors)+b]
		}
		cols = append(cols, matched(c, of)...)
	}
	return Build(c.Schema, c.Group, names, coords, cols)
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
	lp := left.Group.PosOf(level)
	rp := right.Group.PosOf(level)
	if lp < 0 || rp < 0 {
		return nil, fmt.Errorf("cube: multiply-join level not in both group-by sets")
	}
	if !left.Group.Equal(right.Group) {
		return nil, fmt.Errorf("cube: cubes are not joinable (different group-by sets)")
	}
	if err := right.BuildIndex(); err != nil {
		return nil, err
	}
	var lrows, rrows, slice []int32 // per output row: left cell, right cell, member
	probe := make(mdm.Coordinate, len(left.Group))
	for i, coord := range left.Coords {
		copy(probe, coord)
		for _, member := range members {
			probe[lp] = member
			ri, ok := right.Lookup(probe)
			if !ok {
				if !outer {
					continue
				}
				ri = -1
			}
			lrows = append(lrows, int32(i))
			rrows = append(rrows, int32(ri))
			slice = append(slice, member)
		}
	}
	coords, cols := take(left, lrows)
	for k, member := range slice {
		coords[k][lp] = member
	}
	out, err := Build(left.Schema, left.Group, joinNames(left, right, alias), coords, append(cols, matched(right, rrows)...))
	if err != nil {
		return nil, err
	}
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
	trows := make([]int32, 0, target.Len())
	brows := make([]int32, 0, target.Len())
	// up is rup_G'(γ) of the current cell (mdm.Coordinate.Rollup), reused.
	up := make(mdm.Coordinate, len(bench.Group))
	from := make([]int, len(bench.Group)) // target position of each benchmark level
	for bp, ref := range bench.Group {
		from[bp] = target.Group.Pos(ref.Hier)
	}
	for i, coord := range target.Coords {
		for bp, ref := range bench.Group {
			tp := from[bp]
			up[bp] = target.Schema.Hiers[ref.Hier].Rollup(coord[tp], target.Group[tp].Level, ref.Level)
		}
		bi, ok := bench.Lookup(up)
		if !ok {
			if !outer {
				continue
			}
			bi = -1
		}
		trows = append(trows, int32(i))
		brows = append(brows, int32(bi))
	}
	coords, cols := take(target, trows)
	return Build(target.Schema, target.Group, joinNames(target, bench, alias), coords, append(cols, matched(bench, brows)...))
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
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if seen[n] {
			return nil, fmt.Errorf("cube: projection produces duplicate column %q", n)
		}
		seen[n] = true
	}
	out, err := Build(c.Schema, c.Group, names, c.Coords, cols)
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
	all := make([]int32, c.Len())
	for i := range all {
		all[i] = int32(i)
	}
	coords, cols := take(c, all)
	for _, coord := range coords {
		coord[lp] = member
	}
	out, err := Build(c.Schema, c.Group, c.Names, coords, cols)
	if err != nil {
		return nil, err
	}
	if !singleSlice(c, lp) {
		if err := out.BuildIndex(); err != nil {
			return nil, err
		}
	}
	if c.Labels != nil {
		out.Labels = append([]string(nil), c.Labels...)
	}
	return out, nil
}
