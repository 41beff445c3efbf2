package cube

import (
	"fmt"
	"math"
	"sort"

	"github.com/assess-olap/assess/internal/mdm"
)

// refCube is the derived cube as it was before assembly went columnar:
// every cell added one at a time into an eager map[string]int keyed on the
// coordinate's byte string, joins probing private string-keyed tables, and
// a sort that compares member names and rebuilds the index. It is kept
// here, unchanged but for the type's name, as the reference the operators
// of this package are compared with cell for cell (operators_test.go), and
// as the "before" side of BenchmarkResultAssemble.
type refCube struct {
	Schema *mdm.Schema
	Group  mdm.GroupBy
	Names  []string
	Coords []mdm.Coordinate
	Cols   [][]float64
	Labels []string

	index map[string]int
}

func refNew(s *mdm.Schema, g mdm.GroupBy, names ...string) *refCube {
	c := &refCube{Schema: s, Group: g, Names: append([]string(nil), names...)}
	c.Cols = make([][]float64, len(c.Names))
	c.index = make(map[string]int)
	return c
}

func (c *refCube) Len() int { return len(c.Coords) }

func (c *refCube) AddCell(coord mdm.Coordinate, vals []float64) error {
	if len(vals) != len(c.Cols) {
		return fmt.Errorf("cube: cell has %d values, cube has %d measures", len(vals), len(c.Cols))
	}
	key := mdm.WideKey(coord, nil)
	if _, dup := c.index[key]; dup {
		return fmt.Errorf("cube: duplicate coordinate %s", coord.Format(c.Schema, c.Group))
	}
	c.index[key] = len(c.Coords)
	c.Coords = append(c.Coords, coord)
	for j, v := range vals {
		c.Cols[j] = append(c.Cols[j], v)
	}
	return nil
}

func (c *refCube) Lookup(coord mdm.Coordinate) (int, bool) {
	i, ok := c.index[mdm.WideKey(coord, nil)]
	return i, ok
}

func refJoin(left, right *refCube, alias string, outer bool) (*refCube, error) {
	if !left.Group.Equal(right.Group) {
		return nil, fmt.Errorf("cube: cubes are not joinable (different group-by sets)")
	}
	on := make([]mdm.LevelRef, len(left.Group))
	copy(on, left.Group)
	return refPartialJoin(left, right, on, alias, outer)
}

func refPartialJoin(left, right *refCube, on []mdm.LevelRef, alias string, outer bool) (*refCube, error) {
	lpos, err := joinPositions(left.Group, on)
	if err != nil {
		return nil, err
	}
	rpos, err := joinPositions(right.Group, on)
	if err != nil {
		return nil, err
	}
	names := append([]string(nil), left.Names...)
	for _, n := range right.Names {
		names = append(names, alias+n)
	}
	out := refNew(left.Schema, left.Group, names...)

	rindex := make(map[string]int, right.Len())
	for i, coord := range right.Coords {
		key := mdm.WideKey(coord, rpos)
		if _, dup := rindex[key]; dup {
			return nil, fmt.Errorf("cube: partial join is ambiguous: right cube has several cells for key of %s",
				coord.Format(right.Schema, right.Group))
		}
		rindex[key] = i
	}
	vals := make([]float64, len(names))
	for i, coord := range left.Coords {
		ri, ok := rindex[mdm.WideKey(coord, lpos)]
		if !ok && !outer {
			continue
		}
		for j := range left.Cols {
			vals[j] = left.Cols[j][i]
		}
		for j := range right.Cols {
			if ok {
				vals[len(left.Cols)+j] = right.Cols[j][ri]
			} else {
				vals[len(left.Cols)+j] = math.NaN()
			}
		}
		if err := out.AddCell(coord.Clone(), append([]float64(nil), vals...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refPivot(c *refCube, level mdm.LevelRef, ref int32, neighbors []int32, strict bool, rename func(measure, member string) string) (*refCube, error) {
	lp := c.Group.PosOf(level)
	if lp < 0 {
		return nil, fmt.Errorf("cube: pivot level not in group-by set")
	}
	if rename == nil {
		rename = func(measure, member string) string { return measure + "@" + member }
	}
	dict := c.Schema.Dict(level)

	if neighbors == nil {
		memberSet := make(map[int32]bool)
		for _, coord := range c.Coords {
			memberSet[coord[lp]] = true
		}
		neighbors = make([]int32, 0, len(memberSet))
		for id := range memberSet {
			if id != ref {
				neighbors = append(neighbors, id)
			}
		}
		sort.Slice(neighbors, func(i, j int) bool { return dict.Name(neighbors[i]) < dict.Name(neighbors[j]) })
	}

	names := append([]string(nil), c.Names...)
	for _, id := range neighbors {
		for _, m := range c.Names {
			names = append(names, rename(m, dict.Name(id)))
		}
	}
	out := refNew(c.Schema, c.Group, names...)

	others := make([]int, 0, len(c.Group)-1)
	for p := range c.Group {
		if p != lp {
			others = append(others, p)
		}
	}
	type sliceKey struct {
		member int32
		key    string
	}
	byKey := make(map[sliceKey]int, c.Len())
	for i, coord := range c.Coords {
		byKey[sliceKey{coord[lp], mdm.WideKey(coord, others)}] = i
	}

	vals := make([]float64, len(names))
cells:
	for i, coord := range c.Coords {
		if coord[lp] != ref {
			continue
		}
		for j := range c.Cols {
			vals[j] = c.Cols[j][i]
		}
		okey := mdm.WideKey(coord, others)
		w := len(c.Cols)
		for _, id := range neighbors {
			ni, ok := byKey[sliceKey{id, okey}]
			for j := range c.Cols {
				if ok {
					vals[w] = c.Cols[j][ni]
				} else {
					if strict {
						continue cells
					}
					vals[w] = math.NaN()
				}
				w++
			}
		}
		if err := out.AddCell(coord.Clone(), append([]float64(nil), vals...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func refMultiplyJoin(left, right *refCube, level mdm.LevelRef, members []int32, alias string, outer bool) (*refCube, error) {
	lp := left.Group.PosOf(level)
	rp := right.Group.PosOf(level)
	if lp < 0 || rp < 0 {
		return nil, fmt.Errorf("cube: multiply-join level not in both group-by sets")
	}
	if !left.Group.Equal(right.Group) {
		return nil, fmt.Errorf("cube: cubes are not joinable (different group-by sets)")
	}
	names := append([]string(nil), left.Names...)
	for _, n := range right.Names {
		names = append(names, alias+n)
	}
	out := refNew(left.Schema, left.Group, names...)
	vals := make([]float64, len(names))
	key := make(mdm.Coordinate, len(left.Group))
	for i, coord := range left.Coords {
		copy(key, coord)
		for _, member := range members {
			key[lp] = member
			ri, ok := right.Lookup(key)
			if !ok && !outer {
				continue
			}
			for j := range left.Cols {
				vals[j] = left.Cols[j][i]
			}
			for j := range right.Cols {
				if ok {
					vals[len(left.Cols)+j] = right.Cols[j][ri]
				} else {
					vals[len(left.Cols)+j] = math.NaN()
				}
			}
			if err := out.AddCell(key.Clone(), append([]float64(nil), vals...)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

func refRollupJoin(target, bench *refCube, alias string, outer bool) (*refCube, error) {
	if !target.Group.RollsUpTo(bench.Group) {
		return nil, fmt.Errorf("cube: target group-by does not roll up to the benchmark's")
	}
	names := append([]string(nil), target.Names...)
	for _, n := range bench.Names {
		names = append(names, alias+n)
	}
	out := refNew(target.Schema, target.Group, names...)
	vals := make([]float64, len(names))
	for i, coord := range target.Coords {
		up := coord.Rollup(target.Schema, target.Group, bench.Group)
		bi, ok := bench.Lookup(up)
		if !ok && !outer {
			continue
		}
		for j := range target.Cols {
			vals[j] = target.Cols[j][i]
		}
		for j := range bench.Cols {
			if ok {
				vals[len(target.Cols)+j] = bench.Cols[j][bi]
			} else {
				vals[len(target.Cols)+j] = math.NaN()
			}
		}
		if err := out.AddCell(coord.Clone(), append([]float64(nil), vals...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c *refCube) Project(keep []string, rename map[string]string) (*refCube, error) {
	names := make([]string, len(keep))
	cols := make([][]float64, len(keep))
	for i, name := range keep {
		j := -1
		for k, n := range c.Names {
			if n == name {
				j = k
				break
			}
		}
		if j < 0 {
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
	return &refCube{Schema: c.Schema, Group: c.Group, Names: names, Coords: c.Coords, Cols: cols, Labels: c.Labels, index: c.index}, nil
}

func (c *refCube) ReplaceSlice(level mdm.LevelRef, member int32) (*refCube, error) {
	lp := c.Group.PosOf(level)
	if lp < 0 {
		return nil, fmt.Errorf("cube: slice level not in group-by set")
	}
	out := refNew(c.Schema, c.Group, c.Names...)
	vals := make([]float64, len(c.Cols))
	for i, coord := range c.Coords {
		nc := coord.Clone()
		nc[lp] = member
		for j := range c.Cols {
			vals[j] = c.Cols[j][i]
		}
		if err := out.AddCell(nc, append([]float64(nil), vals...)); err != nil {
			return nil, err
		}
	}
	if c.Labels != nil {
		out.Labels = append([]string(nil), c.Labels...)
	}
	return out, nil
}

func (c *refCube) SortByCoordinate() {
	order := make([]int, c.Len())
	for i := range order {
		order[i] = i
	}
	name := func(i, p int) string { return c.Schema.Dict(c.Group[p]).Name(c.Coords[i][p]) }
	sort.SliceStable(order, func(a, b int) bool {
		for p := range c.Group {
			na, nb := name(order[a], p), name(order[b], p)
			if na != nb {
				return na < nb
			}
		}
		return false
	})
	coords := make([]mdm.Coordinate, c.Len())
	cols := make([][]float64, len(c.Cols))
	for j := range cols {
		cols[j] = make([]float64, c.Len())
	}
	var labels []string
	if c.Labels != nil {
		labels = make([]string, c.Len())
	}
	for dst, src := range order {
		coords[dst] = c.Coords[src]
		for j := range cols {
			cols[j][dst] = c.Cols[j][src]
		}
		if labels != nil {
			labels[dst] = c.Labels[src]
		}
	}
	c.Coords, c.Cols, c.Labels = coords, cols, labels
	c.index = make(map[string]int, len(coords))
	for i, coord := range coords {
		c.index[mdm.WideKey(coord, nil)] = i
	}
}
